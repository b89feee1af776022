import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeval import (
    MetricRecord,
    MetricTable,
    SpecialCase,
    ValidationError,
    brats_ranking,
    jackknife_stability,
    rank_column,
)
from voxeval.ranking import _pairwise_wins
from oracles import (
    brats_ranking_oracle,
    jackknife_loop_oracle,
    jackknife_oracle,
    pairwise_wins_loop_oracle,
    rank_oracle,
)

# Frozen jackknife fixture: found by randomized search (seed 12345, trial 58
# of 3-algorithm/2-case tables). In the full pool A beats B beats C, but with
# C removed B beats A, and with A removed B and C tie.
FLIP_DICE = [
    [[0.2, 0.38, 0.3], [0.96, 0.86, 0.17]],
    [[0.88, 0.59, 0.33], [0.96, 0.75, 0.2]],
    [[0.99, 0.64, 0.66], [0.47, 0.39, 0.01]],
]
FLIP_HD95 = [
    [[30.4, 24.2, 28.9], [15.6, 30.7, 5.9]],
    [[40.0, 31.1, 14.9], [25.8, 5.9, 24.1]],
    [[36.8, 30.2, 30.3], [30.7, 6.2, 11.3]],
]


def uniform_table(n_algorithms, n_cases=2, dice=0.5, hd=5.0):
    shape = (n_algorithms, n_cases, 3)
    return MetricTable(
        tuple(f"alg{i}" for i in range(n_algorithms)),
        tuple(f"case{j}" for j in range(n_cases)),
        np.full(shape, dice),
        np.full(shape, hd),
    )


def random_table(rng, n_algorithms, n_cases):
    return MetricTable(
        tuple(f"alg{i}" for i in range(n_algorithms)),
        tuple(f"case{j}" for j in range(n_cases)),
        rng.uniform(0, 1, size=(n_algorithms, n_cases, 3)),
        rng.uniform(0, 50, size=(n_algorithms, n_cases, 3)),
    )


# -- rank_column --------------------------------------------------------------


def test_rank_column_spec_examples():
    assert list(rank_column([0.9, 0.8, 0.7], "higher_better")) == [1.0, 2.0, 3.0]
    assert list(rank_column([0.9, 0.9, 0.7], "higher_better")) == [1.5, 1.5, 3.0]
    assert list(rank_column([2.0, 373.13, 0.0], "lower_better")) == [2.0, 3.0, 1.0]


def test_rank_column_rejects_bad_input():
    with pytest.raises(ValidationError):
        rank_column([], "higher_better")
    with pytest.raises(ValidationError, match="NaN"):
        rank_column([1.0, float("nan")], "higher_better")
    with pytest.raises(ValidationError, match="direction"):
        rank_column([1.0], "biggest_wins")


def test_rank_column_matches_scipy_on_heavy_ties():
    rng = np.random.default_rng(60)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        values = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=n)
        for direction in ("higher_better", "lower_better"):
            assert np.array_equal(
                rank_column(values, direction), rank_oracle(values, direction)
            )


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_rank_column_sum_is_invariant(values):
    n = len(values)
    for direction in ("higher_better", "lower_better"):
        assert rank_column(values, direction).sum() == n * (n + 1) / 2


# -- MetricTable ---------------------------------------------------------------


def test_metric_table_validation():
    with pytest.raises(ValidationError, match="unique"):
        uniform = np.full((2, 1, 3), 0.5)
        MetricTable(("a", "a"), ("c",), uniform, uniform)
    with pytest.raises(ValidationError, match="shape"):
        MetricTable(("a",), ("c",), np.zeros((1, 1, 2)), np.zeros((1, 1, 3)))
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        MetricTable(("a",), ("c",), np.full((1, 1, 3), 1.5), np.zeros((1, 1, 3)))
    with pytest.raises(ValidationError, match="nonnegative"):
        MetricTable(("a",), ("c",), np.zeros((1, 1, 3)), np.full((1, 1, 3), -1.0))


def record_set(dice, hd):
    return [
        MetricRecord("WT", dice, hd),
        MetricRecord("TC", dice, hd),
        MetricRecord("ET", dice, hd),
    ]


def test_from_records_roundtrip_and_case_order():
    table = MetricTable.from_records(
        {
            "B": {"case2": record_set(0.5, 1.0), "case1": record_set(0.25, 2.0)},
            "A": {"case1": record_set(0.75, 3.0), "case2": record_set(1.0, 4.0)},
        }
    )
    assert table.algorithms == ("B", "A")
    assert table.cases == ("case1", "case2")
    assert table.dice[0, 0, 0] == 0.25
    assert table.dice[1, 1, 2] == 1.0


def test_from_records_rejects_case_set_mismatch():
    with pytest.raises(ValidationError, match="same cases"):
        MetricTable.from_records(
            {
                "A": {"case1": record_set(0.5, 1.0)},
                "B": {"case2": record_set(0.5, 1.0)},
            }
        )


def test_from_records_rejects_incomplete_regions():
    with pytest.raises(ValidationError, match="per region"):
        MetricTable.from_records({"A": {"case1": record_set(0.5, 1.0)[:2]}})


# -- brats_ranking -------------------------------------------------------------


def test_dominance_scores():
    dice = np.zeros((2, 1, 3))
    hd = np.zeros((2, 1, 3))
    dice[0] = 0.9
    dice[1] = 0.5
    hd[0] = 1.0
    hd[1] = 10.0
    table = MetricTable(("A", "B"), ("case",), dice, hd)
    result = brats_ranking(table)
    assert result.score_of("A") == 0.5
    assert result.score_of("B") == 1.0
    assert result.ordering == ("A", "B")


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_identical_pool_scores(n):
    result = brats_ranking(uniform_table(n))
    expected = (n + 1) / (2 * n)
    assert np.allclose(result.score, expected)
    assert np.allclose(result.mean_rank, (n + 1) / 2)


def test_single_algorithm_scores_one():
    result = brats_ranking(uniform_table(1))
    assert result.score_of("alg0") == 1.0


def test_scores_within_bounds():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        result = brats_ranking(random_table(rng, n, int(rng.integers(1, 5))))
        assert np.all(result.score >= 1.0 / n - 1e-12)
        assert np.all(result.score <= 1.0 + 1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(63)
    table = random_table(rng, 5, 4)
    result = brats_ranking(table)
    perm = rng.permutation(5)
    permuted = MetricTable(
        tuple(table.algorithms[i] for i in perm),
        table.cases,
        table.dice[perm],
        table.hd95[perm],
    )
    permuted_result = brats_ranking(permuted)
    for algorithm in table.algorithms:
        assert permuted_result.score_of(algorithm) == result.score_of(algorithm)
    case_perm = rng.permutation(4)
    case_permuted = MetricTable(
        table.algorithms,
        tuple(table.cases[j] for j in case_perm),
        table.dice[:, case_perm],
        table.hd95[:, case_perm],
    )
    assert np.array_equal(brats_ranking(case_permuted).score, result.score)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(64)
    for _ in range(30):
        table = random_table(rng, 4, 3)
        dice = table.dice.copy()
        hd = table.hd95.copy()
        j = int(rng.integers(3))
        k = int(rng.integers(3))
        # strictly increasing maps that keep the value ranges legal
        dice[:, j, k] = dice[:, j, k] ** float(rng.uniform(0.2, 3.0))
        hd[:, j, k] = hd[:, j, k] * float(rng.uniform(0.5, 4.0)) + float(
            rng.uniform(0, 10)
        )
        mapped = MetricTable(table.algorithms, table.cases, dice, hd)
        assert np.array_equal(brats_ranking(mapped).score, brats_ranking(table).score)


def test_duplicated_algorithm_ties():
    rng = np.random.default_rng(65)
    table = random_table(rng, 3, 2)
    doubled = MetricTable(
        table.algorithms + ("alg0_copy",),
        table.cases,
        np.concatenate([table.dice, table.dice[:1]]),
        np.concatenate([table.hd95, table.hd95[:1]]),
    )
    result = brats_ranking(doubled)
    assert result.score_of("alg0") == result.score_of("alg0_copy")


def test_dichotomy_for_empty_reference_columns():
    # column where algorithms either returned empty ET (1.0) or a false
    # positive (0.0): ranks must form exactly two tied groups
    values = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    ranks = rank_column(values, "higher_better")
    empty_group = ranks[values == 1.0]
    fp_group = ranks[values == 0.0]
    assert len(set(empty_group)) == 1
    assert len(set(fp_group)) == 1
    assert empty_group[0] == pytest.approx(2.0)  # mean of positions 1..3
    assert fp_group[0] == pytest.approx(5.0)  # mean of positions 4..6


# -- jackknife -----------------------------------------------------------------


def test_jackknife_requires_three_algorithms():
    with pytest.raises(ValidationError, match="at least 3"):
        jackknife_stability(uniform_table(2))


def test_jackknife_dominant_algorithm_never_flips():
    rng = np.random.default_rng(66)
    n, m = 4, 3
    dice = rng.uniform(0.1, 0.8, size=(n, m, 3))
    hd = rng.uniform(5, 40, size=(n, m, 3))
    dice[0] = 0.95  # algorithm 0 dominates every column
    hd[0] = 1.0
    table = MetricTable(tuple("ABCD"), tuple(f"c{j}" for j in range(m)), dice, hd)
    report = jackknife_stability(table)
    assert report.full.ordering[0] == "A"
    for removed, sub in report.leave_one_out.items():
        if removed != "A":
            assert sub.ordering[0] == "A"
    assert not [f for f in report.flips if "A" in (f.algorithm_a, f.algorithm_b)]
    lo, hi = report.rank_ranges["A"]
    assert (lo, hi) == (1.0, 1.0)


def test_jackknife_duplicates_stay_tied():
    rng = np.random.default_rng(67)
    base = random_table(rng, 3, 2)
    table = MetricTable(
        base.algorithms + ("alg0_copy",),
        base.cases,
        np.concatenate([base.dice, base.dice[:1]]),
        np.concatenate([base.hd95, base.hd95[:1]]),
    )
    report = jackknife_stability(table)
    for sub in report.leave_one_out.values():
        if "alg0" in sub.algorithms and "alg0_copy" in sub.algorithms:
            assert sub.score_of("alg0") == sub.score_of("alg0_copy")


def test_frozen_flip_fixture_reports_reversal():
    table = MetricTable(("A", "B", "C"), ("c1", "c2"), FLIP_DICE, FLIP_HD95)
    report = jackknife_stability(table)
    assert report.full.ordering == ("A", "B", "C")
    assert len(report.flips) >= 1
    strict = [
        f
        for f in report.flips
        if f.removed == "C"
        and (f.algorithm_a, f.algorithm_b) == ("A", "B")
        and f.full_relation == "better"
        and f.jackknife_relation == "worse"
    ]
    assert strict, report.flips
    # with C removed, B overtakes A
    sub = report.leave_one_out["C"]
    assert sub.ordering == ("B", "A")


# -- against the loop oracles --------------------------------------------------


def tie_heavy_table(rng, n_range=(3, 13)):
    """N in ``n_range`` (default 3..12), M 1..6, scores from a few levels;
    some cases carry no ET.

    On a case without ET every algorithm scores the empty-region pair
    (1, 0) or the false-positive pair (0, 373.13) there.
    """
    n = int(rng.integers(*n_range))
    m = int(rng.integers(1, 7))
    dice = rng.choice([0.0, 0.25, 0.5, 0.8, 1.0], size=(n, m, 3))
    hd95 = rng.choice([0.0, 1.0, 2.5, 10.0, 373.13], size=(n, m, 3))
    for j in np.flatnonzero(rng.random(m) < 0.4):
        false_positive = rng.random(n) < 0.5
        dice[:, j, 2] = np.where(false_positive, 0.0, 1.0)
        hd95[:, j, 2] = np.where(false_positive, 373.13, 0.0)
    return MetricTable(
        tuple(f"alg{i}" for i in range(n)), tuple(f"case{j}" for j in range(m)), dice, hd95
    )


def test_ranking_and_jackknife_match_loop_oracles_on_tie_heavy_tables():
    rng = np.random.default_rng(68)
    for n_range in [(3, 13)] * 100 + [(30, 41)] * 3:
        table = tie_heavy_table(rng, n_range)
        mean_rank, score = brats_ranking_oracle(table.dice, table.hd95)
        result = brats_ranking(table)
        assert result.mean_rank.tolist() == mean_rank
        assert result.score.tolist() == score

        expected = jackknife_oracle(table.algorithms, table.dice, table.hd95)
        report = jackknife_stability(table)
        flips = [
            (f.removed, f.algorithm_a, f.algorithm_b, f.full_relation, f.jackknife_relation)
            for f in report.flips
        ]
        assert flips == expected["flips"]
        assert report.rank_ranges == expected["rank_ranges"]
        for removed, scores in expected["leave_one_out"].items():
            pool = report.leave_one_out[removed]
            assert pool.score.tolist() == scores
            assert pool.mean_rank.tolist() == expected["leave_one_out_mean_rank"][removed]
            assert pool.algorithms == tuple(a for a in table.algorithms if a != removed)
            assert all(type(a) is str for a in pool.algorithms)


@pytest.mark.parametrize("n", [3, 4, 50, 301])
def test_jackknife_and_wins_equal_the_loop_code_bit_for_bit(n):
    # N=301 compares its pools in chunks of 5, so 61 chunks.
    rng = np.random.default_rng(69 + n)
    for _ in range(8 if n < 10 else 2):
        table = tie_heavy_table(rng, (n, n + 1))
        keys = np.stack([-table.dice, table.hd95], axis=-1).reshape(n, -1)
        assert _pairwise_wins(keys).tobytes() == pairwise_wins_loop_oracle(keys).tobytes()
        report = jackknife_stability(table)
        expected = jackknife_loop_oracle(table)
        assert report.flips == expected.flips
        assert all(type(v) is str for f in report.flips for v in vars(f).values())
        assert report.rank_ranges == expected.rank_ranges
        assert report.full.score.tobytes() == expected.full.score.tobytes()
        assert list(report.leave_one_out) == list(expected.leave_one_out)
        for removed, pool in report.leave_one_out.items():
            want = expected.leave_one_out[removed]
            assert pool.algorithms == want.algorithms
            assert pool.mean_rank.tobytes() == want.mean_rank.tobytes()
            assert pool.score.tobytes() == want.score.tobytes()


@pytest.mark.parametrize("n, c", [(1, 1), (3, 369), (20, 750), (200, 12)])
def test_pairwise_wins_equal_the_loop_code_on_integer_and_decimal_keys(n, c):
    rng = np.random.default_rng(n + c)
    for keys in (rng.integers(0, 5, (n, c)).astype(float), np.round(rng.random((n, c)), 2)):
        assert _pairwise_wins(keys).tobytes() == pairwise_wins_loop_oracle(keys).tobytes()


def test_jackknife_peak_memory_is_no_higher_than_the_loop_code():
    table = tie_heavy_table(np.random.default_rng(70), (320, 321))
    table = MetricTable(table.algorithms, table.cases[:2], table.dice[:, :2], table.hd95[:, :2])
    assert table.dice.shape == (320, 2, 3)
    peaks = []
    for jackknife in (jackknife_stability, jackknife_loop_oracle):
        tracemalloc.start()
        try:
            jackknife(table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], f"peaks {peaks[0] / 2**20:.2f} > {peaks[1] / 2**20:.2f} MB"
