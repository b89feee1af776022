import tracemalloc

import numpy as np
import pytest

from voxeval import (
    DEFAULT_POLICY,
    LabelCoding,
    LabelVolume,
    Spacing,
    SpecialCasePolicy,
    ValidationError,
    apply_et_threshold,
    brats_ranking,
    default_candidates,
    evaluate_case,
    labels_to_regions,
    optimize_threshold,
    read_label_volume,
    region_volume_mm3,
    sweep_thresholds,
    write_label_volume,
)
from voxeval import metrics
from voxeval.ranking import MetricTable
from voxeval.volume import _ReadLabelVolume
from helpers import label_volume_from_masks, random_label_volume
from oracles import sweep_oracle
from test_metrics import two_foci_labels


def volume_with_et_voxels(n_voxels, shape=(8, 8, 8), spacing=Spacing()):
    data = np.zeros(shape, dtype=np.uint8)
    data.ravel()[:n_voxels] = 4
    return LabelVolume(data, spacing)


def et_volume_of(vol):
    return region_volume_mm3(labels_to_regions(vol).et, vol.spacing)


# -- apply_et_threshold --------------------------------------------------------


def test_zero_threshold_is_identity():
    pred = volume_with_et_voxels(5)
    assert apply_et_threshold(pred, 0.0) is pred


def test_removal_below_threshold_preserves_wt_and_tc():
    data = np.zeros((8, 8, 8), dtype=np.uint8)
    data[1, 1, 1:4] = 4  # 3 mm^3 enhancing
    data[2, 2, 2:6] = 1  # necrosis
    data[3, 3, 0:5] = 2  # edema
    pred = LabelVolume(data, Spacing())
    before = labels_to_regions(pred)
    cleaned = apply_et_threshold(pred, 50.0)
    after = labels_to_regions(cleaned)
    assert not after.et.any()
    assert np.array_equal(after.wt, before.wt)
    assert np.array_equal(after.tc, before.tc)
    # removed voxels became necrosis
    assert np.all(cleaned.data[data == 4] == 1)


def test_volume_at_or_above_threshold_is_untouched():
    pred = volume_with_et_voxels(100)
    assert apply_et_threshold(pred, 50.0) is pred
    # strict comparison: exactly at the threshold nothing is removed
    assert apply_et_threshold(pred, 100.0) is pred
    assert not labels_to_regions(apply_et_threshold(pred, 100.5)).et.any()


def test_threshold_is_spacing_aware():
    thin = volume_with_et_voxels(10, spacing=Spacing(1, 1, 1))  # 10 mm^3
    thick = volume_with_et_voxels(10, spacing=Spacing(1, 1, 2))  # 20 mm^3
    assert not labels_to_regions(apply_et_threshold(thin, 15.0)).et.any()
    assert labels_to_regions(apply_et_threshold(thick, 15.0)).et.any()


def test_negative_threshold_rejected():
    with pytest.raises(ValidationError, match="nonnegative"):
        apply_et_threshold(volume_with_et_voxels(1), -1.0)


def test_apply_is_idempotent_and_all_or_nothing():
    rng = np.random.default_rng(70)
    for _ in range(30):
        pred = random_label_volume(rng, (7, 7, 7))
        threshold = float(rng.uniform(0, 30))
        once = apply_et_threshold(pred, threshold)
        twice = apply_et_threshold(once, threshold)
        assert np.array_equal(once.data, twice.data)
        et_after = labels_to_regions(once).et
        et_before = labels_to_regions(pred).et
        assert np.array_equal(et_after, et_before) or not et_after.any()


def test_wt_tc_preserved_on_random_volumes():
    rng = np.random.default_rng(71)
    for _ in range(40):
        pred = random_label_volume(rng, (6, 6, 6))
        before = labels_to_regions(pred)
        cleaned = apply_et_threshold(pred, float(rng.uniform(0, 40)))
        after = labels_to_regions(cleaned)
        assert np.array_equal(after.wt, before.wt)
        assert np.array_equal(after.tc, before.tc)


def test_empty_et_count_monotone_in_threshold():
    rng = np.random.default_rng(72)
    preds = [random_label_volume(rng, (6, 6, 6)) for _ in range(15)]
    thresholds = [0.0, 5.0, 20.0, 60.0, 1000.0]
    counts = []
    for threshold in thresholds:
        cleaned = [apply_et_threshold(p, threshold) for p in preds]
        counts.append(sum(1 for c in cleaned if not labels_to_regions(c).et.any()))
    assert counts == sorted(counts)


# -- candidates and sweep --------------------------------------------------------


def test_default_candidates_cover_every_removal_pattern():
    cases = [
        (volume_with_et_voxels(0), volume_with_et_voxels(3)),
        (volume_with_et_voxels(0), volume_with_et_voxels(7)),
    ]
    candidates = default_candidates(cases)
    assert candidates[0] == 0.0
    for volume in (3.0, 7.0):
        assert volume in candidates
        assert volume + 0.5 in candidates
    assert list(candidates) == sorted(set(candidates))


def fp_fixture_cases():
    ref = LabelVolume(np.zeros((8, 8, 8), dtype=np.uint8), Spacing())
    pred = volume_with_et_voxels(3)  # 3 mm^3 false positive
    return [(ref, pred)]


def test_sweep_false_positive_fixture():
    sweep = sweep_thresholds(fp_fixture_cases(), candidates=[0.0, 10.0])
    assert sweep.thresholds == (0.0, 10.0)
    assert sweep.mean_et_dice[0] == 0.0
    assert sweep.worst_counts[0] == 1 and sweep.perfect_counts[0] == 0
    assert sweep.mean_et_dice[1] == 1.0
    assert sweep.perfect_counts[1] == 1 and sweep.worst_counts[1] == 0
    # pseudo-pool of two thresholds on one case: loser 1.0, winner 0.5
    assert sweep.ranking_scores[0] == 1.0
    assert sweep.ranking_scores[1] == 0.5


def test_sweep_identical_when_et_always_empty():
    ref = volume_with_et_voxels(0)
    preds = [volume_with_et_voxels(0) for _ in range(3)]
    sweep = sweep_thresholds([(ref, p) for p in preds], candidates=[0.0, 5.0, 50.0])
    assert np.all(sweep.mean_et_dice == sweep.mean_et_dice[0])
    assert np.all(sweep.perfect_counts == sweep.perfect_counts[0])
    assert len(set(sweep.ranking_scores.tolist())) == 1


def mixed_fixture(rng):
    cases = []
    for _ in range(6):
        shape = (9, 9, 9)
        ref = random_label_volume(rng, shape, weights=(0.75, 0.08, 0.09, 0.08))
        pred = random_label_volume(rng, shape, weights=(0.75, 0.08, 0.09, 0.08))
        cases.append((ref, pred))
    return cases


def test_sweep_matches_bruteforce_recomputation():
    rng = np.random.default_rng(73)
    cases = mixed_fixture(rng)
    candidates = [0.0, 10.0, 40.0, 200.0]
    sweep = sweep_thresholds(cases, candidates=candidates)

    # recompute everything from scratch with straight loops
    et_dice = np.empty((len(candidates), len(cases)))
    et_hd = np.empty_like(et_dice)
    perfect = np.zeros(len(candidates), dtype=int)
    worst = np.zeros(len(candidates), dtype=int)
    for i, threshold in enumerate(candidates):
        for j, (ref, pred) in enumerate(cases):
            et_mask = pred.data == pred.coding.enhancing
            if et_mask.any() and region_volume_mm3(et_mask, pred.spacing) < threshold:
                relabeled = pred.data.copy()
                relabeled[et_mask] = pred.coding.necrosis
                cleaned = LabelVolume(relabeled, pred.spacing, pred.coding)
            else:
                cleaned = pred
            record = evaluate_case(ref, cleaned)[2]
            et_dice[i, j] = record.dice
            et_hd[i, j] = record.hd95
            if (record.dice, record.hd95) == (1.0, 0.0):
                perfect[i] += 1
            elif (record.dice, record.hd95) == (0.0, 373.13):
                worst[i] += 1

    assert np.array_equal(sweep.mean_et_dice, et_dice.mean(axis=1))
    assert np.array_equal(sweep.perfect_counts, perfect)
    assert np.array_equal(sweep.worst_counts, worst)
    pool = MetricTable(
        tuple(repr(float(t)) for t in candidates),
        tuple(f"case{j}" for j in range(len(cases))),
        et_dice[:, :, None],
        et_hd[:, :, None],
        regions=("ET",),
    )
    assert np.array_equal(sweep.ranking_scores, brats_ranking(pool).score)


def test_sweep_validates_inputs():
    with pytest.raises(ValidationError, match="pair"):
        sweep_thresholds([], candidates=[0.0])
    with pytest.raises(ValidationError, match="nonempty"):
        sweep_thresholds(fp_fixture_cases(), candidates=[])


# -- optimize_threshold ----------------------------------------------------------


def test_optimizer_picks_ten_under_both_criteria():
    sweep = sweep_thresholds(fp_fixture_cases(), candidates=[0.0, 10.0])
    choice = optimize_threshold(sweep)
    assert choice.best_by_dice == 10.0
    assert choice.best_by_rank == 10.0
    assert choice.by("dice") == 10.0
    assert choice.by("rank") == 10.0
    with pytest.raises(ValidationError):
        choice.by("accuracy")


def test_optimizer_breaks_ties_towards_smallest():
    ref = volume_with_et_voxels(0)
    pred = volume_with_et_voxels(0)
    sweep = sweep_thresholds([(ref, pred)], candidates=[0.0, 5.0, 50.0])
    choice = optimize_threshold(sweep)
    assert choice.best_by_dice == 0.0
    assert choice.best_by_rank == 0.0


def test_default_candidate_sweep_realizes_best_grid():
    rng = np.random.default_rng(74)
    cases = mixed_fixture(rng)
    sweep = sweep_thresholds(cases)
    assert sweep.thresholds[0] == 0.0
    volumes = sorted({et_volume_of(pred) for _, pred in cases})
    for volume in volumes:
        assert volume in sweep.thresholds
        assert volume + 0.5 in sweep.thresholds


# -- the sweep against the brute-force oracle --------------------------------------


def without_et(vol):
    data = vol.data.copy()
    data[data == vol.coding.enhancing] = vol.coding.necrosis
    return LabelVolume(data, vol.spacing, vol.coding)


def sweep_cohort(rng, n_cases, shape=(7, 7, 7)):
    """Random cases with every ET pattern, two of them with equal ET volume.

    Case j % 4 == 1 has no reference ET, 2 no predicted ET, 3 neither; the
    last case shifts the first prediction, so its ET volume is the same.
    """
    weights = (0.8, 0.07, 0.07, 0.06)
    cases = []
    for j in range(n_cases - 1):
        spacing = Spacing(*rng.uniform(0.5, 2.0, 3))
        ref = random_label_volume(rng, shape, spacing=spacing, weights=weights)
        pred = random_label_volume(rng, shape, spacing=spacing, weights=weights)
        if j % 4 in (1, 3):
            ref = without_et(ref)
        if j % 4 in (2, 3):
            pred = without_et(pred)
        cases.append((ref, pred))
    ref0, pred0 = cases[0]
    shifted = LabelVolume(np.roll(pred0.data, 1, axis=0), pred0.spacing)
    cases.append((random_label_volume(rng, shape, spacing=ref0.spacing, weights=weights), shifted))
    return cases


def explicit_candidates(rng, cases):
    """Every volume exactly (the strict-< edge), points between, 0 and a large
    value, shuffled and with duplicates."""
    volumes = [et_volume_of(pred) for _, pred in cases]
    grid = volumes + [v + 0.25 for v in volumes] + [0.0, 1e6] + volumes[:3]
    return [grid[i] for i in rng.permutation(len(grid))]


def assert_matches_oracle(sweep, expected):
    assert sweep.thresholds == expected["thresholds"]
    assert np.array_equal(sweep.mean_et_dice, expected["mean_et_dice"])
    assert np.array_equal(sweep.perfect_counts, expected["perfect_counts"])
    assert np.array_equal(sweep.worst_counts, expected["worst_counts"])
    assert np.array_equal(sweep.ranking_scores, expected["ranking_scores"])


@pytest.mark.parametrize(
    "policy",
    [
        DEFAULT_POLICY,
        SpecialCasePolicy(worst_hd95=50.0, worst_dice=0.25),
        # perfect pair == worst pair: the perfect count takes precedence
        SpecialCasePolicy(worst_hd95=0.0, worst_dice=1.0),
    ],
    ids=["default", "custom", "perfect_is_worst"],
)
def test_sweep_matches_oracle_on_random_cohorts(policy):
    rng = np.random.default_rng(75)
    for trial in range(6):
        cases = sweep_cohort(rng, n_cases=5 + trial)
        # the precedence case also needs a computed (1, 0) record
        cases.append((cases[0][0], cases[0][0]))
        volumes = [et_volume_of(pred) for _, pred in cases]
        assert volumes[0] == volumes[-2] > 0 and 0.0 in volumes
        candidates = explicit_candidates(rng, cases)
        assert_matches_oracle(
            sweep_thresholds(iter(cases), candidates, policy),
            sweep_oracle(cases, candidates, policy),
        )
        assert_matches_oracle(
            sweep_thresholds(cases, None, policy),
            sweep_oracle(cases, default_candidates(cases), policy),
        )
    if policy.worst_dice == policy.perfect_dice and policy.worst_hd95 == policy.perfect_hd95:
        assert not sweep_thresholds(cases, None, policy).worst_counts.any()


def test_sweep_consumes_a_generator_once():
    rng = np.random.default_rng(76)
    cases = sweep_cohort(rng, n_cases=6)
    yielded = []

    def pairs():
        for pair in cases:
            yielded.append(pair)
            yield pair

    candidates = explicit_candidates(rng, cases)
    assert_matches_oracle(sweep_thresholds(pairs(), candidates), sweep_oracle(cases, candidates))
    assert len(yielded) == len(cases)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -float("inf")])
def test_non_finite_or_negative_thresholds_rejected(bad):
    with pytest.raises(ValidationError, match="finite nonnegative"):
        apply_et_threshold(volume_with_et_voxels(1), bad)
    with pytest.raises(ValidationError, match="finite nonnegative"):
        sweep_thresholds(fp_fixture_cases(), candidates=[0.0, bad])


def test_sweep_computes_distances_once_per_case_with_et_on_both_sides(monkeypatch):
    rng = np.random.default_rng(77)
    # every prediction has ET, of distinct volumes, so the default grid has
    # 2M + 1 candidates; every third reference has none
    cases = [
        (without_et(ref) if j % 3 == 1 else ref, pred)
        for j, (ref, pred) in enumerate(sweep_cohort(rng, n_cases=12))
        if j % 4 in (0, 1)
    ]
    both = sum(1 for ref, _ in cases if labels_to_regions(ref).et.any())
    assert 0 < both < len(cases)
    calls = []
    original = metrics._distances  # the distance search of every scoring route

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "_distances", counting)
    one = sweep_thresholds(cases, candidates=[5.0])
    assert len(one.thresholds) == 1 and len(calls) == both
    calls.clear()
    full = sweep_thresholds(cases)
    assert len(full.thresholds) == 2 * len(cases) + 1 and len(calls) == both


def test_sweep_frees_its_et_masks_before_the_distance_search():
    # The sweep takes what it needs of the two ET masks, the reference's
    # emptiness and the predicted volume, before it scores them, and hands
    # them to score_region, which frees them before its distance search.
    # Held through the search as locals, they put this pair's peak at 0.21
    # times the volumes' bytes.
    ref, pred = two_foci_labels()
    held = ref.nbytes + pred.nbytes
    cases = [(LabelVolume(ref, Spacing()), LabelVolume(pred, Spacing()))]
    tracemalloc.start()
    try:
        sweep = sweep_thresholds(cases, candidates=[0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweep.perfect_counts[0] == sweep.worst_counts[0] == 0
    assert peak < 0.18 * held, f"peak {peak / held:.3f} times the volumes' bytes"


def test_apply_widens_the_dtype_for_a_necrosis_code_it_cannot_hold():
    coding = LabelCoding(necrosis=300)
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[1:4, 1:4, 1:4] = 2
    data[2, 2, 2:4] = 4
    pred = LabelVolume(data, Spacing(), coding)
    cleaned = apply_et_threshold(pred, 10.0)
    assert cleaned.data.dtype == np.uint16
    expected = data.astype(np.int64)
    expected[data == 4] = 300
    assert np.array_equal(cleaned.data, expected)
    assert not labels_to_regions(cleaned).et.any()
    assert np.array_equal(labels_to_regions(cleaned).tc, data == 4)
    assert np.array_equal(pred.data, data)  # the input is untouched


def test_sweep_and_et_counts_on_read_volumes_never_build_a_grid(tmp_path, monkeypatch):
    # Small tumours in a larger grid, and one empty side, so the boxes differ
    # and every crop is padded to the joined box or made of background.
    rng = np.random.default_rng(78)
    shape, spacing = (12, 10, 9), Spacing(1.0, 0.75, 1.5)  # float32 holds each

    def boxed(empty):
        data = np.zeros(shape, np.uint8)
        if not empty:
            lo = rng.integers(0, 6, 3)
            box = tuple(slice(a, a + n) for a, n in zip(lo, rng.integers(1, 5, 3)))
            data[box] = rng.choice([0, 1, 2, 4], size=data[box].shape, p=[0.2, 0.3, 0.2, 0.3])
        return LabelVolume(data, spacing)

    cases = [(boxed(j == 1), boxed(j == 2)) for j in range(8)]
    read = []
    for j, pair in enumerate(cases):
        paths = [tmp_path / f"{j}{side}.nii.gz" for side in "rp"]
        for path, volume in zip(paths, pair):
            write_label_volume(path, volume)
        read.append(tuple(read_label_volume(path) for path in paths))
    want = sweep_thresholds(cases)
    volumes = [et_volume_of(pred) for _, pred in cases]
    assert 0.0 in volumes and len(set(volumes)) > 2
    removed = [np.where(pred.data == 4, 1, pred.data) for _, pred in cases]  # every ET voxel to necrosis

    monkeypatch.setattr(_ReadLabelVolume, "data", property(lambda self: pytest.fail("data was built")))
    assert default_candidates(read) == default_candidates(cases)
    got = sweep_thresholds(read)
    assert got.thresholds == want.thresholds and got.n_cases == want.n_cases
    for name in ("mean_et_dice", "perfect_counts", "worst_counts", "ranking_scores"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for (_, pred), volume in zip(read, volumes):
        assert apply_et_threshold(pred, volume) is pred  # counted in the box, kept
    monkeypatch.undo()
    for (_, pred), volume, cleaned in zip(read, volumes, removed):
        assert np.array_equal(apply_et_threshold(pred, volume + 0.5).data, cleaned)
