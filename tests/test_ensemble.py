import weakref

import numpy as np
import pytest

import voxeval.ensemble
from voxeval import (
    RegionProbSet,
    Spacing,
    ValidationError,
    average_probs,
    ensemble_predict,
    labels_to_regions,
    regions_to_labels,
    two_level_ensemble,
)
from helpers import constant_probset, random_probset
from oracles import two_level_oracle


def region_arrays(prob_set):
    return [prob_set.p_wt, prob_set.p_tc, prob_set.p_et]


def test_single_member_identity():
    rng = np.random.default_rng(80)
    member = random_probset(rng, (5, 5, 5))
    out = average_probs([member])
    for got, want in zip(region_arrays(out), region_arrays(member)):
        assert np.allclose(got, want, atol=0)


def test_pairwise_mean():
    a = constant_probset((3, 3, 3), 0.4, 0.4, 0.4)
    b = constant_probset((3, 3, 3), 0.8, 0.8, 0.8)
    out = average_probs([a, b])
    assert np.allclose(out.p_wt, 0.6, atol=1e-15)


def test_average_probs_validation():
    member = constant_probset((3, 3, 3), 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match="at least one"):
        average_probs([])
    other_shape = constant_probset((4, 3, 3), 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match="shape"):
        average_probs([member, other_shape])
    other_spacing = constant_probset((3, 3, 3), 0.5, 0.5, 0.5, spacing=Spacing(2, 1, 1))
    with pytest.raises(ValidationError, match="spacing"):
        average_probs([member, other_spacing])


def test_two_level_is_not_pooled_mean():
    shape = (2, 2, 2)
    config_a = [constant_probset(shape, 0.2, 0.2, 0.2)]
    config_b = [
        constant_probset(shape, 0.4, 0.4, 0.4),
        constant_probset(shape, 0.8, 0.8, 0.8),
    ]
    out = two_level_ensemble([config_a, config_b])
    assert np.allclose(out.p_wt, 0.4, atol=1e-12)
    pooled = average_probs(config_a + config_b)
    assert np.allclose(pooled.p_wt, (0.2 + 0.4 + 0.8) / 3, atol=1e-12)
    assert not np.allclose(out.p_wt, pooled.p_wt, atol=1e-3)


def test_two_level_reductions():
    rng = np.random.default_rng(81)
    members = [random_probset(rng, (4, 4, 4)) for _ in range(3)]
    # singleton configurations reduce to a flat average
    split = two_level_ensemble([[m] for m in members])
    flat = average_probs(members)
    for got, want in zip(region_arrays(split), region_arrays(flat)):
        assert np.allclose(got, want, atol=1e-12)
    # a single configuration reduces to the average of its members
    joined = two_level_ensemble([members])
    for got, want in zip(region_arrays(joined), region_arrays(flat)):
        assert np.allclose(got, want, atol=1e-12)


def test_equal_member_counts_equal_pooled_mean():
    rng = np.random.default_rng(82)
    configs = [[random_probset(rng, (4, 4, 4)) for _ in range(3)] for _ in range(4)]
    two_level = two_level_ensemble(configs)
    pooled = average_probs([m for config in configs for m in config])
    for got, want in zip(region_arrays(two_level), region_arrays(pooled)):
        assert np.allclose(got, want, atol=1e-12)


def test_permutation_invariance_at_both_levels():
    rng = np.random.default_rng(83)
    configs = [
        [random_probset(rng, (4, 4, 4)) for _ in range(int(rng.integers(1, 4)))]
        for _ in range(3)
    ]
    base = two_level_ensemble(configs)
    shuffled_outer = two_level_ensemble(configs[::-1])
    shuffled_inner = two_level_ensemble([list(reversed(c)) for c in configs])
    for variant in (shuffled_outer, shuffled_inner):
        for got, want in zip(region_arrays(variant), region_arrays(base)):
            assert np.allclose(got, want, atol=1e-12)


def test_output_bounded_by_member_extremes():
    rng = np.random.default_rng(84)
    configs = [[random_probset(rng, (5, 5, 5)) for _ in range(2)] for _ in range(3)]
    out = two_level_ensemble(configs)
    members = [m for config in configs for m in config]
    for field in ("p_wt", "p_tc", "p_et"):
        stack = np.stack([getattr(m, field) for m in members])
        assert np.all(getattr(out, field) >= stack.min(axis=0) - 1e-12)
        assert np.all(getattr(out, field) <= stack.max(axis=0) + 1e-12)


def test_configuration_weights():
    shape = (2, 2, 2)
    config_a = [constant_probset(shape, 0.2, 0.2, 0.2)]
    config_b = [constant_probset(shape, 0.8, 0.8, 0.8)]
    out = two_level_ensemble([config_a, config_b], weights=[3.0, 1.0])
    assert np.allclose(out.p_wt, 0.35, atol=1e-12)
    with pytest.raises(ValidationError, match="one weight per configuration"):
        two_level_ensemble([config_a, config_b], weights=[1.0])
    with pytest.raises(ValidationError, match="nonnegative"):
        two_level_ensemble([config_a, config_b], weights=[1.0, -0.5])
    with pytest.raises(ValidationError, match="all be zero"):
        two_level_ensemble([config_a, config_b], weights=[0.0, 0.0])


def test_two_level_rejects_empty_configuration():
    config = [constant_probset((2, 2, 2), 0.5, 0.5, 0.5)]
    with pytest.raises(ValidationError, match="at least one configuration"):
        two_level_ensemble([])
    with pytest.raises(ValidationError, match="no members"):
        two_level_ensemble([config, []])


def test_ensemble_predict_matches_binarized_single_model():
    rng = np.random.default_rng(85)
    member = random_probset(rng, (5, 5, 5))
    predicted = ensemble_predict([[member]])
    assert np.array_equal(predicted.data, regions_to_labels(member).data)


def test_ensemble_predict_decision_rule():
    shape = (1, 1, 1)
    config = [constant_probset(shape, 0.9, 0.6, 0.4)]
    predicted = ensemble_predict([config])
    assert predicted.data[0, 0, 0] == 1  # necrosis: WT and TC fire, ET does not


def test_ensemble_predict_all_zero_is_background():
    config = [constant_probset((3, 3, 3), 0.0, 0.0, 0.0)]
    predicted = ensemble_predict([config])
    assert not labels_to_regions(predicted).wt.any()


def test_mean_of_extreme_probabilities_stays_valid():
    # all-ones members must combine to a valid probability set even with
    # float rounding in the accumulation
    shape = (3, 3, 3)
    members = [constant_probset(shape, 1.0, 1.0, 1.0) for _ in range(7)]
    out = average_probs(members)
    assert np.all(out.p_wt == 1.0)
    out2 = two_level_ensemble([members, members[:3]], weights=[0.1, 0.7])
    assert isinstance(out2, RegionProbSet)
    assert np.all(out2.p_et <= 1.0)


def test_mean_maps_are_kept_without_a_copy(monkeypatch):
    calls = []
    real = voxeval.ensemble._ReadProbSet

    def spy(*maps, spacing):
        calls.append((maps, real(*maps, spacing=spacing)))
        return calls[-1][1]

    monkeypatch.setattr(voxeval.ensemble, "_ReadProbSet", spy)
    rng = np.random.default_rng(81)
    members = [random_probset(rng, (4, 4, 4)) for _ in range(5)]
    outs = [
        average_probs(members),
        two_level_ensemble([members[:2], members[2:]]),
        two_level_ensemble([members[:2], members[2:]], [0.5, 2.0]),
    ]
    # One set per call: only the final maps are wrapped, configuration means are not.
    assert len(calls) == 3 and all(call[1] is out for call, out in zip(calls, outs))
    for maps, built in calls:
        assert len(maps) == 3
        for got, given in zip(region_arrays(built), maps):
            assert got is given


def seeded_members(rng, counts, shape, dtype, order, negative_zeros=False):
    """One list of probability sets per configuration, with ``counts[i]``
    members each; maps in ``dtype`` and memory ``order``.  With
    ``negative_zeros``, every map holds -0.0 in its first row and at some
    random voxels."""
    def prob_map():
        data = rng.random(shape, dtype=np.float64).astype(dtype)
        if negative_zeros:
            data[0, 0] = -0.0
            data[rng.random(shape) < 0.3] = -0.0
        return np.asarray(data, order=order)

    return [
        [RegionProbSet(prob_map(), prob_map(), prob_map(), Spacing(1, 1, 2)) for _ in range(count)]
        for count in counts
    ]


def consumed_once(configurations):
    """The configurations as a generator of generators that each refuse a
    second pass."""
    seen = set()

    def members(i, config):
        assert i not in seen, "a configuration was read twice"
        seen.add(i)
        yield from config

    return (members(i, config) for i, config in enumerate(configurations))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("weights", [None, [0.3, 1.7, 0.9], [1.0, 0.5, 1.0], [-0.0, 1.7, 0.9]])
@pytest.mark.parametrize("as_generators", [False, True])
@pytest.mark.parametrize("negative_zeros", [False, True])
def test_two_level_mean_equals_the_loop_oracle(dtype, order, weights, as_generators, negative_zeros):
    rng = np.random.default_rng(86)
    configurations = seeded_members(rng, [3, 1, 2], (3, 4, 5), dtype, order, negative_zeros)
    given = consumed_once(configurations) if as_generators else configurations
    out = two_level_ensemble(given, weights)
    for got, want in zip(region_arrays(out), two_level_oracle(configurations, weights)):
        assert got.dtype == np.float64
        # Bit for bit: array_equal would take a -0.0 for the oracle's 0.0.
        assert got.tobytes() == want.tobytes()
        # The sums are laid out like the members' maps, and read-only.
        assert got.flags.f_contiguous if order == "F" else got.flags.c_contiguous
        assert not got.flags.writeable
    assert out.spacing == Spacing(1, 1, 2)


@pytest.mark.parametrize("as_generator", [False, True])
def test_average_probs_equals_the_loop_oracle_on_mixed_members(as_generator):
    rng = np.random.default_rng(87)
    members = [m for config in seeded_members(rng, [2], (4, 3, 2), np.float32, "F") for m in config]
    members += [m for config in seeded_members(rng, [2], (4, 3, 2), np.float64, "C") for m in config]
    out = average_probs(iter(members) if as_generator else members)
    for got, want in zip(region_arrays(out), two_level_oracle([members])):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("where", ["member", "configuration"])
def test_a_smaller_map_is_rejected_not_broadcast(where):
    big = constant_probset((1, 1, 2), 0.5, 0.5, 0.5)
    small = constant_probset((1, 1, 1), 0.5, 0.5, 0.5)
    if where == "member":
        with pytest.raises(ValidationError, match=r"member 1 has shape \(1, 1, 1\), expected \(1, 1, 2\)"):
            average_probs([big, small])
        configurations = [[big], [big, small]]
    else:
        configurations = [[big], [small]]
    with pytest.raises(ValidationError, match=rf"{where} 1 has shape \(1, 1, 1\), expected \(1, 1, 2\)"):
        two_level_ensemble(configurations)


def test_weights_are_checked_against_the_configurations_consumed():
    config = [constant_probset((2, 2, 2), 0.5, 0.5, 0.5)]
    for configurations, weights, count in (
        ([config, config, config], [1.0], 3),
        ([config], [1.0, 1.0], 1),
        ([config, config], [], 2),
        ([config, config], [[1.0, 1.0]], 2),
    ):
        with pytest.raises(ValidationError, match=rf"one weight per configuration \({count}\)"):
            two_level_ensemble(iter(configurations), weights)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([1.0, -1.0, 1.0], "finite and nonnegative"),
        ([1.0, np.nan, 1.0], "finite and nonnegative"),
        ([1.0, np.inf, 1.0], "finite and nonnegative"),
        ([0.0, 0.0, 0.0], "must not all be zero"),
        # Too short and negative: the value check comes before the count.
        ([-1.0], "finite and nonnegative"),
    ],
)
def test_weight_values_are_checked_before_any_member_is_read(weights, message):
    read = []

    def members(k):
        for _ in range(2):
            read.append(k)
            yield constant_probset((2, 2, 2), 0.5, 0.5, 0.5)

    with pytest.raises(ValidationError, match=message):
        two_level_ensemble((members(k) for k in range(3)), weights)
    assert read == []


def test_each_member_is_dropped_before_the_next_is_read():
    rng = np.random.default_rng(88)
    read = []

    def members(count):
        for _ in range(count):
            assert all(ref() is None for ref in read), "a member was held across the next read"
            member = random_probset(rng, (3, 3, 3))
            read.append(weakref.ref(member))
            yield member
            del member

    two_level_ensemble(members(count) for count in (3, 2))
    assert len(read) == 5


@pytest.mark.parametrize("weights", [None, [0.5, 2.0]])
def test_no_map_of_a_member_is_held_across_the_next_read(weights):
    rng = np.random.default_rng(90)
    read = []

    def members(count):
        for _ in range(count):
            assert all(ref() is None for ref in read), "a map was held across the next read"
            member = random_probset(rng, (3, 3, 3))
            read.extend(weakref.ref(m) for m in region_arrays(member))
            yield member
            del member

    two_level_ensemble((members(count) for count in (3, 2)), weights)
    assert len(read) == 15
