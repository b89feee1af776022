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
    passed = []
    real = voxeval.ensemble.RegionProbSet

    def spy(*maps, spacing):
        passed.extend(maps)
        return real(*maps, spacing=spacing)

    monkeypatch.setattr(voxeval.ensemble, "RegionProbSet", spy)
    rng = np.random.default_rng(81)
    out = average_probs([random_probset(rng, (4, 4, 4)) for _ in range(2)])
    for got, built in zip(region_arrays(out), passed):
        assert np.shares_memory(got, built)
