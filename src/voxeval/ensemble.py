"""Two-level averaging of region probability maps, then label reconstruction.

Models trained under one configuration are averaged first; the final map
is the mean over configuration means.  With unequal member counts this
differs from pooling all members into one mean: each configuration keeps
the same influence on the final prediction regardless of how many models
it contributed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .volume import DEFAULT_CODING, LabelCoding, LabelVolume, RegionProbSet, regions_to_labels

_REGION_FIELDS = ("p_wt", "p_tc", "p_et")


def _check_compatible(members: Sequence[RegionProbSet], what: str) -> None:
    first = members[0]
    for i, member in enumerate(members[1:], start=1):
        if member.shape != first.shape:
            raise ValidationError(
                f"{what} {i} has shape {member.shape}, expected {first.shape}"
            )
        if member.spacing != first.spacing:
            raise ValidationError(
                f"{what} {i} has spacing {member.spacing.as_tuple()}, "
                f"expected {first.spacing.as_tuple()}"
            )


def _mean_probs(members: Sequence[RegionProbSet], weights: np.ndarray) -> RegionProbSet:
    """Weighted mean of probability sets; accumulates raw weights, then
    divides by their sum once, so uniform means of identical members are
    exact."""
    total = float(weights.sum())
    maps = []
    for field in _REGION_FIELDS:
        acc = np.zeros(members[0].shape, dtype=np.float64)
        # Fixed accumulation order keeps the result deterministic.
        for weight, member in zip(weights, members):
            if weight == 1.0:
                acc += np.asarray(getattr(member, field), dtype=np.float64)
            else:
                acc += weight * np.asarray(getattr(member, field), dtype=np.float64)
        acc /= total
        # Rounding can push a mean of values in [0, 1] past the ends by one
        # ulp, which the constructor would reject.
        np.clip(acc, 0.0, 1.0, out=acc)
        acc.setflags(write=False)  # so the constructor keeps it without a copy
        maps.append(acc)
    return RegionProbSet(*maps, spacing=members[0].spacing)


def average_probs(members: Sequence[RegionProbSet]) -> RegionProbSet:
    """Voxelwise arithmetic mean of probability sets, per region.

    All members must share shape and spacing.
    """
    members = list(members)
    if not members:
        raise ValidationError("average_probs requires at least one member")
    _check_compatible(members, "member")
    return _mean_probs(members, np.ones(len(members)))


def two_level_ensemble(
    configurations: Sequence[Sequence[RegionProbSet]],
    weights: Sequence[float] | None = None,
) -> RegionProbSet:
    """Mean over configurations of each configuration's member mean.

    Args:
        configurations: one nonempty list of probability sets per
            configuration; shapes and spacings must agree throughout.
        weights: optional per-configuration weights (nonnegative, not all
            zero); defaults to uniform, the equal-influence rule.

    Returns:
        The combined probability maps.  With unequal member counts this is
        *not* the pooled mean over all members: [[0.2]] and [[0.4, 0.8]]
        combine to 0.4, not 0.4667.
    """
    configurations = [list(c) for c in configurations]
    if not configurations:
        raise ValidationError("two_level_ensemble requires at least one configuration")
    for i, members in enumerate(configurations):
        if not members:
            raise ValidationError(f"configuration {i} has no members")
    if weights is None:
        w = np.full(len(configurations), 1.0)
    else:
        w = np.asarray(list(weights), dtype=np.float64)
        if w.shape != (len(configurations),):
            raise ValidationError(
                f"expected one weight per configuration "
                f"({len(configurations)}), got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)) or w.min() < 0.0:
            raise ValidationError("weights must be finite and nonnegative")
        if w.sum() == 0.0:
            raise ValidationError("weights must not all be zero")
    config_means = [average_probs(members) for members in configurations]
    _check_compatible(config_means, "configuration")
    return _mean_probs(config_means, w)


def ensemble_predict(
    configurations: Sequence[Sequence[RegionProbSet]],
    threshold: float = 0.5,
    coding: LabelCoding = DEFAULT_CODING,
    weights: Sequence[float] | None = None,
) -> LabelVolume:
    """Combine configurations and reconstruct a label volume."""
    combined = two_level_ensemble(configurations, weights)
    return regions_to_labels(combined, threshold, coding)
