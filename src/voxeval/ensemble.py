"""Two-level averaging of region probability maps, then label reconstruction.

Models trained under one configuration are averaged first; the final map
is the mean over configuration means.  With unequal member counts this
differs from pooling all members into one mean: each configuration keeps
the same influence on the final prediction regardless of how many models
it contributed.

Members are streamed: each is added into float64 accumulators laid out
like its maps and dropped before the next is read, so a two-level mean
holds one member and six accumulators whatever the member count.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .volume import DEFAULT_CODING, LabelCoding, LabelVolume, RegionProbSet, Spacing, regions_to_labels
from .volume import _ReadProbSet


def _check_like(member: RegionProbSet, shape: tuple, spacing: Spacing, what: str) -> None:
    if member.shape != shape:
        raise ValidationError(f"{what} has shape {member.shape}, expected {shape}")
    if member.spacing != spacing:
        raise ValidationError(
            f"{what} has spacing {member.spacing.as_tuple()}, expected {spacing.as_tuple()}"
        )


def _mean_maps(
    items: Iterable[RegionProbSet], empty: str, what: str, weights: np.ndarray | None = None
) -> RegionProbSet:
    """The clipped mean of each region's map over ``items``, weighted by
    ``weights`` (one per item) when given, as float64 maps laid out like the
    first item's and kept without a copy.

    ``items`` is consumed once.  Each later item is checked against the
    first, as "<what> <index>", before it is added (an add would broadcast
    a smaller map).  Raises ``ValidationError(empty)`` when there is no item.
    """
    sums = None
    count = 0
    for item in items:  # no enumerate: its cached tuple would keep the previous item alive
        if sums is None:
            shape, spacing = item.shape, item.spacing
            sums = [np.zeros_like(m, dtype=np.float64) for m in (item.p_wt, item.p_tc, item.p_et)]
        else:
            _check_like(item, shape, spacing, f"{what} {count}")
        weight = 1.0 if weights is None else weights[count]
        for acc, m in zip(sums, (item.p_wt, item.p_tc, item.p_et)):
            np.add(acc, m if weight == 1.0 else m * weight, out=acc)  # float32 maps upcast exactly
        count += 1
        del item, m  # m holds its ET map: the next item is read with all of this one freed
    if sums is None:
        raise ValidationError(empty)
    for acc in sums:
        acc /= count if weights is None else float(weights.sum())
        # Rounding can push a mean of values in [0, 1] past the ends by one
        # ulp, which the constructor would reject.
        np.clip(acc, 0.0, 1.0, out=acc)
        acc.setflags(write=False)  # so the constructor keeps it without a copy
    return _ReadProbSet(*sums, spacing=spacing)


def average_probs(members: Iterable[RegionProbSet]) -> RegionProbSet:
    """Voxelwise arithmetic mean of probability sets, per region.

    All members must share shape and spacing.  ``members`` is consumed
    once, one member at a time, in order.
    """
    return _mean_maps(members, "average_probs requires at least one member", "member")


def two_level_ensemble(
    configurations: Iterable[Iterable[RegionProbSet]],
    weights: Sequence[float] | None = None,
) -> RegionProbSet:
    """Mean over configurations of each configuration's member mean.

    Args:
        configurations: one nonempty iterable of probability sets per
            configuration; shapes and spacings must agree throughout.  Each
            level is consumed once, in order, and a member is dropped before
            the next is read, so generators of loaded members stream.
        weights: optional per-configuration weights (nonnegative, not all
            zero); defaults to uniform, the equal-influence rule.

    Returns:
        The combined probability maps.  With unequal member counts this is
        *not* the pooled mean over all members: [[0.2]] and [[0.4, 0.8]]
        combine to 0.4, not 0.4667.
    """
    w = None if weights is None else np.asarray(list(weights), dtype=np.float64)
    if w is not None:  # before any member is read; the count waits for the iterable
        if not np.isfinite(w).all() or (w < 0.0).any():
            raise ValidationError("weights must be finite and nonnegative")
        if w.size and not w.any():
            raise ValidationError("weights must not all be zero")
    configurations = iter(configurations)

    def means():
        n = 0
        for members in configurations:
            if w is not None and (w.ndim != 1 or n >= w.size):
                n += 1 + sum(1 for _ in configurations)  # the count, for the message below
                break
            yield _mean_maps(members, f"configuration {n} has no members", "member")
            n += 1
        if w is not None and n and w.shape != (n,):
            raise ValidationError(f"expected one weight per configuration ({n}), got shape {w.shape}")

    return _mean_maps(means(), "two_level_ensemble requires at least one configuration", "configuration", w)


def ensemble_predict(
    configurations: Iterable[Iterable[RegionProbSet]],
    threshold: float = 0.5,
    coding: LabelCoding = DEFAULT_CODING,
    weights: Sequence[float] | None = None,
) -> LabelVolume:
    """Combine configurations and reconstruct a label volume."""
    combined = two_level_ensemble(configurations, weights)
    return regions_to_labels(combined, threshold, coding)
