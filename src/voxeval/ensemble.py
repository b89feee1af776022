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
    members: Iterable[RegionProbSet], empty: str, like: tuple | None = None, what: str = ""
) -> tuple[list[np.ndarray], tuple]:
    """The clipped mean of each region's map over ``members``, as writeable
    float64 arrays laid out like the first member's, and that member's
    ``(shape, spacing)``.

    ``members`` is consumed once.  Each member is checked before it is
    added (an add would broadcast a smaller map): the first against
    ``like`` as ``what``, when given, and every later one against the first.
    Raises ``ValidationError(empty)`` when there is no member.
    """
    sums = first = None
    count = 0
    for member in members:  # no enumerate: its cached tuple would keep the previous member alive
        if first is None:
            if like is not None:
                _check_like(member, *like, what)
            first = (member.shape, member.spacing)
            sums = [np.zeros_like(m, dtype=np.float64) for m in (member.p_wt, member.p_tc, member.p_et)]
        else:
            _check_like(member, *first, f"member {count}")
        for acc, m in zip(sums, (member.p_wt, member.p_tc, member.p_et)):
            np.add(acc, m, out=acc)  # float32 maps upcast exactly
        count += 1
        del member  # so the next member is read with this one freed
    if first is None:
        raise ValidationError(empty)
    for acc in sums:
        acc /= count
        # Rounding can push a mean of values in [0, 1] past the ends by one
        # ulp, which the constructor would reject.
        np.clip(acc, 0.0, 1.0, out=acc)
    return sums, first


def _prob_set(maps: list[np.ndarray], spacing: Spacing) -> RegionProbSet:
    for m in maps:
        m.setflags(write=False)  # so the constructor keeps it without a copy
    return _ReadProbSet(*maps, spacing=spacing)


def average_probs(members: Iterable[RegionProbSet]) -> RegionProbSet:
    """Voxelwise arithmetic mean of probability sets, per region.

    All members must share shape and spacing.  ``members`` is consumed
    once, one member at a time, in order.
    """
    maps, (_, spacing) = _mean_maps(members, "average_probs requires at least one member")
    return _prob_set(maps, spacing)


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
    sums = like = None
    n = 0
    for members in configurations:
        if w is not None and (w.ndim != 1 or n >= w.size):
            n += 1 + sum(1 for _ in configurations)  # the count, for the message below
            break
        maps, first = _mean_maps(members, f"configuration {n} has no members", like, f"configuration {n}")
        if sums is None:
            like = first
            sums = [np.zeros_like(m) for m in maps]
        weight = 1.0 if w is None else w[n]
        for acc, m in zip(sums, maps):
            if weight != 1.0:
                m *= weight
            np.add(acc, m, out=acc)
        n += 1
        del maps  # so the next configuration's sums are allocated with these freed
    if n == 0:
        raise ValidationError("two_level_ensemble requires at least one configuration")
    if w is not None and w.shape != (n,):
        raise ValidationError(f"expected one weight per configuration ({n}), got shape {w.shape}")
    total = n if w is None else float(w.sum())
    for acc in sums:
        acc /= total
        np.clip(acc, 0.0, 1.0, out=acc)
    return _prob_set(sums, like[1])


def ensemble_predict(
    configurations: Iterable[Iterable[RegionProbSet]],
    threshold: float = 0.5,
    coding: LabelCoding = DEFAULT_CODING,
    weights: Sequence[float] | None = None,
) -> LabelVolume:
    """Combine configurations and reconstruct a label volume."""
    combined = two_level_ensemble(configurations, weights)
    return regions_to_labels(combined, threshold, coding)
