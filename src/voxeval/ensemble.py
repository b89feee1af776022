"""Two-level averaging of region probability maps, then label reconstruction.

Models trained under one configuration are averaged first; the final map
is the mean over configuration means.  With unequal member counts this
differs from pooling all members into one mean: each configuration keeps
the same influence on the final prediction regardless of how many models
it contributed.

One piece of arithmetic serves both levels and every caller, on map tuples
of any length and extent: :func:`two_level_ensemble` and
:func:`average_probs` hand it each member's whole (WT, TC, ET) maps, and
the ``ensemble`` command one region's z-slab of every member of a case,
region after region and slab after slab.  Members stream: each is added
into float64 sums and dropped before the next is read.  A configuration's
sums start as its first member's maps plus 0.0, one cast-add that upcasts
float32 and integer maps exactly and turns -0.0 into 0.0 as adding them to
zeros did.  The first configuration's clipped mean, times its weight when
weights are given, is the ensemble's running sum, and each later
configuration's mean is added into it.  So one float64 map per region is
held while the first configuration is summed and two while a later one is,
whatever the member count: new maps laid out like the first member's, or
buffers the caller reuses, two for each slab of one region.
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


def _maps(items: Iterable[RegionProbSet], like: list, what: str):
    """The map triple of each probability set in ``items``, each set checked
    before its maps are given (an add would broadcast a smaller map).

    The first item is checked against ``like``, the ``[shape, spacing]`` of
    the first set read, as ``what``, or fills it when it is empty; each
    later item against it as "member <index>".  No set or map is held here
    while the next item is read.
    """
    count = 0
    for item in items:  # no enumerate: its cached tuple would keep the previous item alive
        if like:
            _check_like(item, *like, f"member {count}" if count else what)
        else:
            like += item.shape, item.spacing
        maps = item.p_wt, item.p_tc, item.p_et
        del item
        yield maps
        del maps
        count += 1


def _divide_clipped(sums: list[np.ndarray], divisor: float) -> None:
    for acc in sums:
        acc /= divisor
        # Rounding can push a mean of values in [0, 1] past the ends by one
        # ulp, which the constructor would reject.
        np.clip(acc, 0.0, 1.0, out=acc)


def _clipped_mean(tuples: Iterable[tuple], empty: str, out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """The clipped mean of each position's map over the map ``tuples``, as
    writeable float64 maps: ``out`` when given, else new maps laid out like
    the first tuple's.  ``tuples`` is consumed once; raises
    ``ValidationError(empty)`` when it holds none."""
    sums = None
    count = 0
    for maps in tuples:
        if sums is None:
            # One cast-add: float32 maps upcast exactly, and -0.0 becomes 0.0
            # as it did when the map was added to zeros.
            sums = [np.add(m, 0.0, dtype=np.float64, out=acc) for m, acc in zip(maps, out or (None,) * len(maps))]
        else:
            sums = [np.add(acc, m, out=acc) for acc, m in zip(sums, maps)]
        count += 1
        del maps  # the next tuple is read with none of this one held
    if sums is None:
        raise ValidationError(empty)
    _divide_clipped(sums, count)
    return sums


def _two_level(
    configurations: Iterable[Iterable[tuple]],
    w: np.ndarray | None = None,
    out: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """The clipped two-level mean of map tuples, one iterable of tuples per
    configuration, times the checked weights ``w`` when given.  Returns
    writeable float64 maps: the first half of ``out`` when buffers ``out``,
    two per map of a tuple, are given, the later configurations' means
    going to its second half."""
    configurations = iter(configurations)
    half = None if out is None else len(out) // 2
    total = None
    n = 0
    for members in configurations:
        if w is not None and (w.ndim != 1 or n >= w.size):
            n += 1 + sum(1 for _ in configurations)  # the count, for the message below
            break
        buffers = None if out is None else out[half:] if total is not None else out[:half]
        means = _clipped_mean(members, f"configuration {n} has no members", buffers)
        if w is not None and w[n] != 1.0:
            means = [np.multiply(m, w[n], out=m) for m in means]
        if total is None:
            total = means  # the first configuration's means are the running sums
        else:
            total = [np.add(acc, m, out=acc) for acc, m in zip(total, means)]
        del means  # freed before the next configuration's sums are made
        n += 1
    if w is not None and n and w.shape != (n,):
        raise ValidationError(f"expected one weight per configuration ({n}), got shape {w.shape}")
    if total is None:
        raise ValidationError("two_level_ensemble requires at least one configuration")
    _divide_clipped(total, n if w is None else float(w.sum()))
    return total


def _prob_set(maps: list[np.ndarray], spacing: Spacing) -> RegionProbSet:
    for m in maps:
        m.setflags(write=False)  # so the constructor keeps it without a copy
    return _ReadProbSet(*maps, spacing=spacing)


def average_probs(members: Iterable[RegionProbSet]) -> RegionProbSet:
    """Voxelwise arithmetic mean of probability sets, per region.

    All members must share shape and spacing.  ``members`` is consumed
    once, one member at a time, in order.
    """
    like: list = []
    means = _clipped_mean(_maps(members, like, ""), "average_probs requires at least one member")
    return _prob_set(means, like[1])


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
    like: list = []
    total = _two_level(
        (_maps(members, like, f"configuration {n}") for n, members in enumerate(configurations)), w
    )
    return _prob_set(total, like[1])


def ensemble_predict(
    configurations: Iterable[Iterable[RegionProbSet]],
    threshold: float = 0.5,
    coding: LabelCoding = DEFAULT_CODING,
    weights: Sequence[float] | None = None,
) -> LabelVolume:
    """Combine configurations and reconstruct a label volume."""
    combined = two_level_ensemble(configurations, weights)
    return regions_to_labels(combined, threshold, coding)
