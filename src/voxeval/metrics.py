"""Per-case segmentation metrics: Dice, surface distances, HD95, soft Dice.

Scoring follows the BraTS convention for empty regions.  A region that is
empty in the reference and in the prediction scores the best possible
values (Dice 1, HD95 0); predicting voxels for a region the reference does
not contain scores the worst values (Dice 0, HD95 373.13).  A region the
reference contains but the prediction misses entirely is scored with the
same worst pair, since neither metric is otherwise defined there.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .aggregate import percentile
from .errors import ValidationError
from .volume import _EMPTY_BOX, REGIONS, LabelVolume, Spacing, _extent, _region_mask

# About the float64 elements (2 MB) that one chunk of a distance search
# keeps per array, so its memory does not grow with the tumour box.
_CHUNK = 1 << 18
_FLOAT_MAX = sys.float_info.max  # the bound of a finite HD95


class SpecialCase(str, Enum):
    """How a per-region score came about."""

    NONE = "none"
    BOTH_EMPTY = "both_empty"
    REF_EMPTY_PRED_NONEMPTY = "ref_empty_pred_nonempty"
    REF_NONEMPTY_PRED_EMPTY = "ref_nonempty_pred_empty"


def _scores_in_bounds(dice, hd95):
    """Whether Dice lies in [0, 1] and HD95 is finite (an int too) and
    nonnegative, for numbers or elementwise for arrays; NaN fails.  Plain
    operators, so that a pair of Python floats costs no array."""
    return (0 <= dice) & (dice <= 1) & (0 <= hd95) & (hd95 <= _FLOAT_MAX)


@dataclass(frozen=True)
class SpecialCasePolicy:
    """Score pairs substituted when a region is empty on either side."""

    worst_hd95: float = 373.13
    worst_dice: float = 0.0
    perfect_dice: float = 1.0
    perfect_hd95: float = 0.0

    def __post_init__(self) -> None:
        pairs = ((self.worst_dice, self.worst_hd95), (self.perfect_dice, self.perfect_hd95))
        try:
            valid = all(_scores_in_bounds(*pair) for pair in pairs)
        except TypeError:
            valid = False
        if not valid:
            raise ValidationError(f"special-case policy needs Dice in [0, 1] and a finite nonnegative HD95: {self}")


DEFAULT_POLICY = SpecialCasePolicy()


@dataclass(frozen=True)
class MetricRecord:
    """One region's scores for one case."""

    region: str
    dice: float
    hd95: float
    special_case: SpecialCase = SpecialCase.NONE

    def __post_init__(self) -> None:
        if self.region not in REGIONS:
            raise ValidationError(
                f"unknown region {self.region!r}, expected one of {REGIONS}"
            )


def _as_mask(arr, name: str) -> np.ndarray:
    out = np.asarray(arr)
    if out.ndim != 3:
        raise ValidationError(f"mask {name} must be 3-D, got shape {out.shape}")
    if out.dtype != np.bool_:
        out = out.astype(bool)
    return out


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValidationError(f"mask shapes differ: {a.shape} vs {b.shape}")


def dice(a, b) -> float:
    """Dice overlap 2|a∩b| / (|a|+|b|) of two binary masks.

    Counting and summation happen in exact integer arithmetic; the only
    floating-point step is the final division.  At least one mask must be
    nonempty: scoring of empty regions is a policy question handled by
    :func:`evaluate_case`, not a property of the overlap itself.
    """
    a = _as_mask(a, "a")
    b = _as_mask(b, "b")
    _check_same_shape(a, b)
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na == 0 and nb == 0:
        raise ValidationError(
            "dice is undefined for two empty masks; use evaluate_case, which "
            "applies the empty-region scoring policy"
        )
    return _dice(a, b, na, nb)


def _dice(a: np.ndarray, b: np.ndarray, na: int, nb: int) -> float:
    """Dice of same-shape bool masks holding ``na`` and ``nb`` voxels, not both 0."""
    return 2 * int(np.count_nonzero(a & b)) / (na + nb)


def _union_bbox(a: np.ndarray, b: np.ndarray) -> tuple[slice, slice, slice]:
    """The smallest box holding every true voxel of ``a`` and ``b``.

    It is read from projections of one union mask: onto the plane of the
    last two axes, then onto the first axis within that plane's box.  Two
    all-false masks give the empty box, which selects a (0, 0, 0) array.
    """
    union = a | b
    plane = union.any(axis=0)
    if not plane.any():
        return _EMPTY_BOX
    y, z = _extent(plane.any(axis=1)), _extent(plane.any(axis=0))
    return _extent(union[:, y, z].any(axis=(1, 2))), y, z


def _join_boxes(a: tuple[slice, ...], b: tuple[slice, ...]) -> tuple[slice, ...]:
    """The smallest box holding boxes ``a`` and ``b``; an empty box holds nothing."""
    if a[0].start == a[0].stop:
        return b
    if b[0].start == b[0].stop:
        return a
    return tuple(slice(min(p.start, q.start), max(p.stop, q.stop)) for p, q in zip(a, b))


def _surface(mask: np.ndarray) -> np.ndarray:
    """Voxels of ``mask`` with at least one face neighbour outside the mask.

    The neighbours are read from six slices of the mask padded with False,
    so the array edge counts as outside and a mask voxel on the volume
    boundary is always surface.  The padded copy is C-contiguous whatever
    the mask's memory order, and so is the result.
    """
    padded = np.zeros(tuple(n + 2 for n in mask.shape), dtype=bool)
    inner = padded[1:-1, 1:-1, 1:-1]
    inner[...] = mask
    interior = inner.copy()
    for axis, n in enumerate(mask.shape):
        for start in (0, 2):
            interior &= padded[
                tuple(slice(start, start + n) if i == axis else slice(1, -1) for i in range(3))
            ]
    return np.not_equal(inner, interior, out=interior)


def surface_distances(a, b, spacing: Spacing) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-surface distances between two nonempty masks, both ways.

    The surface of a mask consists of its voxels that have at least one
    face neighbour (6-connectivity) outside the mask, where the array edge
    counts as outside.  Distances are Euclidean between voxel centres in
    millimetres.

    Args:
        a, b: binary masks of identical shape, both nonempty.
        spacing: physical voxel size.

    Returns:
        Two 1-D float arrays: distances from each surface voxel of ``a``
        to the nearest surface voxel of ``b``, and vice versa.
    """
    a = _as_mask(a, "a")
    b = _as_mask(b, "b")
    _check_same_shape(a, b)
    return _distances(*_surfaces(a, b), spacing)


def _surfaces(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The surfaces of same-shape bool masks ``a`` and ``b``, cropped to
    their union box.  Outside the box both masks are background, and the
    surface treats the cut edge exactly like background, so surfaces and
    distances are unchanged."""
    box = _union_bbox(a, b)
    return _surface(a[box]), _surface(b[box])


def _distances(surf_a: np.ndarray, surf_b: np.ndarray, spacing: Spacing) -> tuple[np.ndarray, np.ndarray]:
    """The distances of :func:`surface_distances`, from the masks' surfaces."""
    # A nonempty mask always has surface voxels, so these are the emptiness
    # checks.  flatnonzero gives np.nonzero's C order about ten times faster.
    at_a = np.unravel_index(np.flatnonzero(surf_a), surf_a.shape)
    if not at_a[0].size:
        raise ValidationError("mask a is empty; surface distances need nonempty masks")
    at_b = np.unravel_index(np.flatnonzero(surf_b), surf_b.shape)
    if not at_b[0].size:
        raise ValidationError("mask b is empty; surface distances need nonempty masks")
    sampling = spacing.as_tuple()
    return _distances_to(surf_b, at_a, sampling), _distances_to(surf_a, at_b, sampling)


def _distances_to(surface: np.ndarray, at: tuple[np.ndarray, ...], sampling) -> np.ndarray:
    """Distances from the voxels ``at`` to their nearest voxel of ``surface``.

    ``at`` lists voxels in C order, as ``np.nonzero`` gives them.  Equal bit
    for bit to ``distance_transform_edt(~surface, sampling)[at]``: each
    distance is the square root of the least ((x·s0)² + (y·s1)²) + (z·s2)²
    over the surface voxels, for offsets x, y, z and spacings s0, s1, s2 in
    float64, with the terms added in that order.  Rounding is monotone in
    each operand, so the least sum can be taken one axis at a time, as in
    Felzenszwalb & Huttenlocher's separable distance transform (Theory of
    Computing 8, 2012), and only at the voxels ``at``:

    1. for each column along axis 0, the step to its nearest surface voxel
       (:func:`_axis0_steps`);
    2. for each (axis-0, axis-1) line that holds a voxel of ``at``, the least
       (x·s0)² + (y·s1)² over the axis-1 planes at offsets 0, ±1, ±2, ...;
    3. for each voxel, the least sum over axis 2.

    After the planes at offsets up to ±(e-1), no further plane can give a
    voxel a sum below (e·s1)², so a voxel whose least sum is at most that is
    done; and only axis-2 offsets whose square is at most that bound can
    decide it.  The check runs after each of the offsets 0 to 4, then after
    blocks a quarter as long as the offset reached, so a voxel far from the
    surface costs few checks.  The one box-sized array holds the steps of
    step 1, mostly uint16; float arrays hold one chunk of lines.
    """
    n0, n1, n2 = surface.shape
    # (i·s)² for each step i along an axis, rounded as the distances are.
    sq0 = np.square(np.arange(2 * n0) * sampling[0])
    sq0[n0:] = np.inf  # a step of n0 or more: no surface voxel in the column
    sq1 = np.square(np.arange(n1 + 1) * sampling[1])
    sq1[n1] = np.inf  # an offset of n1: every plane has been searched
    sq2 = np.square(np.arange(n2) * sampling[2])
    rows = _axis0_steps(surface).reshape(n0 * n1, n2)
    # Positions from -n to 2n - 1, stored from index 0, clipped into [0, n).
    # A plane or an axis-2 offset past the box edge repeats the edge one,
    # whose sum with its larger square cannot undercut its own.
    edge1 = np.arange(-n1, 2 * n1).clip(0, n1 - 1)
    edge2 = np.arange(-n2, 2 * n2).clip(0, n2 - 1)
    line = at[0].astype(np.intp) * n1 + at[1]  # sorted, since ``at`` is
    first = _run_starts(line)
    out = np.empty(len(line))
    # Chunks of whole lines, each of at least _CHUNK // n2 voxels but the last.
    starts = np.append(np.flatnonzero(first), len(line))
    q0 = 0
    while q0 < len(line):
        q1 = int(starts[np.searchsorted(starts, min(q0 + max(1, _CHUNK // n2), len(line)))])
        todo = np.arange(q0, q1)
        lines = line[q0:q1][first[q0:q1]]
        qline = np.cumsum(first[q0:q1]) - 1
        # Axis-1 and axis-2 positions in the numbering of edge1 and edge2.
        qk = at[2][q0:q1] + n2
        lb = lines % n1 + n1
        base = lines - lines % n1  # the line's row in plane 0
        best = np.full((len(lines), n2), np.inf)
        d = 0
        while True:
            stop = min(max(d + 1, d + d // 4), n1)
            for e in range(d, stop):
                for j in (lb - e, lb + e) if e else (lb,):
                    plane = sq0.take(rows.take(base + edge1.take(j), axis=0))
                    plane += sq1[e]
                    np.minimum(best, plane, out=best)
            d, bound = stop, sq1[stop]
            w = int(np.searchsorted(sq2, bound, side="right")) - 1
            offsets = np.arange(-w, w + 1)
            at_k = edge2.take(qk[:, None] + offsets)
            at_k += qline[:, None] * n2
            least = (best.take(at_k) + sq2[np.abs(offsets)]).min(axis=1)
            done = least <= bound
            out[todo[done]] = least[done]
            if done.all():
                break
            keep = ~done
            todo, qline, qk = todo[keep], qline[keep], qk[keep]
            left = _run_starts(qline)
            kept = qline[left]
            qline = np.cumsum(left) - 1
            best, lb, base = best[kept], lb[kept], base[kept]
        q0 = q1
    return np.sqrt(out, out=out)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each element of the sorted ``keys`` starts a run of equal keys."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _axis0_steps(surface: np.ndarray) -> np.ndarray:
    """For every voxel, the axis-0 step to the nearest surface voxel of its
    column; n0 or more, below 2·n0, where the column holds none.

    Two passes over the axis-0 planes: the forward step from the last
    surface voxel at or before each plane, then the least of that and the
    backward step.  A plane at a time keeps the passes in cache.  The
    backward pass forms steps up to 2·n0, so they are stored as uint16
    while that fits, and as int32 beyond.
    """
    n0 = len(surface)
    dtype = np.uint16 if 2 * n0 <= np.iinfo(np.uint16).max else np.int32
    steps = np.empty(surface.shape, dtype=dtype)
    steps[0] = n0
    np.copyto(steps[0], 0, where=surface[0])
    for i in range(1, n0):
        np.add(steps[i - 1], 1, out=steps[i])
        np.copyto(steps[i], 0, where=surface[i])
    after = np.empty_like(steps[0])
    for i in range(n0 - 2, -1, -1):
        np.add(steps[i + 1], 1, out=after)
        np.minimum(steps[i], after, out=steps[i])
    return steps


def hd95(a, b, spacing: Spacing) -> float:
    """Symmetric 95th-percentile Hausdorff distance in millimetres.

    Computed as the maximum of the two directed 95th percentiles of
    nearest-surface distances, with the shared linear-interpolation
    percentile.  Both masks must be nonempty; empty regions are scored
    by :func:`evaluate_case`.
    """
    return _hd95(*surface_distances(a, b, spacing))


def _hd95(d_ab: np.ndarray, d_ba: np.ndarray) -> float:
    """The larger of the two directed 95th percentiles of distances."""
    return max(percentile(d_ab, 95.0), percentile(d_ba, 95.0))


def check_pair(ref: LabelVolume, pred: LabelVolume) -> None:
    """Raise :class:`ValidationError` unless two volumes can be compared.

    They must share shape, spacing and label coding.
    """
    if ref.shape != pred.shape:
        raise ValidationError(
            f"reference and prediction shapes differ: {ref.shape} vs {pred.shape}"
        )
    if ref.spacing != pred.spacing:
        raise ValidationError(
            f"reference and prediction spacings differ: "
            f"{ref.spacing.as_tuple()} vs {pred.spacing.as_tuple()}"
        )
    if ref.coding != pred.coding:
        raise ValidationError("reference and prediction use different label codings")


def empty_region_record(
    name: str, ref_empty: bool, pred_empty: bool, policy: SpecialCasePolicy
) -> MetricRecord | None:
    """The policy's record for a region that is empty on either side.

    Both empty scores the perfect pair; exactly one side empty scores the
    worst pair, tagged with which side was empty.  Returns None when both
    sides are nonempty, so the region needs Dice and HD95.
    """
    if ref_empty and pred_empty:
        return MetricRecord(
            name, policy.perfect_dice, policy.perfect_hd95, SpecialCase.BOTH_EMPTY
        )
    if ref_empty:
        return MetricRecord(
            name, policy.worst_dice, policy.worst_hd95, SpecialCase.REF_EMPTY_PRED_NONEMPTY
        )
    if pred_empty:
        return MetricRecord(
            name, policy.worst_dice, policy.worst_hd95, SpecialCase.REF_NONEMPTY_PRED_EMPTY
        )
    return None


def score_region(
    name: str,
    mask_ref: np.ndarray,
    mask_pred: np.ndarray,
    spacing: Spacing,
    policy: SpecialCasePolicy = DEFAULT_POLICY,
) -> MetricRecord:
    """Score one region of one case: the empty-region rule, else Dice and HD95.

    The masks are bool arrays of one shape, as :func:`evaluate_case` and the
    threshold sweep derive them.  Once their counts, their Dice and their
    two surfaces are known, the masks are let go, so a caller that keeps
    no reference to them has them freed before the distance search.
    """
    na = int(np.count_nonzero(mask_ref))
    nb = int(np.count_nonzero(mask_pred))
    record = empty_region_record(name, na == 0, nb == 0, policy)
    if record is not None:
        return record
    overlap = _dice(mask_ref, mask_pred, na, nb)
    surfaces = _surfaces(mask_ref, mask_pred)
    del mask_ref, mask_pred
    return MetricRecord(name, overlap, _hd95(*_distances(*surfaces, spacing)), SpecialCase.NONE)


def evaluate_case(
    ref: LabelVolume,
    pred: LabelVolume,
    policy: SpecialCasePolicy = DEFAULT_POLICY,
) -> tuple[MetricRecord, MetricRecord, MetricRecord]:
    """Score a prediction against its reference on WT, TC and ET.

    Each region is scored by :func:`score_region`: if both masks are empty
    the policy's perfect pair is recorded; if exactly one side is empty the
    worst pair is recorded, tagged with which side was empty; otherwise
    Dice and HD95 are computed from the masks.

    Both volumes are cropped once, to the box around the non-background
    voxels of either; each volume's box was recorded when its labels were
    checked.  A region's two masks are derived from the crops only when
    that region is scored, and are handed to :func:`score_region`, which
    drops them before its distance search, so at most one region's masks
    are held at a time.  The crop is exact:
    outside the box both volumes are background, so every region is empty
    there on both sides and no count changes; the surface treats the cut
    face like the background voxels beyond it, so no
    surface changes; and :func:`surface_distances` crops each region to its
    own union box within this one.  Two all-background volumes give the
    empty box, whose empty masks score the both-empty pair.

    Args:
        ref: reference segmentation.
        pred: predicted segmentation; shape, spacing and coding must match.
        policy: substitute scores for empty-region cases.

    Returns:
        Three :class:`MetricRecord` in canonical region order (WT, TC, ET).
    """
    check_pair(ref, pred)
    coding = ref.coding
    box = _join_boxes(ref._box, pred._box)
    ref_labels, pred_labels = ref._crop(box), pred._crop(box)
    return tuple(  # type: ignore[return-value]
        score_region(name, _region_mask(ref_labels, coding, name), _region_mask(pred_labels, coding, name),
                     ref.spacing, policy)
        for name in REGIONS
    )


def soft_dice(probs, refs, mode: str = "sample", smooth: float = 1e-5) -> float:
    """Forward-value soft Dice of a batch of probability maps.

    Per region the soft Dice is (2 * sum(p * g) + s) / (sum(p) + sum(g) + s)
    with smoothing s.  ``mode="sample"`` evaluates the formula per sample
    and region and returns the mean.  ``mode="batch"`` takes the sums over
    the whole batch per region before dividing, treating the batch as one
    large sample; a tiny lesion missed in one sample is then overshadowed
    by the other samples instead of zeroing out its own term.

    Args:
        probs: sequence of :class:`RegionProbSet`, one per sample.
        refs: sequence of :class:`RegionMaskSet` of equal length.
        mode: "sample" or "batch".
        smooth: smoothing constant s.

    Returns:
        The scalar soft Dice value (no gradients).
    """
    if mode not in ("sample", "batch"):
        raise ValidationError(f"mode must be 'sample' or 'batch', got {mode!r}")
    probs = list(probs)
    refs = list(refs)
    if not probs:
        raise ValidationError("soft_dice requires a nonempty batch")
    if len(probs) != len(refs):
        raise ValidationError(
            f"batch lengths differ: {len(probs)} probability sets "
            f"vs {len(refs)} references"
        )
    for i, (p, g) in enumerate(zip(probs, refs)):
        if p.shape != g.shape:
            raise ValidationError(
                f"sample {i}: probability shape {p.shape} does not match "
                f"reference shape {g.shape}"
            )

    sums = []  # (overlap, total) per sample and region
    for p, g in zip(probs, refs):
        for name in REGIONS:
            pm = np.asarray(p.region(name), dtype=np.float64)
            gm = g.region(name)
            sums.append((float(np.sum(pm, where=gm)), float(pm.sum()) + int(np.count_nonzero(gm))))
    sums = np.array(sums).reshape(len(probs), len(REGIONS), 2)
    if mode == "batch":
        sums = np.cumsum(sums, axis=0)[-1]  # summed over the samples in sample order
    return float(np.mean((2.0 * sums[..., 0] + smooth) / (sums[..., 1] + smooth)))
