"""Core data model for labelled tumour volumes and region masks.

A segmentation is stored as a 3-D integer label volume together with its
voxel spacing and a label coding that says which integer means what.  All
evaluation happens on the three nested BraTS regions derived from the labels:

* whole tumour (WT): every non-background voxel,
* tumour core (TC): necrosis plus enhancing tumour,
* enhancing tumour (ET): enhancing tumour only.

By construction ET is a subset of TC and TC is a subset of WT; the region
container enforces that nesting whenever masks are supplied directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Canonical region order used everywhere (tables, CSV files, rankings).
REGIONS = ("WT", "TC", "ET")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Return ``arr`` read-only in its memory order; a writeable ``arr`` is copied."""
    if arr.flags.writeable:
        arr = arr.copy(order="K")
        arr.setflags(write=False)
    return arr


def _check_probabilities(arr: np.ndarray, what: str) -> None:
    """Raise unless every value of ``arr`` lies in [0, 1]; NaN fails both bounds."""
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValidationError(
            f"{what} has non-finite values or values outside [0, 1]: "
            f"min={float(arr.min())}, max={float(arr.max())}"
        )


#: Bytes of labels compared at a time, so that every compare runs in cache.
_SLAB_BYTES = 256 * 1024

#: The box that selects a (0, 0, 0) array: what an all-background volume holds.
_EMPTY_BOX = (slice(0, 0),) * 3


def _extent(line: np.ndarray) -> slice:
    """The slice from the first to the last true entry of a bool ``line`` that has one."""
    idx = np.flatnonzero(line)
    return slice(int(idx[0]), int(idx[-1]) + 1)


class _TumourScan:
    """The label check and the tumour box of one 3-D array, fed slab by slab.

    The array is given in memory order, slowest-varying axis first: ``shape``
    is its shape so ordered, and :meth:`feed` takes its next slab of at most
    ``planes`` rows along that axis.  The rows and the plane of each slab
    that hold a voxel other than the background ``codes[0]`` are recorded,
    and the labels in the slab's own tumour box, the only place where a
    voxel can be other than background, are compared with ``codes``; a slab
    of background needs one compare.  With ``keep``, those labels are
    copied into :attr:`pieces`, so that the tumour's labels outlive the slabs.
    """

    def __init__(self, shape, planes: int, codes, keep: bool = False) -> None:
        self._tumour = np.empty((min(planes, shape[0]),) + tuple(shape[1:]), dtype=bool)
        self._rows = np.zeros(shape[0], dtype=bool)
        self._plane = np.zeros(shape[1:], dtype=bool)
        self._codes, self._start = codes, 0
        #: With ``keep``: ``(corner, labels)`` of each slab's tumour box, in memory order.
        self.pieces = [] if keep else None

    def feed(self, slab: np.ndarray) -> tuple[int, int, int] | None:
        """Scan the next rows; returns the memory-order index of the first
        voxel among them that holds none of the codes (NaN, 2.5), or None."""
        background, *codes = self._codes
        n, start = len(slab), self._start
        self._start += n
        tumour, rows = self._tumour[:n], self._rows[start : start + n]
        np.not_equal(slab, background, out=tumour)
        np.any(tumour, axis=(1, 2), out=rows)
        if not rows.any():
            return None
        plane = tumour.any(axis=0)
        self._plane |= plane
        box = (_extent(rows), _extent(plane.any(axis=1)), _extent(plane.any(axis=0)))
        labels, invalid = slab[box], tumour[box]  # the tumour mask is spent, so it holds the check
        for code in codes:
            invalid &= labels != code
        corner = (start + box[0].start, box[1].start, box[2].start)
        if invalid.any():  # every bad voxel lies in the box, so its first is the slab's
            return tuple(c + int(i) for c, i in zip(corner, np.argwhere(invalid)[0]))
        if self.pieces is not None:
            self.pieces.append((corner, labels.copy()))
        return None

    def box(self) -> tuple[slice, slice, slice]:
        """The box around the tumour fed so far, in memory order; ``_EMPTY_BOX`` for none."""
        if not self._rows.any():
            return _EMPTY_BOX
        return _extent(self._rows), _extent(self._plane.any(axis=1)), _extent(self._plane.any(axis=0))


def _bad_label(value, voxel, codes) -> str:
    """The message for a bad label ``value``; an integral float prints as an integer."""
    value = value.item()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return f"label value {value} at voxel {voxel} is not one of the configured codes {codes}"


def _tumour_box(arr: np.ndarray, codes) -> tuple[slice, slice, slice]:
    """The box around the voxels of 3-D ``arr`` that are not ``codes[0]``.

    :class:`_TumourScan` is fed slabs of about ``_SLAB_BYTES``, cut along the
    array's slowest-varying axis.  Raises on the first voxel in memory order
    (C order for a C-ordered array) that holds none of ``codes``.
    """
    axes = sorted(range(3), key=lambda axis: -abs(arr.strides[axis]))
    back = [axes.index(axis) for axis in range(3)]  # memory order back to the array's axes
    view = arr.transpose(axes)  # memory order, slowest-varying axis first
    step = max(1, _SLAB_BYTES // max(1, arr.itemsize * view.shape[1] * view.shape[2]))
    scan = _TumourScan(view.shape, step, codes)
    for start in range(0, view.shape[0], step):
        bad = scan.feed(view[start : start + step])
        if bad is not None:
            voxel = tuple(bad[axis] for axis in back)
            raise ValidationError(_bad_label(arr[voxel], voxel, codes))
    box = scan.box()
    return tuple(box[axis] for axis in back)


@dataclass(frozen=True)
class Spacing:
    """Physical voxel size in millimetres along each axis."""

    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("dx", self.dx), ("dy", self.dy), ("dz", self.dz)):
            value = float(value)
            if not np.isfinite(value) or value <= 0.0:
                raise ValidationError(
                    f"spacing component {name} must be a positive finite "
                    f"number, got {value!r}"
                )
            object.__setattr__(self, name, value)

    @property
    def voxel_volume(self) -> float:
        """Volume of a single voxel in cubic millimetres."""
        return self.dx * self.dy * self.dz

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.dx, self.dy, self.dz)


@dataclass(frozen=True)
class LabelCoding:
    """Integer label values used by a segmentation.

    Defaults follow the BraTS convention: 0 background, 1 necrotic core,
    2 peritumoural edema, 4 enhancing tumour.  Codes lie in [0, 2**31 - 1].
    """

    background: int = 0
    necrosis: int = 1
    edema: int = 2
    enhancing: int = 4

    def __post_init__(self) -> None:
        codes = self.codes
        for code in codes:
            if not isinstance(code, (int, np.integer)) or isinstance(code, bool):
                raise ValidationError(f"label code {code!r} is not an integer")
            if not 0 <= code <= np.iinfo(np.int32).max:
                raise ValidationError(f"label code {code} is outside [0, 2**31 - 1]")
        if len(set(codes)) != len(codes):
            raise ValidationError(f"label codes must be distinct, got {codes}")

    @property
    def codes(self) -> tuple[int, int, int, int]:
        return (self.background, self.necrosis, self.edema, self.enhancing)


DEFAULT_CODING = LabelCoding()


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """A 3-D integer segmentation with spacing and label coding.

    The voxel array is stored read-only in the caller's memory order (a
    writeable input is copied); operations that change labels return a new
    instance.  A code the array's dtype cannot hold never matches a voxel.
    The codes are checked in memory order (C order for a C-ordered array),
    and the first bad voxel met is reported; the check records the box
    around the non-background voxels, to which scoring crops (``_crop``).
    A volume that :func:`voxeval.io.read_label_volume` reads holds only
    that box's labels and builds ``data`` when it is first asked for.
    """

    data: np.ndarray
    spacing: Spacing
    coding: LabelCoding = DEFAULT_CODING

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValidationError(f"label volume must be 3-D, got shape {arr.shape}")
        if arr.dtype.kind not in "iu":
            raise ValidationError(
                f"label volume must have an integer dtype, got {arr.dtype}"
            )
        box = _tumour_box(arr, self.coding.codes)
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "_box", box)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def _crop(self, box: tuple[slice, slice, slice]) -> np.ndarray:
        """The labels in ``box``, which holds the volume's own box."""
        return self.data[box]


class _ReadLabelVolume(LabelVolume):
    """A label volume checked as its file was read, slab by slab.  It holds
    only the labels in each slab's own tumour box, as ``(corner, labels)``
    pieces that share no voxel, and builds each crop from them, and its
    whole array the first time ``data`` is asked for: read-only, F-ordered."""

    def __init__(self, shape, box, pieces, dtype, spacing: Spacing, coding: LabelCoding) -> None:
        for name, value in (("_shape", shape), ("_box", box), ("_pieces", pieces), ("_dtype", dtype),
                            ("spacing", spacing), ("coding", coding)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._shape

    @property
    def data(self) -> np.ndarray:
        if "_data" not in self.__dict__:
            object.__setattr__(self, "_data", self._crop(tuple(slice(0, n) for n in self._shape)))
        return self.__dict__["_data"]

    def _crop(self, box: tuple[slice, slice, slice]) -> np.ndarray:
        out = np.empty([s.stop - s.start for s in box], self._dtype, order="F")
        if sum(labels.size for _, labels in self._pieces) < out.size:
            out.fill(self.coding.background)  # a voxel is background, so its code fits the dtype
        for corner, labels in self._pieces:
            out[tuple(slice(c - s.start, c - s.start + n) for c, s, n in zip(corner, box, labels.shape))] = labels
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class RegionMaskSet:
    """Boolean masks for the three nested regions of one case."""

    wt: np.ndarray
    tc: np.ndarray
    et: np.ndarray
    spacing: Spacing

    def __post_init__(self) -> None:
        masks = {}
        shape = None
        for name in ("wt", "tc", "et"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 3:
                raise ValidationError(f"{name} mask must be 3-D, got shape {arr.shape}")
            if arr.dtype != np.bool_:
                arr = arr.astype(bool)
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValidationError(
                    f"region masks disagree on shape: {shape} vs {arr.shape}"
                )
            masks[name] = arr
        if np.any(masks["et"] & ~masks["tc"]):
            raise ValidationError("enhancing-tumour mask extends outside tumour core")
        if np.any(masks["tc"] & ~masks["wt"]):
            raise ValidationError("tumour-core mask extends outside whole tumour")
        for name, arr in masks.items():
            object.__setattr__(self, name, _freeze(arr))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.wt.shape  # type: ignore[return-value]

    def region(self, name: str) -> np.ndarray:
        """Return the mask for region ``name`` ("WT", "TC" or "ET")."""
        try:
            return {"WT": self.wt, "TC": self.tc, "ET": self.et}[name]
        except KeyError:
            raise ValidationError(f"unknown region {name!r}, expected one of {REGIONS}")


@dataclass(frozen=True, eq=False)
class RegionProbSet:
    """Per-region probability maps for one case, each valued in [0, 1].

    Float maps keep their dtype (float32 maps stay float32); other maps
    become float64.  Read-only maps are kept without a copy.
    """

    p_wt: np.ndarray
    p_tc: np.ndarray
    p_et: np.ndarray
    spacing: Spacing

    # Not a field: whether the constructor checks each map's range.
    _check_range = True

    def __post_init__(self) -> None:
        shape = None
        for name in ("p_wt", "p_tc", "p_et"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 3:
                raise ValidationError(f"{name} map must be 3-D, got shape {arr.shape}")
            if arr.dtype.kind != "f":
                arr = arr.astype(np.float64)
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValidationError(
                    f"probability maps disagree on shape: {shape} vs {arr.shape}"
                )
            if self._check_range:
                _check_probabilities(arr, f"{name} map")
            object.__setattr__(self, name, _freeze(arr))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.p_wt.shape  # type: ignore[return-value]

    def region(self, name: str) -> np.ndarray:
        try:
            return {"WT": self.p_wt, "TC": self.p_tc, "ET": self.p_et}[name]
        except KeyError:
            raise ValidationError(f"unknown region {name!r}, expected one of {REGIONS}")


class _ReadProbSet(RegionProbSet):
    """Maps whose range is already known, so the constructor does not check
    it again: read by :func:`voxeval.io.read_probability_volume`, which
    names the file, or clipped means of such maps."""

    _check_range = False


def labels_to_regions(volume: LabelVolume) -> RegionMaskSet:
    """Derive the three nested region masks from a label volume.

    WT collects every non-background voxel, TC necrosis plus enhancing,
    ET enhancing only.  The nesting invariant holds by construction.
    """
    data, coding = volume.data, volume.coding
    return RegionMaskSet(*(_region_mask(data, coding, name) for name in REGIONS), volume.spacing)


def _region_mask(data: np.ndarray, coding: LabelCoding, name: str) -> np.ndarray:
    """The mask of region ``name`` ("WT", "TC" or "ET") of labels ``data``."""
    mask = data != coding.background if name == "WT" else data == coding.enhancing
    if name == "TC":
        mask |= data == coding.necrosis
    mask.setflags(write=False)  # so a constructor keeps it without a copy
    return mask


def _label_dtype(coding: LabelCoding) -> type:
    """The dtype of labels thresholded from probabilities under ``coding``."""
    return np.uint8 if max(coding.codes) <= np.iinfo(np.uint8).max else np.int32


def _gate_labels(
    labels: np.ndarray, maps, threshold: float, coding: LabelCoding
) -> None:
    """Write into ``labels`` the labels of the region probability maps
    ``maps``, of the same extent and in WT, TC, ET order, gated from the
    outside in.  Each map is gated before the next is taken, so ``maps`` may
    fill one buffer again for each region."""
    # A float64 scalar, so that float32 maps are compared in float64: a
    # Python float would be compared in the map's dtype, and float32(0.7)
    # would pass a threshold of 0.7.
    threshold = np.float64(threshold)
    dtype = labels.dtype.type
    labels.fill(coding.background)
    fires = None
    for code, p in zip((coding.edema, coding.necrosis, coding.enhancing), maps):
        if fires is None:
            fires = p >= threshold
        else:
            fires &= p >= threshold
        np.copyto(labels, dtype(code), where=fires)


def regions_to_labels(
    probs: RegionProbSet,
    threshold: float = 0.5,
    coding: LabelCoding = DEFAULT_CODING,
) -> LabelVolume:
    """Threshold nested probability maps into a label volume.

    Decisions are gated from the outside in, which guarantees that the
    derived region masks nest: a voxel whose WT probability is below
    ``threshold`` is background no matter what the inner maps say; past the
    WT gate it is edema unless the TC map also fires, then necrosis unless
    the ET map fires too, and enhancing only when all three agree.

    Args:
        probs: per-region probability maps.
        threshold: decision threshold, must lie strictly inside (0, 1).
        coding: label coding for the output volume.

    Returns:
        A new :class:`LabelVolume` with the same shape and spacing.
    """
    threshold = float(threshold)
    if not (0.0 < threshold < 1.0):
        raise ValidationError(
            f"threshold must lie strictly between 0 and 1, got {threshold}"
        )
    labels = np.empty_like(probs.p_wt, dtype=_label_dtype(coding))
    _gate_labels(labels, (probs.p_wt, probs.p_tc, probs.p_et), threshold, coding)
    labels.setflags(write=False)  # so the constructor keeps it without a copy
    return LabelVolume(labels, probs.spacing, coding)


def binarize_regions(probs: RegionProbSet, threshold: float = 0.5) -> RegionMaskSet:
    """Threshold probability maps directly into nested region masks.

    Equivalent to ``labels_to_regions(regions_to_labels(probs, threshold))``;
    the hierarchical label assignment is what restores the nesting when the
    raw maps disagree (for example ET above threshold but TC below).
    """
    return labels_to_regions(regions_to_labels(probs, threshold))


def region_volume_mm3(mask: np.ndarray, spacing: Spacing) -> float:
    """Physical volume of a binary mask in cubic millimetres."""
    arr = np.asarray(mask)
    if arr.ndim != 3:
        raise ValidationError(f"mask must be 3-D, got shape {arr.shape}")
    if arr.dtype != np.bool_:
        arr = arr.astype(bool)
    return int(np.count_nonzero(arr)) * spacing.voxel_volume
