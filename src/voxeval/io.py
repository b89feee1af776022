"""Volume file I/O: a NIfTI-1 subset.

The NIfTI-1 support is deliberately narrow: single-file .nii or .nii.gz,
3-D only, five datatypes, header extensions skipped, orientation fields
ignored except the voxel spacing in pixdim.  Evaluation only needs voxel
grids and spacing, and reference and prediction grids must match exactly
anyway.  Files are written byte-exactly: 348-byte little-endian header,
vox_offset 352, magic "n+1\\0", gzip applied iff the name ends in ".nii.gz"
(with zeroed mtime so identical volumes give identical bytes).  Suffixes
match case-insensitively, and every file is written atomically.

Files are read through an open handle, a ``.nii.gz`` inflated 256 KiB at
a time.  Every reader turns payload bytes into voxels through one step,
:meth:`_VolumeStream.slab`: a run of z-planes (the slowest axis), swapped
to native byte order and scaled.  :func:`read_volume` takes all the planes
as one slab.  :class:`ProbabilityMap` reads a map's header on opening and
then its slabs in file order, so that many maps can be stepped together
without any of them being whole.  :func:`read_label_volume` reads a label
file the same way and keeps only the labels in its tumour box.

A file is read once, and each fault is raised where the read meets it:
the header's (its scaling included) on opening, then the payload's in
file order, z slowest.  A bad label names its voxel, and a probability
map out of range the min and max of the slab that holds it.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .volume import (
    _SLAB_BYTES,
    DEFAULT_CODING,
    LabelCoding,
    LabelVolume,
    Spacing,
    _bad_label,
    _check_probabilities,
    _ReadLabelVolume,
    _TumourScan,
)

_HEADER_SIZE = 348
_VOX_OFFSET = 352
_MAGIC_SINGLE = b"n+1\0"
_MAGIC_PAIR = b"ni1\0"

#: datatype tag -> (NIfTI datatype code, bits per voxel, numpy dtype)
_DTYPES = {
    "uint8": (2, 8, np.dtype(np.uint8)),
    "int16": (4, 16, np.dtype(np.int16)),
    "int32": (8, 32, np.dtype(np.int32)),
    "float32": (16, 32, np.dtype(np.float32)),
    "float64": (64, 64, np.dtype(np.float64)),
}
_CODE_TO_TAG = {code: tag for tag, (code, _, _) in _DTYPES.items()}

#: Volume file suffixes, matched against the lower-cased file name.
VOLUME_SUFFIXES = (".nii", ".nii.gz")


def volume_suffix(path) -> str:
    """Return the volume format of ``path``: ".nii" or ".nii.gz"."""
    name = Path(path).name.lower()
    for suffix in VOLUME_SUFFIXES:
        if name.endswith(suffix):
            return suffix
    raise FormatError(
        f"{path}: unsupported file extension, expected one of {', '.join(VOLUME_SUFFIXES)}"
    )


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` so that no partial file is ever seen there.

    The bytes go to a temporary file in the target's directory, created with
    mode 0o666 less the umask as ``open()`` would, which is then renamed over
    ``path``.  On any failure the temporary file is removed and ``path``
    keeps its previous contents.  Nothing is fsynced: this guards against
    crashes of the program, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f"tmp{os.urandom(6).hex()}.tmp")  # fixed length: fits any target name
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class VolumeHeader:
    """Shape, datatype, spacing and value scaling of a stored volume: its
    voxels are the stored values times ``slope`` plus ``intercept``, a pair
    kept as float32 fields hold it, and finite when the header scales."""

    dims: tuple[int, int, int]
    dtype: str
    spacing: Spacing
    slope: float = 1.0
    intercept: float = 0.0

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValidationError(f"dims must be 3 positive integers, got {self.dims}")
        if self.dtype not in _DTYPES:
            raise ValidationError(
                f"unsupported datatype {self.dtype!r}, expected one of "
                f"{sorted(_DTYPES)}"
            )
        object.__setattr__(self, "dims", dims)
        with np.errstate(over="ignore"):  # a pair past float32's range is infinite, as stored
            slope, intercept = map(float, np.float32([self.slope, self.intercept]))
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        if self.scaling is not None and not np.isfinite(self.scaling).all():
            raise ValidationError(f"non-finite scaling scl_slope {self.slope}, scl_inter {self.intercept}")

    @property
    def scaling(self) -> tuple[float, float] | None:
        """``(slope, intercept)``, or None when there is no scaling: a zero slope, or the pair 1, 0."""
        scales = self.slope != 0.0 and (self.slope, self.intercept) != (1.0, 0.0)
        return (self.slope, self.intercept) if scales else None


#: Bytes inflated per zlib call, and compressed bytes read per file read.
_CHUNK = 256 * 1024

#: Deflate's largest expansion, in bytes out per byte in: a ``.nii.gz``
#: header that declares more than its stream can hold is refused unallocated.
_MAX_INFLATE = 1032


class _Inflater:
    """A gzip stream read through ``read(n)`` and inflated on demand, at most
    ``_CHUNK`` bytes a step, so a caller can take it a slab at a time.

    Members in a row are one stream, and zero padding between and after them
    is skipped, as Python's ``gzip`` module reads them.  zlib checks each
    member's header (refusing reserved FLG bits, as RFC 1952 asks), CRC-32
    and length; its errors are a :class:`FormatError`.
    """

    def __init__(self, path: Path, read) -> None:
        self._path, self._read = path, read
        self._raw = read(_CHUNK)  # compressed bytes not yet given to zlib
        self._member = None

    def fill(self, view) -> int:
        """Inflate the stream's next bytes into ``view``; returns how many,
        fewer than ``len(view)`` only where the stream ends."""
        view = memoryview(view).cast("B")
        filled, raw, member = 0, self._raw, self._member
        while filled < len(view):
            if member is not None and member.eof:  # skip padding up to the next member
                raw = raw.lstrip(b"\0")
                while not raw and (raw := self._read(_CHUNK)):
                    raw = raw.lstrip(b"\0")
            if member is None or member.eof:
                if not raw:
                    break
                member = zlib.decompressobj(31)
            elif not raw:
                raw = self._read(_CHUNK)
            try:
                out = member.decompress(raw, min(_CHUNK, len(view) - filled))
            except zlib.error as exc:
                raise FormatError(f"{self._path}: not a valid gzip stream ({exc})") from None
            if not (out or raw or member.eof):  # no input left, and none taken
                raise FormatError(
                    f"{self._path}: not a valid gzip stream "
                    "(Compressed file ended before the end-of-stream marker was reached)"
                )
            view[filled : filled + len(out)] = out
            filled += len(out)
            raw = member.unused_data if member.eof else member.unconsumed_tail
        self._raw, self._member = raw, member
        return filled


class _VolumeStream:
    """A NIfTI-1 file opened for reading: its header, parsed and checked on
    opening, its :attr:`scaling` included, then its payload read in file
    order by :meth:`slab`, the one place where bytes become voxels.

    The payload's size is checked before any of it is read: a ``.nii``
    against the file's size, and a ``.nii.gz`` against the most its stream
    can inflate to.  A ``.nii.gz`` stream that ends early is seen where it
    ends, and one that holds more, or whose trailer is bad, by
    :meth:`finish`.  Every fault is a :class:`FormatError` naming the file.
    Used as a context manager, the stream closes the file on exit.
    """

    def __init__(self, path) -> None:
        self.path = path = Path(path)
        gzipped = volume_suffix(path) == ".nii.gz"
        self._fh = open(path, "rb")
        try:
            self._parse(gzipped)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _parse(self, gzipped: bool) -> None:
        path, fh = self.path, self._fh
        size = os.fstat(fh.fileno()).st_size
        self._fill = _Inflater(path, fh.read).fill if gzipped else fh.readinto
        head = bytearray(_HEADER_SIZE)
        self._held = self._fill(head)
        if self._held < _HEADER_SIZE:
            raise FormatError(f"{path}: truncated header, {self._held} bytes < {_HEADER_SIZE}")
        for order in ("<", ">"):
            if struct.unpack_from(order + "i", head, 0)[0] == _HEADER_SIZE:
                break
        else:
            raise FormatError(f"{path}: not a NIfTI-1 file (sizeof_hdr differs from 348)")

        magic = head[344:348]
        if magic == _MAGIC_PAIR:
            raise FormatError(
                f"{path}: two-file NIfTI (.hdr/.img pair) is not supported, "
                "only single-file volumes with magic 'n+1'"
            )
        if magic != _MAGIC_SINGLE:
            raise FormatError(f"{path}: bad NIfTI magic {bytes(magic)!r}")

        dim = struct.unpack_from(order + "8h", head, 40)
        if dim[0] != 3:
            raise FormatError(f"{path}: expected a 3-D volume, header says dim[0]={dim[0]}")

        datatype, bitpix = struct.unpack_from(order + "2h", head, 70)
        if datatype not in _CODE_TO_TAG:
            raise FormatError(f"{path}: unsupported datatype code {datatype}")
        tag = _CODE_TO_TAG[datatype]
        _, bits, np_dtype = _DTYPES[tag]
        if bitpix != bits:
            raise FormatError(
                f"{path}: bitpix {bitpix} disagrees with datatype {tag} ({bits} bits)"
            )

        pixdim = struct.unpack_from(order + "8f", head, 76)
        vox_offset, slope, intercept = struct.unpack_from(order + "3f", head, 108)
        if not vox_offset.is_integer() or vox_offset < _HEADER_SIZE:  # NaN and inf are not integers
            raise FormatError(f"{path}: invalid vox_offset {vox_offset}")
        try:
            self.header = VolumeHeader(dim[1:4], tag, Spacing(*pixdim[1:4]), slope, intercept)
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from None
        self.shape, self.spacing, self.scaling = self.header.dims, self.header.spacing, self.header.scaling
        self._offset = int(vox_offset)
        #: The payload's dtype as stored, in the file's byte order.
        self.dtype = np_dtype.newbyteorder(order)
        dims = self.header.dims
        self.nbytes = dims[0] * dims[1] * dims[2] * np_dtype.itemsize
        #: The z-planes in about ``_SLAB_BYTES`` of the payload, at least one.
        self.slab_planes = max(1, _SLAB_BYTES // (np_dtype.itemsize * dims[0] * dims[1]))
        if gzipped:
            if self._offset + self.nbytes > _MAX_INFLATE * size:
                raise FormatError(
                    f"{path}: payload size mismatch, header declares {self.nbytes} bytes but a "
                    f"{size}-byte gzip stream inflates to at most {_MAX_INFLATE * size}"
                )
            self._read(bytearray(self._offset - _HEADER_SIZE))  # header extensions
        else:
            if size - self._offset != self.nbytes:
                raise self._mismatch(size)
            self._held = fh.seek(self._offset)

    def _mismatch(self, held: int) -> FormatError:
        return FormatError(
            f"{self.path}: payload size mismatch, header declares {self.nbytes} bytes "
            f"but file holds {held - self._offset}"
        )

    def _read(self, view) -> None:
        got = self._fill(view)
        self._held += got
        if got < len(view):
            raise self._mismatch(self._held)

    def slab(self, planes: int, buf: np.ndarray) -> np.ndarray:
        """The payload's next ``planes`` z-planes, of shape ``(nx, ny, planes)``
        in F order: read into the uint8 array ``buf``, which must hold their
        bytes, in native byte order, and a view of it unless the volume is
        scaled, when they are float64."""
        nx, ny, _ = self.shape
        data = buf[: nx * ny * planes * self.dtype.itemsize]
        self._read(data)
        data = data.view(self.dtype)
        if not self.dtype.isnative:
            data = data.byteswap(inplace=True).view(self.dtype.newbyteorder("="))
        if self.scaling is not None:
            data = data.astype(np.float64) * self.scaling[0] + self.scaling[1]
        # NIfTI stores the first axis fastest.
        return data.reshape((nx, ny, planes), order="F")

    def finish(self) -> None:
        """Check that the payload read ends the file."""
        if self._fill(bytearray(1)):
            raise FormatError(
                f"{self.path}: payload size mismatch, header declares {self.nbytes} bytes but file holds more"
            )


def read_volume(path) -> tuple[VolumeHeader, np.ndarray]:
    """Read a ``.nii`` or ``.nii.gz`` volume file, its payload as one
    :meth:`_VolumeStream.slab` of every z-plane.

    Data comes back in the file's dtype, except that slope/intercept scaling
    (a nonzero slope, not the identity; both finite, or :class:`FormatError`)
    yields float64.

    Returns:
        The parsed :class:`VolumeHeader` and the 3-D array, read-only.
    """
    with _VolumeStream(path) as stream:
        data = stream.slab(stream.shape[2], np.empty(stream.nbytes, np.uint8))
        stream.finish()
    data.setflags(write=False)
    return stream.header, data


def volume_bytes(path, header: VolumeHeader, data: np.ndarray) -> bytes:
    """The bytes of a volume file in the format chosen by the extension of
    ``path``, which is not touched.

    ``data`` holds voxels as :func:`read_volume` returns them, and a header
    that scales stores ``(data - intercept) / slope``.  The stored values
    must decode, in float64 as the reader decodes them, to ``data`` exactly:
    values that would be clipped, wrapped or rounded raise instead of being
    silently quantized.  NIfTI output is always little-endian with
    a 348-byte header and vox_offset 352; a ``.nii.gz`` suffix gzips the
    stream with zeroed timestamp so equal volumes produce equal bytes.
    """
    data = np.asarray(data)
    if data.shape != header.dims:
        raise ValidationError(
            f"data shape {data.shape} does not match header dims {header.dims}"
        )
    code, bits, np_dtype = _DTYPES[header.dtype]
    if data.dtype == np_dtype and header.scaling is None:
        payload_arr = data
    else:
        with np.errstate(all="ignore"):  # a value that overflows or does not cast fails the check
            if header.scaling is None:
                payload_arr = decoded = data.astype(np_dtype)
            else:
                payload_arr = ((data.astype(np.float64) - header.intercept) / header.slope).astype(np_dtype)
                decoded = payload_arr.astype(np.float64) * header.slope + header.intercept
        if not np.array_equal(decoded, data, equal_nan=decoded.dtype.kind == data.dtype.kind == "f"):
            raise ValidationError(
                f"data of dtype {data.dtype} is not exactly representable as {header.dtype}"
                f"{'' if header.scaling is None else f' scaled by {header.scaling}'}; refusing to quantize silently"
            )

    gzipped = volume_suffix(path) == ".nii.gz"
    hdr = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, _HEADER_SIZE)
    struct.pack_into("<c", hdr, 38, b"r")
    struct.pack_into("<8h", hdr, 40, 3, *header.dims, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, code, bits)
    struct.pack_into("<8f", hdr, 76, 1.0, *header.spacing.as_tuple(), 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, float(_VOX_OFFSET), header.slope, header.intercept)
    struct.pack_into("<B", hdr, 123, 2)  # spatial units: millimetres
    hdr[344:348] = _MAGIC_SINGLE

    # A 1-D F-order view of an F-contiguous payload, so it is not copied
    # before it is joined or deflated.
    payload = payload_arr.astype(np_dtype.newbyteorder("<"), copy=False).ravel(order="F")
    parts = (hdr, b"\0\0\0\0", payload)  # no header extensions
    if not gzipped:
        return b"".join(parts)
    # One gzip stream fed part by part: the bytes of gzip.compress(...,
    # mtime=0) of the joined parts, without joining them.
    deflate = zlib.compressobj(9, zlib.DEFLATED, 31)
    return b"".join([*map(deflate.compress, parts), deflate.flush()])


def write_volume(path, header: VolumeHeader, data: np.ndarray) -> None:
    """Write :func:`volume_bytes` of the volume to ``path`` atomically."""
    write_atomic(path, volume_bytes(path, header, data))


def read_label_volume(path, coding: LabelCoding = DEFAULT_CODING) -> LabelVolume:
    """Read a segmentation file into a validated :class:`LabelVolume`.

    The payload is read a run of z-planes at a time (about ``_SLAB_BYTES``)
    into one buffer, and each slab's codes are checked and its tumour box
    recorded as it comes, so the volume holds only the labels of its box.
    The first voxel in file order (z slowest) that holds none of
    ``coding``'s codes, NaN and 2.5 included, is reported.  Float and
    scaled labels become int32 once every slab has passed.  ``data`` is
    built on first use, equal to :func:`read_volume`'s array or its int32 cast.
    """
    with _VolumeStream(path) as stream:
        nx, ny, nz = stream.shape
        planes = stream.slab_planes
        buf = np.empty(planes * ny * nx * stream.dtype.itemsize, np.uint8)
        scan = _TumourScan((nz, ny, nx), planes, coding.codes, keep=True)
        for start in range(0, nz, planes):
            n = min(planes, nz - start)
            slab = stream.slab(n, buf).T  # (z, y, x), C-ordered
            if slab.dtype == np.float32:  # compared in float64, where every code is exact
                slab = slab.astype(np.float64)
            bad = scan.feed(slab)
            if bad is not None:
                z, y, x = bad
                raise ValidationError(f"{path}: {_bad_label(slab[z - start, y, x], (x, y, z), coding.codes)}")
        stream.finish()
    dtype = np.dtype(np.int32) if slab.dtype.kind == "f" else slab.dtype
    # NIfTI stores x fastest: memory order is (z, y, x), and each piece's
    # transpose is F-ordered.
    pieces = [(corner[::-1], labels.T.astype(dtype, copy=False)) for corner, labels in scan.pieces]
    return _ReadLabelVolume(stream.shape, scan.box()[::-1], pieces, dtype, stream.spacing, coding)


def read_probability_volume(path) -> tuple[np.ndarray, Spacing]:
    """Read one probability map; values must be finite and within [0, 1].

    Read through :meth:`ProbabilityMap.slab`, so a fault reads as in
    ``ensemble``.  Float maps keep their dtype, so a float32 file gives a
    float32 array in the file's memory order; other maps become float64.
    The array is read-only, so :class:`RegionProbSet` keeps it without a copy.
    """
    with ProbabilityMap(path) as prob_map:
        (nx, ny, nz), planes = prob_map.shape, prob_map.slab_planes
        floats = prob_map.scaling is None and prob_map.dtype.kind == "f"
        data = np.empty(prob_map.shape, prob_map.dtype.newbyteorder("=") if floats else np.float64, order="F")
        buf = np.empty(nx * ny * planes * prob_map.dtype.itemsize, np.uint8)
        for z in range(0, nz, planes):
            data[:, :, z : z + planes] = prob_map.slab(min(planes, nz - z), buf)
        prob_map.finish()
    data.setflags(write=False)
    return data, prob_map.spacing


class ProbabilityMap(_VolumeStream):
    """A probability map opened for reading a run of z-planes at a time.

    Opening reads and checks the header, its scaling included.  Then
    :meth:`slab` returns the map's next planes in file order, decoded by
    :meth:`_VolumeStream.slab` and checked to lie in [0, 1] (a fault names
    that slab's min and max), and :meth:`finish` checks that the file ends
    after the last.  Float maps keep their dtype, scaled maps are float64,
    and other integer maps keep their integers, which every float64 sum
    takes exactly.
    """

    def slab(self, planes: int, buf: np.ndarray) -> np.ndarray:
        """:meth:`_VolumeStream.slab`, checked to lie in [0, 1]."""
        data = super().slab(planes, buf)
        _check_probabilities(data, f"{self.path}: probability map")
        return data


def label_volume_bytes(path, volume: LabelVolume) -> bytes:
    """:func:`volume_bytes` of a label volume, in the smallest integer
    datatype that holds every code of its coding."""
    top = max(volume.coding.codes)
    if top <= np.iinfo(np.uint8).max:
        tag = "uint8"
    elif top <= np.iinfo(np.int16).max:
        tag = "int16"
    else:
        tag = "int32"
    return volume_bytes(path, VolumeHeader(volume.shape, tag, volume.spacing), volume.data)


def write_label_volume(path, volume: LabelVolume) -> None:
    """Write :func:`label_volume_bytes` of ``volume`` to ``path`` atomically."""
    write_atomic(path, label_volume_bytes(path, volume))
