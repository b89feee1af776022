"""Volume file I/O: a NIfTI-1 subset plus the RV1 raw fixture format.

The NIfTI-1 support is deliberately narrow: single-file .nii or .nii.gz,
3-D only, five datatypes, header extensions skipped, orientation fields
ignored except the voxel spacing in pixdim.  Evaluation only needs voxel
grids and spacing, and reference and prediction grids must match exactly
anyway.  Files are written byte-exactly: 348-byte little-endian header,
vox_offset 352, magic "n+1\\0", gzip applied iff the name ends in ".nii.gz"
(with zeroed mtime so identical volumes give identical bytes).  Suffixes
match case-insensitively, and every file is written atomically.

RV1 is a trivial sidecar format for fixtures that must not depend on the
NIfTI parser: one ASCII header line ``RV1 nx ny nz dx dy dz dtype`` then
the raw little-endian payload in C order.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .volume import _SLAB_BYTES, DEFAULT_CODING, LabelCoding, LabelVolume, Spacing, _check_probabilities

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
VOLUME_SUFFIXES = (".nii", ".nii.gz", ".rv1")


def volume_suffix(path) -> str:
    """Return the volume format of ``path``: ".nii", ".nii.gz" or ".rv1"."""
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
    """Shape, datatype, spacing and value scaling of a stored volume."""

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
        object.__setattr__(self, "slope", float(self.slope))
        object.__setattr__(self, "intercept", float(self.intercept))


#: Bytes inflated per zlib call, each then copied into the volume's buffer.
_CHUNK = 256 * 1024

#: Deflate's largest expansion, in bytes out per byte in: a ``.nii.gz``
#: header that declares more than its stream can hold is refused unallocated.
_MAX_INFLATE = 1032


def _inflate(path: Path, raw: bytes, view: memoryview) -> int:
    """Inflate the gzip stream ``raw`` into ``view``, at most ``_CHUNK`` bytes
    a step; returns how many bytes the stream holds, or ``len(view) + 1``
    when it holds more.

    Members in a row are one stream, and zero padding between and after them
    is skipped, as Python's ``gzip`` module reads them.  zlib checks each
    member's header, CRC-32 and length; its errors are a :class:`FormatError`.
    """
    if raw[:2] == b"\x1f\x8b" and len(raw) > 3 and raw[3] & 0xE0:  # reserved FLG bits (RFC 1952)
        raise FormatError(f"{path}: not a valid gzip stream (unknown header flags set)")
    filled, member = 0, None
    while raw or (member is not None and not member.eof):
        if member is None or member.eof:
            member = zlib.decompressobj(31)
        try:
            out = member.decompress(raw, min(_CHUNK, len(view) - filled) or 1)
        except zlib.error as exc:
            raise FormatError(f"{path}: not a valid gzip stream ({exc})") from None
        if out and filled == len(view):
            return filled + 1
        view[filled : filled + len(out)] = out
        filled += len(out)
        raw = member.unused_data.lstrip(b"\0") if member.eof else member.unconsumed_tail
        if not (out or raw or member.eof):
            raise FormatError(
                f"{path}: not a valid gzip stream "
                "(Compressed file ended before the end-of-stream marker was reached)"
            )
    return filled


def _payload(
    path: Path, raw: bytes, offset: int, order: str, layout: str,
    dims, tag: str, spacing, slope: float = 1.0, intercept: float = 0.0,
) -> tuple[VolumeHeader, np.ndarray]:
    """The header a file declares and its payload ``raw[offset:]``, stored in
    byte order ``order`` and memory ``layout``, as a native-order array.

    The bytes of a ``.nii.gz`` are inflated into one read-only buffer of the
    size the header declares, which must not exceed what ``raw`` can inflate
    to.  A header that :class:`VolumeHeader` or :class:`Spacing` rejects, or
    a payload of another size than the header declares, is a
    :class:`FormatError` naming ``path``.
    """
    try:
        header = VolumeHeader(dims, tag, Spacing(*spacing), slope, intercept)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None
    _, bits, np_dtype = _DTYPES[tag]
    count = header.dims[0] * header.dims[1] * header.dims[2]
    expected = count * (bits // 8)
    if volume_suffix(path) == ".nii.gz":
        if offset + expected > _MAX_INFLATE * len(raw):
            raise FormatError(
                f"{path}: payload size mismatch, header declares {expected} bytes but a "
                f"{len(raw)}-byte gzip stream inflates to at most {_MAX_INFLATE * len(raw)}"
            )
        buf = np.empty(offset + expected, np.uint8)
        held = _inflate(path, raw, memoryview(buf))
        if held > len(buf):
            raise FormatError(
                f"{path}: payload size mismatch, header declares {expected} bytes but file holds more"
            )
        raw = buf[:held]
        raw.setflags(write=False)
    actual = len(raw) - offset
    if actual != expected:
        raise FormatError(
            f"{path}: payload size mismatch, header declares {expected} bytes "
            f"but file holds {actual}"
        )
    data = np.frombuffer(raw, dtype=np_dtype.newbyteorder(order), count=count, offset=offset)
    return header, data.reshape(header.dims, order=layout).astype(np_dtype, copy=False)


def _read_nifti(path: Path) -> tuple[VolumeHeader, np.ndarray]:
    raw = head = path.read_bytes()
    if volume_suffix(path) == ".nii.gz":  # inflated on its own, to size the payload's buffer
        head = bytearray(_HEADER_SIZE)
        head = bytes(head[: _inflate(path, raw, memoryview(head))])
    if len(head) < _HEADER_SIZE:
        raise FormatError(
            f"{path}: truncated header, {len(head)} bytes < {_HEADER_SIZE}"
        )
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
        raise FormatError(f"{path}: bad NIfTI magic {magic!r}")

    dim = struct.unpack_from(order + "8h", head, 40)
    if dim[0] != 3:
        raise FormatError(f"{path}: expected a 3-D volume, header says dim[0]={dim[0]}")

    datatype, bitpix = struct.unpack_from(order + "2h", head, 70)
    if datatype not in _CODE_TO_TAG:
        raise FormatError(f"{path}: unsupported datatype code {datatype}")
    tag = _CODE_TO_TAG[datatype]
    bits = _DTYPES[tag][1]
    if bitpix != bits:
        raise FormatError(
            f"{path}: bitpix {bitpix} disagrees with datatype {tag} ({bits} bits)"
        )

    pixdim = struct.unpack_from(order + "8f", head, 76)
    vox_offset, slope, intercept = struct.unpack_from(order + "3f", head, 108)
    if not vox_offset.is_integer() or vox_offset < _HEADER_SIZE:  # NaN and inf are not integers
        raise FormatError(f"{path}: invalid vox_offset {vox_offset}")
    # NIfTI stores the first axis fastest.
    header, data = _payload(
        path, raw, int(vox_offset), order, "F", dim[1:4], tag, pixdim[1:4], slope, intercept
    )
    if slope != 0.0 and (slope != 1.0 or intercept != 0.0):
        if not np.isfinite([slope, intercept]).all():
            raise FormatError(f"{path}: non-finite scaling scl_slope {slope}, scl_inter {intercept}")
        data = data.astype(np.float64) * float(slope) + float(intercept)
    return header, data


def _read_rv1(path: Path) -> tuple[VolumeHeader, np.ndarray]:
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing RV1 header line")
    try:
        fields = raw[:newline].decode("ascii").split()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: RV1 header line is not ASCII")
    if len(fields) != 8 or fields[0] != "RV1":
        raise FormatError(
            f"{path}: malformed RV1 header, expected "
            "'RV1 nx ny nz dx dy dz dtype'"
        )
    try:
        dims = [int(f) for f in fields[1:4]]
        spacing = [float(f) for f in fields[4:7]]
    except ValueError:
        raise FormatError(f"{path}: non-numeric RV1 dimensions or spacing")
    return _payload(path, raw, newline + 1, "<", "C", dims, fields[7], spacing)


def read_volume(path) -> tuple[VolumeHeader, np.ndarray]:
    """Read a volume file, dispatching on the extension.

    Supports ``.nii``, ``.nii.gz`` and ``.rv1``.  Data comes back in the
    file's dtype, except that slope/intercept scaling (a nonzero slope, not
    the identity; both finite, or :class:`FormatError`) yields float64.

    Returns:
        The parsed :class:`VolumeHeader` and the 3-D array, read-only.
    """
    path = Path(path)
    header, data = _read_rv1(path) if volume_suffix(path) == ".rv1" else _read_nifti(path)
    data.setflags(write=False)
    return header, data


def volume_bytes(path, header: VolumeHeader, data: np.ndarray) -> bytes:
    """The bytes of a volume file in the format chosen by the extension of
    ``path``, which is not touched.

    The payload must be exactly representable in the header's datatype;
    values that would be clipped, wrapped or rounded raise instead of
    being silently quantized.  NIfTI output is always little-endian with
    a 348-byte header and vox_offset 352; a ``.nii.gz`` suffix gzips the
    stream with zeroed timestamp so equal volumes produce equal bytes.
    """
    data = np.asarray(data)
    if data.shape != header.dims:
        raise ValidationError(
            f"data shape {data.shape} does not match header dims {header.dims}"
        )
    code, bits, np_dtype = _DTYPES[header.dtype]
    if data.dtype == np_dtype:
        payload_arr = data
    else:
        payload_arr = data.astype(np_dtype)
        if data.dtype.kind == "f" and np_dtype.kind == "f":
            exact = np.array_equal(payload_arr, data, equal_nan=True)
        else:
            exact = np.array_equal(payload_arr, data)
        if not exact:
            raise ValidationError(
                f"data of dtype {data.dtype} is not exactly representable "
                f"as {header.dtype}; refusing to quantize silently"
            )

    suffix = volume_suffix(path)
    if suffix == ".rv1":
        line = "RV1 {} {} {} {} {} {} {}\n".format(
            *header.dims, *(repr(s) for s in header.spacing.as_tuple()), header.dtype
        )
        return line.encode("ascii") + payload_arr.astype(np_dtype.newbyteorder("<"), copy=False).tobytes(order="C")

    hdr = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, _HEADER_SIZE)
    struct.pack_into("<c", hdr, 38, b"r")
    struct.pack_into("<8h", hdr, 40, 3, *header.dims, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, code, bits)
    struct.pack_into("<8f", hdr, 76, 1.0, *header.spacing.as_tuple(), 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, float(_VOX_OFFSET), header.slope, header.intercept)
    struct.pack_into("<B", hdr, 123, 2)  # spatial units: millimetres
    hdr[344:348] = _MAGIC_SINGLE

    stream = bytes(hdr)
    stream += b"\0\0\0\0"  # no header extensions
    stream += payload_arr.astype(np_dtype.newbyteorder("<"), copy=False).tobytes(order="F")
    if suffix == ".nii.gz":
        stream = gzip.compress(stream, compresslevel=9, mtime=0)
    return stream


def write_volume(path, header: VolumeHeader, data: np.ndarray) -> None:
    """Write :func:`volume_bytes` of the volume to ``path`` atomically."""
    write_atomic(path, volume_bytes(path, header, data))


def _bad_float_label(path, data: np.ndarray, coding: LabelCoding) -> ValidationError:
    """The error for a float label array that holds a value outside
    ``coding``: non-finite anywhere, else the first non-integral voxel, else
    the first voxel whose code is not configured, in C order."""
    if not np.all(np.isfinite(data)):
        return ValidationError(f"{path}: label volume contains non-finite values")
    rounded = np.rint(data)
    if not np.array_equal(rounded, data):
        idx = np.argwhere(rounded != data)[0]
        return ValidationError(
            f"{path}: non-integral label value {float(data[tuple(idx)])} at voxel "
            f"{tuple(int(i) for i in idx)}"
        )
    idx = np.argwhere(~np.isin(rounded, coding.codes))[0]
    return ValidationError(
        f"{path}: label value {int(rounded[tuple(idx)])} at voxel "
        f"{tuple(int(i) for i in idx)} is not one of the configured codes {coding.codes}"
    )


def read_label_volume(path, coding: LabelCoding = DEFAULT_CODING) -> LabelVolume:
    """Read a segmentation file into a validated :class:`LabelVolume`.

    Float payloads (or scaled values) must be integral; label codes must
    belong to ``coding``.
    """
    header, data = read_volume(path)
    if data.dtype.kind == "f":
        # Checked and cast slab by slab into the int32 result, in memory
        # order, so no full-grid temporary is made.  A value in ``coding`` is
        # finite and integral, and casting one outside int32's range would be
        # undefined, so each slab is cast only once every value is a code.
        labels = np.empty_like(data, dtype=np.int32)
        axes = sorted(range(3), key=lambda axis: -abs(data.strides[axis]))
        src, dst = data.transpose(axes), labels.transpose(axes)
        step = max(1, _SLAB_BYTES // (data.itemsize * src.shape[1] * src.shape[2]))
        for start in range(0, src.shape[0], step):
            slab = src[start : start + step]
            if not np.isin(slab, coding.codes).all():
                raise _bad_float_label(path, data, coding)
            dst[start : start + step] = slab
        data = labels
        data.setflags(write=False)
    return LabelVolume(data, header.spacing, coding)


def read_probability_volume(path) -> tuple[np.ndarray, Spacing]:
    """Read one probability map; values must be finite and within [0, 1].

    Float maps keep their dtype, so a float32 file gives a float32 array
    in the file's memory order; integer maps become float64.  The array is
    read-only, so :class:`RegionProbSet` keeps it without a copy.
    """
    header, data = read_volume(path)
    if data.dtype.kind != "f":
        data = data.astype(np.float64)
    data.setflags(write=False)
    _check_probabilities(data, f"{path}: probability map")
    return data, header.spacing


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
