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
from .volume import DEFAULT_CODING, LabelCoding, LabelVolume, Spacing

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

    @classmethod
    def for_array(cls, data: np.ndarray, spacing: Spacing) -> "VolumeHeader":
        """Header describing ``data`` verbatim (no scaling)."""
        data = np.asarray(data)
        if data.ndim != 3:
            raise ValidationError(f"volume must be 3-D, got shape {data.shape}")
        for tag, (_, _, dt) in _DTYPES.items():
            if data.dtype == dt:
                return cls(data.shape, tag, spacing)
        raise ValidationError(
            f"dtype {data.dtype} has no supported datatype tag; cast to one of "
            f"{sorted(_DTYPES)} first"
        )


def _read_nifti(path: Path) -> tuple[VolumeHeader, np.ndarray]:
    raw = path.read_bytes()
    if volume_suffix(path) == ".nii.gz":
        try:
            raw = gzip.decompress(raw)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise FormatError(f"{path}: not a valid gzip stream ({exc})")
    if len(raw) < _HEADER_SIZE:
        raise FormatError(
            f"{path}: truncated header, {len(raw)} bytes < {_HEADER_SIZE}"
        )
    for order in ("<", ">"):
        if struct.unpack_from(order + "i", raw, 0)[0] == _HEADER_SIZE:
            break
    else:
        raise FormatError(f"{path}: not a NIfTI-1 file (sizeof_hdr differs from 348)")

    magic = raw[344:348]
    if magic == _MAGIC_PAIR:
        raise FormatError(
            f"{path}: two-file NIfTI (.hdr/.img pair) is not supported, "
            "only single-file volumes with magic 'n+1'"
        )
    if magic != _MAGIC_SINGLE:
        raise FormatError(f"{path}: bad NIfTI magic {magic!r}")

    dim = struct.unpack_from(order + "8h", raw, 40)
    if dim[0] != 3:
        raise FormatError(f"{path}: expected a 3-D volume, header says dim[0]={dim[0]}")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise FormatError(f"{path}: nonpositive dimensions {dims}")

    datatype, bitpix = struct.unpack_from(order + "2h", raw, 70)
    if datatype not in _CODE_TO_TAG:
        raise FormatError(f"{path}: unsupported datatype code {datatype}")
    tag = _CODE_TO_TAG[datatype]
    code, bits, np_dtype = _DTYPES[tag]
    if bitpix != bits:
        raise FormatError(
            f"{path}: bitpix {bitpix} disagrees with datatype {tag} ({bits} bits)"
        )

    pixdim = struct.unpack_from(order + "8f", raw, 76)
    if any((not np.isfinite(p)) or p <= 0.0 for p in pixdim[1:4]):
        raise FormatError(f"{path}: nonpositive voxel spacing {pixdim[1:4]}")
    spacing = Spacing(*(float(p) for p in pixdim[1:4]))

    vox_offset, slope, intercept = struct.unpack_from(order + "3f", raw, 108)
    if vox_offset != int(vox_offset) or int(vox_offset) < _HEADER_SIZE:
        raise FormatError(f"{path}: invalid vox_offset {vox_offset}")
    offset = int(vox_offset)

    count = dims[0] * dims[1] * dims[2]
    expected = count * (bits // 8)
    actual = len(raw) - offset
    if actual != expected:
        raise FormatError(
            f"{path}: payload size mismatch, header declares {expected} bytes "
            f"but file holds {actual}"
        )
    data = np.frombuffer(raw, dtype=np_dtype.newbyteorder(order), count=count, offset=offset)
    # NIfTI stores the first axis fastest.
    data = data.reshape(dims, order="F")
    if order == ">":
        data = data.astype(np_dtype)
    header = VolumeHeader(dims, tag, spacing, float(slope), float(intercept))
    if slope != 0.0 and (slope != 1.0 or intercept != 0.0):
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
        dims = tuple(int(f) for f in fields[1:4])
        spacing_values = tuple(float(f) for f in fields[4:7])
    except ValueError:
        raise FormatError(f"{path}: non-numeric RV1 dimensions or spacing")
    tag = fields[7]
    if tag not in _DTYPES:
        raise FormatError(f"{path}: unsupported RV1 datatype {tag!r}")
    if any(d <= 0 for d in dims):
        raise FormatError(f"{path}: nonpositive RV1 dimensions {dims}")
    if any((not np.isfinite(s)) or s <= 0.0 for s in spacing_values):
        raise FormatError(f"{path}: nonpositive RV1 spacing {spacing_values}")
    _, bits, np_dtype = _DTYPES[tag]
    payload = raw[newline + 1 :]
    expected = dims[0] * dims[1] * dims[2] * (bits // 8)
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, header declares {expected} bytes "
            f"but file holds {len(payload)}"
        )
    data = np.frombuffer(payload, dtype=np_dtype.newbyteorder("<"))
    data = data.reshape(dims, order="C").astype(np_dtype)
    return VolumeHeader(dims, tag, Spacing(*spacing_values)), data


def read_volume(path) -> tuple[VolumeHeader, np.ndarray]:
    """Read a volume file, dispatching on the extension.

    Supports ``.nii``, ``.nii.gz`` and ``.rv1``.  Data comes back in the
    file's dtype, except that slope/intercept scaling (when the header
    carries a nonzero slope different from identity) yields float64.

    Returns:
        The parsed :class:`VolumeHeader` and the 3-D array.
    """
    path = Path(path)
    if volume_suffix(path) == ".rv1":
        return _read_rv1(path)
    return _read_nifti(path)


def write_volume(path, header: VolumeHeader, data: np.ndarray) -> None:
    """Write a volume byte-exactly in the format chosen by the extension.

    The payload must be exactly representable in the header's datatype;
    values that would be clipped, wrapped or rounded raise instead of
    being silently quantized.  NIfTI output is always little-endian with
    a 348-byte header and vox_offset 352; a ``.nii.gz`` suffix gzips the
    stream with zeroed timestamp so equal volumes produce equal bytes.
    """
    path = Path(path)
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
        stream = line.encode("ascii")
        stream += payload_arr.astype(np_dtype.newbyteorder("<"), copy=False).tobytes(order="C")
        write_atomic(path, stream)
        return

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
    write_atomic(path, stream)


def read_label_volume(path, coding: LabelCoding = DEFAULT_CODING) -> LabelVolume:
    """Read a segmentation file into a validated :class:`LabelVolume`.

    Float payloads (or scaled values) must be integral; label codes must
    belong to ``coding``.
    """
    header, data = read_volume(path)
    if data.dtype.kind == "f":
        if not np.all(np.isfinite(data)):
            raise ValidationError(f"{path}: label volume contains non-finite values")
        rounded = np.rint(data)
        if not np.array_equal(rounded, data):
            idx = np.argwhere(rounded != data)[0]
            value = data[tuple(idx)]
            raise ValidationError(
                f"{path}: non-integral label value {float(value)} at voxel "
                f"{tuple(int(i) for i in idx)}"
            )
        data = rounded.astype(np.int32)
    return LabelVolume(data, header.spacing, coding)


def read_probability_volume(path) -> tuple[np.ndarray, Spacing]:
    """Read one probability map; values must be finite and within [0, 1]."""
    header, data = read_volume(path)
    data = data.astype(np.float64, copy=False)
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: probability map contains non-finite values")
    if data.size and (data.min() < 0.0 or data.max() > 1.0):
        raise ValidationError(
            f"{path}: probability values outside [0, 1]: "
            f"min={float(data.min())}, max={float(data.max())}"
        )
    return data, header.spacing


def write_label_volume(path, volume: LabelVolume) -> None:
    """Write a label volume using the smallest integer datatype that fits."""
    top = max(volume.coding.codes)
    if top <= np.iinfo(np.uint8).max:
        tag = "uint8"
    elif top <= np.iinfo(np.int16).max:
        tag = "int16"
    else:
        tag = "int32"
    data = volume.data.astype(_DTYPES[tag][2])
    write_volume(path, VolumeHeader(volume.shape, tag, volume.spacing), data)
