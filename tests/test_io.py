import ast
import gzip
import os
import re
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from voxeval import (
    FormatError,
    LabelVolume,
    Spacing,
    ValidationError,
    VolumeHeader,
    read_label_volume,
    read_probability_volume,
    read_volume,
    write_label_volume,
    write_volume,
)
import voxeval
from voxeval.cli import _write_csv, _write_json, leaderboard_add
from voxeval.io import write_atomic

DTYPES = ["uint8", "int16", "int32", "float32", "float64"]


def sample_array(dtype, shape=(5, 4, 3)):
    rng = np.random.default_rng(90)
    if np.dtype(dtype).kind == "f":
        return rng.random(shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz", ".rv1"])
def test_roundtrip_identity(tmp_path, dtype, suffix):
    data = sample_array(dtype)
    spacing = Spacing(0.5, 1.0, 2.5)
    path = tmp_path / f"vol{suffix}"
    write_volume(path, VolumeHeader(data.shape, dtype, spacing), data)
    header, back = read_volume(path)
    assert back.dtype == np.dtype(dtype)
    assert np.array_equal(back, data)
    assert header.spacing == spacing
    assert header.dims == data.shape
    assert header.dtype == dtype


def test_written_bytes_are_deterministic(tmp_path):
    data = sample_array("int16")
    header = VolumeHeader(data.shape, "int16", Spacing())
    a = tmp_path / "a.nii.gz"
    b = tmp_path / "b.nii.gz"
    write_volume(a, header, data)
    write_volume(b, header, data)
    assert a.read_bytes() == b.read_bytes()


def test_gzip_applied_only_for_gz_suffix(tmp_path):
    data = sample_array("uint8")
    header = VolumeHeader(data.shape, "uint8", Spacing())
    plain = tmp_path / "v.nii"
    packed = tmp_path / "v.nii.gz"
    write_volume(plain, header, data)
    write_volume(packed, header, data)
    assert plain.read_bytes()[:4] == struct.pack("<i", 348)
    assert packed.read_bytes()[:2] == b"\x1f\x8b"
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()


def valid_nifti_bytes(data=None):
    if data is None:
        data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    import io as _io
    import tempfile, os

    from voxeval.io import write_volume as _wv

    tmp = tempfile.NamedTemporaryFile(suffix=".nii", delete=False)
    tmp.close()
    _wv(tmp.name, VolumeHeader(data.shape, "int16", Spacing()), data)
    with open(tmp.name, "rb") as fh:
        raw = fh.read()
    os.unlink(tmp.name)
    return bytearray(raw)


def test_rejects_two_file_magic(tmp_path):
    raw = valid_nifti_bytes()
    raw[344:348] = b"ni1\0"
    path = tmp_path / "pair.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="two-file"):
        read_volume(path)


def test_rejects_unknown_magic(tmp_path):
    raw = valid_nifti_bytes()
    raw[344:348] = b"xxx\0"
    path = tmp_path / "bad.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_volume(path)


def test_rejects_non_3d(tmp_path):
    raw = valid_nifti_bytes()
    struct.pack_into("<h", raw, 40, 4)
    path = tmp_path / "fourd.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"dim\[0\]=4"):
        read_volume(path)


def test_rejects_unsupported_datatype(tmp_path):
    raw = valid_nifti_bytes()
    struct.pack_into("<h", raw, 70, 1280)
    path = tmp_path / "weird.nii"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="datatype code 1280"):
        read_volume(path)


def test_rejects_truncated_and_padded_payload(tmp_path):
    raw = valid_nifti_bytes()
    short = tmp_path / "short.nii"
    short.write_bytes(bytes(raw[:-8]))
    with pytest.raises(FormatError, match="payload size"):
        read_volume(short)
    long = tmp_path / "long.nii"
    long.write_bytes(bytes(raw) + b"\0\0")
    with pytest.raises(FormatError, match="payload size"):
        read_volume(long)


def test_rejects_truncated_header(tmp_path):
    path = tmp_path / "stub.nii"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(FormatError, match="truncated header"):
        read_volume(path)


def test_rejects_non_nifti(tmp_path):
    path = tmp_path / "noise.nii"
    path.write_bytes(b"A" * 500)
    with pytest.raises(FormatError, match="sizeof_hdr"):
        read_volume(path)


def test_rejects_corrupt_gzip(tmp_path):
    path = tmp_path / "corrupt.nii.gz"
    path.write_bytes(b"not gzip at all")
    with pytest.raises(FormatError, match="gzip"):
        read_volume(path)


def test_reads_big_endian_files(tmp_path):
    data = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    hdr = bytearray(348)
    struct.pack_into(">i", hdr, 0, 348)
    struct.pack_into(">8h", hdr, 40, 3, 2, 3, 4, 1, 1, 1, 1)
    struct.pack_into(">2h", hdr, 70, 4, 16)
    struct.pack_into(">8f", hdr, 76, 1.0, 1.5, 2.0, 2.5, 0, 0, 0, 0)
    struct.pack_into(">3f", hdr, 108, 352.0, 1.0, 0.0)
    hdr[344:348] = b"n+1\0"
    path = tmp_path / "big.nii"
    path.write_bytes(
        bytes(hdr) + b"\0\0\0\0" + data.astype(">i2").tobytes(order="F")
    )
    header, back = read_volume(path)
    assert np.array_equal(back, data)
    assert header.spacing == Spacing(1.5, 2.0, 2.5)


def test_slope_intercept_scaling(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "scaled.nii"
    write_volume(path, VolumeHeader(data.shape, "int16", Spacing(), slope=2.0, intercept=-1.0), data)
    header, back = read_volume(path)
    assert header.slope == 2.0 and header.intercept == -1.0
    assert back.dtype == np.float64
    assert np.array_equal(back, data * 2.0 - 1.0)


def test_zero_slope_means_no_scaling(tmp_path):
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "raw.nii"
    write_volume(path, VolumeHeader(data.shape, "int16", Spacing(), slope=0.0), data)
    _, back = read_volume(path)
    assert back.dtype == np.int16
    assert np.array_equal(back, data)


def test_extension_bytes_are_skipped(tmp_path):
    raw = valid_nifti_bytes()
    # push the payload 16 bytes out and insert an extension blob
    struct.pack_into("<f", raw, 108, 368.0)
    extended = bytes(raw[:352]) + b"\xde\xad\xbe\xef" * 4 + bytes(raw[352:])
    path = tmp_path / "ext.nii"
    path.write_bytes(extended)
    _, back = read_volume(path)
    assert np.array_equal(back, np.arange(24, dtype=np.int16).reshape(2, 3, 4))


def test_write_rejects_unrepresentable_values(tmp_path):
    path = tmp_path / "clip.nii"
    data = np.full((2, 2, 2), 300, dtype=np.int32)
    with pytest.raises(ValidationError, match="not exactly representable"):
        write_volume(path, VolumeHeader(data.shape, "uint8", Spacing()), data)
    fractional = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValidationError, match="not exactly representable"):
        write_volume(path, VolumeHeader(fractional.shape, "int16", Spacing()), fractional)
    precise = np.full((2, 2, 2), 0.1, dtype=np.float64)
    with pytest.raises(ValidationError, match="not exactly representable"):
        write_volume(path, VolumeHeader(precise.shape, "float32", Spacing()), precise)


def test_write_allows_exact_cross_dtype(tmp_path):
    path = tmp_path / "exact.nii"
    data = np.full((2, 2, 2), 7.0)
    write_volume(path, VolumeHeader(data.shape, "uint8", Spacing()), data)
    _, back = read_volume(path)
    assert back.dtype == np.uint8
    assert np.all(back == 7)


def test_write_rejects_shape_mismatch(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.uint8)
    with pytest.raises(ValidationError, match="shape"):
        write_volume(tmp_path / "x.nii", VolumeHeader((2, 2, 3), "uint8", Spacing()), data)


def test_unsupported_extension(tmp_path):
    path = tmp_path / "vol.mha"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="extension"):
        read_volume(path)
    with pytest.raises(FormatError, match="extension"):
        write_volume(path, VolumeHeader((1, 1, 1), "uint8", Spacing()), np.zeros((1, 1, 1), np.uint8))


def test_rv1_malformed_inputs(tmp_path):
    path = tmp_path / "bad.rv1"
    path.write_bytes(b"no newline here")
    with pytest.raises(FormatError, match="header line"):
        read_volume(path)
    path.write_bytes(b"RV0 1 1 1 1 1 1 uint8\n\x00")
    with pytest.raises(FormatError, match="malformed RV1"):
        read_volume(path)
    path.write_bytes(b"RV1 1 1 1 1 1 1 int64\n" + b"\x00" * 8)
    with pytest.raises(FormatError, match="datatype"):
        read_volume(path)
    path.write_bytes(b"RV1 2 1 1 1 1 1 uint8\n\x00")
    with pytest.raises(FormatError, match="payload size"):
        read_volume(path)


def test_read_label_volume_validates_codes(tmp_path):
    good = np.array([0, 1, 2, 4] * 2, dtype=np.uint8).reshape(2, 2, 2)
    path = tmp_path / "labels.nii"
    write_volume(path, VolumeHeader(good.shape, "uint8", Spacing()), good)
    vol = read_label_volume(path)
    assert isinstance(vol, LabelVolume)
    assert np.array_equal(vol.data, good)

    bad = good.copy()
    bad[0, 0, 0] = 3
    write_volume(path, VolumeHeader(bad.shape, "uint8", Spacing()), bad)
    with pytest.raises(ValidationError, match="label value 3"):
        read_label_volume(path)


def test_read_label_volume_accepts_integral_floats(tmp_path):
    data = np.array([0.0, 1.0, 2.0, 4.0] * 2, dtype=np.float32).reshape(2, 2, 2)
    path = tmp_path / "float_labels.nii"
    write_volume(path, VolumeHeader(data.shape, "float32", Spacing()), data)
    vol = read_label_volume(path)
    assert vol.data.dtype.kind == "i"
    assert np.array_equal(vol.data, data.astype(np.int32))

    fractional = data.copy()
    fractional[1, 1, 1] = 0.5
    write_volume(path, VolumeHeader(data.shape, "float32", Spacing()), fractional)
    with pytest.raises(ValidationError, match="non-integral label value"):
        read_label_volume(path)


def test_read_probability_volume_enforces_range(tmp_path):
    data = np.linspace(0, 1, 8, dtype=np.float32).reshape(2, 2, 2)
    path = tmp_path / "prob.nii"
    write_volume(path, VolumeHeader(data.shape, "float32", Spacing()), data)
    back, spacing = read_probability_volume(path)
    assert np.allclose(back, data, atol=0)
    assert spacing == Spacing()

    bad = data.copy()
    bad[0, 0, 0] = 1.5
    write_volume(path, VolumeHeader(bad.shape, "float32", Spacing()), bad)
    with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
        read_probability_volume(path)


def test_write_label_volume_roundtrip(tmp_path):
    rng = np.random.default_rng(91)
    data = rng.choice([0, 1, 2, 4], size=(4, 4, 4)).astype(np.int32)
    vol = LabelVolume(data, Spacing(1, 1, 2))
    path = tmp_path / "seg.nii.gz"
    write_label_volume(path, vol)
    back = read_label_volume(path)
    assert np.array_equal(back.data, data)
    assert back.spacing == vol.spacing


@pytest.mark.parametrize("suffix", [".NII", ".NII.GZ", ".RV1"])
def test_upper_case_suffix_roundtrip(tmp_path, suffix):
    data = np.zeros((4, 3, 2), dtype=np.uint8)
    data[1:3, 1:2, :] = 2
    volume = LabelVolume(data, Spacing(0.5, 1.0, 2.0))
    path = tmp_path / f"X{suffix}"
    write_label_volume(path, volume)
    back = read_label_volume(path)
    assert np.array_equal(back.data, data)
    assert back.spacing == volume.spacing
    assert (path.read_bytes()[:2] == b"\x1f\x8b") == (suffix == ".NII.GZ")


# --------------------------------------------------------------------------
# atomic writes


class Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be rendered")


def _fail_rename(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("failure", ["payload", "write", "rename"])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, failure):
    out = tmp_path / "out.csv"
    out.write_bytes(b"previous\n")
    if failure == "payload":
        with pytest.raises(RuntimeError, match="cannot be rendered"):
            _write_csv(out, ["a"], [[Unprintable()]])
    elif failure == "write":
        with pytest.raises(TypeError):
            write_atomic(out, "text is not bytes")
    else:
        monkeypatch.setattr(os, "replace", _fail_rename)
        with pytest.raises(OSError, match="rename failed"):
            _write_csv(out, ["a"], [["1"]])
    assert out.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


@pytest.mark.parametrize("kind", ["csv", "json", "volume", "store"])
def test_new_output_mode_follows_umask(tmp_path, kind):
    metrics = tmp_path / "metrics.csv"
    rows = [["c1", region, "1.0", "0.0", "none"] for region in ("WT", "TC", "ET")]
    _write_csv(metrics, ["case_id", "region", "dice", "hd95", "special_case"], rows)
    out = tmp_path / "out"
    old = os.umask(0o027)
    try:
        if kind == "csv":
            _write_csv(out, ["a"], [["1"]])
        elif kind == "json":
            _write_json(out, {"a": 1})
        elif kind == "volume":
            out = tmp_path / "out.nii.gz"
            write_label_volume(out, LabelVolume(np.zeros((2, 2, 2), np.uint8), Spacing()))
        else:
            leaderboard_add(out, metrics, "A")
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


#: A call that writes a file: pathlib's write helpers, a low-level or
#: temporary-file open, or open() with a mode that writes.
_FILE_WRITE = re.compile(
    r"\.write_(text|bytes)\(|\bos\.(open|fdopen)\(|\btempfile\b"
    r"|\bopen\((?:[^,()]+,\s*)?(?:mode\s*=\s*)?[\"'][rbt]*[wax+]"
)


def test_sources_write_files_only_through_write_atomic():
    package = Path(voxeval.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        allowed = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == "write_atomic":
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for number, line in enumerate(source.splitlines(), start=1):
            if _FILE_WRITE.search(line) and number not in allowed:
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert offenders == []
