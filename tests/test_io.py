import ast
import builtins
import gzip
import io
import json
import math
import os
import re
import stat
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from voxeval import (
    FormatError,
    LabelCoding,
    LabelVolume,
    RegionProbSet,
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
from voxeval.cli import _write_csv, _write_json, leaderboard_add, main
from voxeval.io import write_atomic

from oracles import NIFTI_TYPES, box_oracle, nifti_oracle
from test_volume_mutations import nifti_bytes

DTYPES = ["uint8", "int16", "int32", "float32", "float64"]


def sample_array(dtype, shape=(5, 4, 3)):
    rng = np.random.default_rng(90)
    if np.dtype(dtype).kind == "f":
        return rng.random(shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
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


@pytest.mark.parametrize("offset, value, message", [
    (108, float("inf"), "invalid vox_offset inf"),
    (108, float("nan"), "invalid vox_offset nan"),
    (112, float("inf"), "non-finite scaling scl_slope inf"),
    (116, float("-inf"), "non-finite scaling scl_slope 1.0, scl_inter -inf"),
])
def test_rejects_non_finite_offset_and_scaling_without_warnings(tmp_path, offset, value, message):
    # int(inf) raised OverflowError, and an infinite slope times a zero voxel warned.
    raw = valid_nifti_bytes()
    struct.pack_into("<f", raw, offset, value)
    path = tmp_path / "odd.nii"
    path.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=re.escape(message)):
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


@pytest.mark.parametrize("member", ["first", "later"])
def test_rejects_reserved_gzip_header_flags(tmp_path, capsys, member):
    # RFC 1952 asks a reader to refuse a member whose FLG byte sets a
    # reserved bit; gzip.decompress alone reads such a file.  The flag is
    # refused with one message in whichever member it sits.
    ref, pred = tmp_path / "ref.nii.gz", tmp_path / "pred.nii.gz"
    for path in (ref, pred):
        write_label_volume(path, LabelVolume(np.ones((2, 2, 2), np.uint8), Spacing()))
    stream = gzip.decompress(pred.read_bytes())
    members = [bytearray(gzip.compress(part, mtime=0)) for part in (stream[:200], stream[200:])]
    members[member == "later"][3] |= 0x20
    raw = b"".join(members)
    pred.write_bytes(raw)
    assert gzip.decompress(raw) == gzip.decompress(ref.read_bytes())
    manifest = tmp_path / "m.csv"
    manifest.write_text("case_id,reference_path,prediction_path\nc1,ref.nii.gz,pred.nii.gz\n")
    args = ["evaluate", "--manifest", str(manifest), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == (
        f"case 'c1' (reference {ref}, prediction {pred}): {pred}: not a valid gzip stream "
        "(Error -3 while decompressing data: unknown header flags set)"
    )
    assert not (tmp_path / "o.csv").exists()


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
    stored = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    path = tmp_path / "scaled.nii"
    write_volume(path, VolumeHeader(stored.shape, "int16", Spacing(), slope=2.0, intercept=-1.0), stored * 2.0 - 1.0)
    header, back = read_volume(path)
    assert header.slope == 2.0 and header.intercept == -1.0
    assert back.dtype == np.float64
    assert np.array_equal(back, stored * 2.0 - 1.0)
    raw = path.read_bytes()
    assert np.array_equal(np.frombuffer(raw, "<i2", offset=352).reshape(2, 2, 2, order="F"), stored)


@pytest.mark.parametrize("dtype", ["int16", "float32"])
@pytest.mark.parametrize("slope, intercept", [(2.0, 0.0), (0.5, -3.0), (-1.0, 10.0), (1.0, 0.25), (0.1, 0.3), (0.0, 7.0)])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_write_volume_writes_what_read_volume_returns(tmp_path, dtype, slope, intercept, suffix):
    stored = np.arange(-6, 18, dtype=dtype).reshape(2, 3, 4)
    header = VolumeHeader(stored.shape, dtype, Spacing(), slope, intercept)
    # The header keeps the pair as its float32 fields hold it, as the reader applies it.
    voxels = stored if header.scaling is None else stored.astype(np.float64) * header.slope + header.intercept
    path = tmp_path / f"scaled{suffix}"
    write_volume(path, header, voxels)
    raw = path.read_bytes()
    back_header, back = read_volume(path)
    assert back_header == header
    assert back.dtype == voxels.dtype and np.array_equal(back, voxels)
    write_volume(path, back_header, back)  # a read volume writes back to the same bytes
    assert path.read_bytes() == raw


def test_a_scaled_write_refuses_what_the_reader_cannot_return(tmp_path):
    header = VolumeHeader((2, 2, 2), "int16", Spacing(), slope=2.0)
    with pytest.raises(ValidationError, match=re.escape("not exactly representable as int16 scaled by (2.0, 0.0)")):
        write_volume(tmp_path / "odd.nii", header, np.full((2, 2, 2), 3.0))
    assert not (tmp_path / "odd.nii").exists()


@pytest.mark.parametrize("slope, intercept", [(math.nan, 0.0), (2.0, math.inf), (1e39, 0.0)])
def test_a_header_that_scales_needs_a_finite_pair(slope, intercept):
    with pytest.raises(ValidationError, match="non-finite scaling scl_slope"):
        VolumeHeader((2, 2, 2), "int16", Spacing(), slope, intercept)
    VolumeHeader((2, 2, 2), "int16", Spacing(), 0.0, intercept)  # a zero slope does not scale


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
    for uncastable in (np.nan, 1e10):  # refused without numpy's cast warning
        with pytest.raises(ValidationError, match="not exactly representable"):
            write_volume(path, VolumeHeader((2, 2, 2), "uint8", Spacing()), np.full((2, 2, 2), uncastable))


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


def test_rv1_is_an_unsupported_suffix(tmp_path, capsys):
    path = tmp_path / "vol.rv1"
    path.write_bytes(b"RV1 1 1 1 1 1 1 uint8\n\x00")
    message = f"{path}: unsupported file extension, expected one of .nii, .nii.gz"
    with pytest.raises(FormatError) as exc:
        read_volume(path)
    assert str(exc.value) == message
    with pytest.raises(FormatError, match="extension"):
        write_volume(path, VolumeHeader((1, 1, 1), "uint8", Spacing()), np.zeros((1, 1, 1), np.uint8))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"case_id,reference_path,prediction_path\nc1,{path.name},{path.name}\n")
    args = ["evaluate", "--manifest", str(manifest), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["message"].endswith(message)


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
    with pytest.raises(ValidationError) as exc:
        read_label_volume(path)
    assert str(exc.value) == f"{path}: label value 0.5 at voxel (1, 1, 1) is not one of the configured codes (0, 1, 2, 4)"


@pytest.mark.parametrize("suffix, bound", [(".nii", 1.2), (".nii.gz", 0.2)])
def test_label_volume_bytes_copies_its_payload_once(suffix, bound):
    # An F-ordered grid, as the thresholding and ET-removal routes build
    # it: its payload is joined to the header as a view, not copied first.
    # Copied by tobytes and again by each concatenation, it peaked at 2x.
    # A .nii.gz deflates the header and the payload view part by part, so
    # only its compressed bytes are new; deflating the joined stream
    # peaked at 1.03x.
    labels = np.zeros((240, 240, 155), np.uint8, order="F")
    labels[60:180, 70:170, 40:110] = 2
    labels[90:150, 100:140, 60:90] = 4
    labels.setflags(write=False)
    volume = LabelVolume(labels, Spacing(1.0, 1.0, 2.0))
    tracemalloc.start()
    try:
        data = voxeval.io.label_volume_bytes(Path("case" + suffix), volume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * labels.nbytes, peak / labels.nbytes
    raw = gzip.decompress(data) if suffix == ".nii.gz" else data
    assert len(raw) == 352 + labels.nbytes
    assert raw[348:352] == bytes(4) and raw[352:] == labels.tobytes(order="F")
    if suffix == ".nii.gz":
        assert data == gzip.compress(raw, compresslevel=9, mtime=0)


def test_scaled_label_read_peaks_below_twice_its_float_payload(tmp_path):
    # Stored as int16 with scl_inter 1, so read_volume returns float64 maps
    # that are checked and cast into the int32 labels a slab at a time.
    labels = np.zeros((64, 64, 64), np.int16)
    labels[8:56, 8:56, 8:56] = 2
    labels[16:48, 16:48, 16:48] = 1
    labels[24:40, 24:40, 24:40] = 4
    path = tmp_path / "scaled.nii"
    write_volume(path, VolumeHeader(labels.shape, "int16", Spacing(), intercept=1.0), labels)
    tracemalloc.start()
    try:
        vol = read_label_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vol.data.dtype == np.int32 and not vol.data.flags.writeable
    assert np.array_equal(vol.data, labels)
    payload = labels.size * 8  # the float64 array that read_volume returns
    assert peak <= 2 * payload, peak / payload


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


@pytest.mark.parametrize("suffix", [".NII", ".NII.GZ"])
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


def assert_data_is_the_reader_array(vol, path):
    """``vol.data`` equals :func:`read_volume`'s array bit for bit, in its
    dtype and order, read-only, and is the same array on a second access."""
    _, want = read_volume(path)
    data = vol.data
    assert data.dtype == want.dtype and data.shape == want.shape
    assert data.tobytes(order="A") == want.tobytes(order="A")
    assert data.flags.f_contiguous and not data.flags.writeable
    assert vol.data is data


@pytest.mark.parametrize("dtype", ["uint8", "int32"])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_read_label_volume_data_is_the_reader_array_built_once(tmp_path, suffix, dtype):
    data = np.zeros((4, 5, 6), dtype=dtype)
    data[1:3, 1:4, 2:5] = 2
    data[2, 2, 3] = 4
    path = tmp_path / f"seg{suffix}"
    write_volume(path, VolumeHeader(data.shape, dtype, Spacing()), data)
    vol = read_label_volume(path)
    assert "_data" not in vol.__dict__  # not built by the read
    assert_data_is_the_reader_array(vol, path)
    assert np.array_equal(vol.data, data)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_probability_maps_are_copied_at_most_once_on_load(tmp_path, dtype):
    data = np.linspace(0, 1, 27, dtype=dtype).reshape(3, 3, 3)
    paths = []
    for region in ("wt", "tc", "et"):
        paths.append(tmp_path / f"{region}.nii.gz")
        write_volume(paths[-1], VolumeHeader(data.shape, dtype, Spacing()), data)
    maps = [read_probability_volume(path)[0] for path in paths]
    for arr in maps:
        assert arr.dtype == data.dtype and not arr.flags.writeable
        assert np.array_equal(arr, data)
    probs = RegionProbSet(*maps, Spacing())
    for arr, kept in zip(maps, (probs.p_wt, probs.p_tc, probs.p_et)):
        assert np.shares_memory(arr, kept)


# --------------------------------------------------------------------------
# .nii.gz: gzip members, the header-sized buffer, read-only arrays


def evaluate_prediction(tmp_path, capsys, pred):
    """``evaluate`` of one case with a valid reference and prediction ``pred``:
    the exit code, the stderr lines and the prefix a per-case error carries."""
    ref = tmp_path / "ref.nii.gz"
    write_label_volume(ref, LabelVolume(np.ones((2, 2, 2), np.uint8), Spacing()))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"case_id,reference_path,prediction_path\nc1,{ref.name},{pred.name}\n")
    args = ["evaluate", "--manifest", str(manifest), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"]
    code = main(args)
    return code, capsys.readouterr().err.splitlines(), f"case 'c1' (reference {ref}, prediction {pred}): {pred}: "


def test_header_declaring_more_than_the_stream_can_inflate_exits_four(tmp_path, capsys):
    raw = nifti_bytes(np.zeros((2, 2, 2)), 64, "<", (1.0, 1.0, 1.0), 1.0)
    struct.pack_into("<8h", raw, 40, 3, 32767, 32767, 32767, 1, 1, 1, 1)
    pred = tmp_path / "pred.nii.gz"
    pred.write_bytes(gzip.compress(bytes(raw), mtime=0))
    size = pred.stat().st_size
    assert size < 1000
    code, lines, prefix = evaluate_prediction(tmp_path, capsys, pred)
    assert code == 4 and len(lines) == 1, lines
    assert json.loads(lines[0])["error"]["message"] == prefix + (
        f"payload size mismatch, header declares {32767**3 * 8} bytes "
        f"but a {size}-byte gzip stream inflates to at most {1032 * size}"
    )


def test_stream_longer_than_its_header_fails_within_two_chunks(tmp_path, capsys):
    pred = tmp_path / "pred.nii.gz"
    raw = nifti_bytes(np.ones((2, 2, 2)), 2, "<", (1.0, 1.0, 1.0), 1.0)
    pred.write_bytes(gzip.compress(bytes(raw) + bytes(50_000_000), mtime=0))
    assert pred.stat().st_size < 100_000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="payload size") as exc:
            read_volume(pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(raw) + 2 * voxeval.io._CHUNK, peak
    message = "payload size mismatch, header declares 8 bytes but file holds more"
    assert str(exc.value) == f"{pred}: {message}"
    code, lines, prefix = evaluate_prediction(tmp_path, capsys, pred)
    assert code == 4 and len(lines) == 1, lines
    assert json.loads(lines[0])["error"]["message"] == prefix + message


@pytest.mark.parametrize("datatype, shape", [(2, (64, 64, 70)), (16, (40, 40, 48))])
@pytest.mark.parametrize("split", ["header", "payload", "both"])
def test_gzip_members_in_a_row_read_as_one_stream(tmp_path, datatype, shape, split):
    # Each volume's payload is longer than one inflate chunk.
    rng = np.random.default_rng(7)
    values = rng.choice([0, 1, 2, 4], size=shape, p=[0.7, 0.1, 0.1, 0.1]) / (1 if datatype == 2 else 8)
    raw = bytes(nifti_bytes(values, datatype, "<", (1.0, 1.0, 2.5), 1.0))
    cuts = {"header": [100], "payload": [352 + 280_000], "both": [100, 352 + 280_000]}[split]
    bounds = [0, *cuts, len(raw)]
    path = tmp_path / "v.nii.gz"  # one member per part, each followed by zero padding
    path.write_bytes(b"".join(gzip.compress(raw[a:b], mtime=0) + bytes(5) for a, b in zip(bounds, bounds[1:])))
    plain = tmp_path / "v.nii"  # the route that inflates nothing
    plain.write_bytes(gzip.decompress(path.read_bytes()))
    header, data = read_volume(path)
    spacing, want = nifti_oracle(path)
    assert header.spacing.as_tuple() == spacing == (1.0, 1.0, 2.5)
    assert data.dtype == want.dtype and data.tobytes() == want.tobytes()
    assert data.tobytes() == read_volume(plain)[1].tobytes()


@pytest.mark.parametrize("fault, reason", [
    ("truncated", "Compressed file ended before the end-of-stream marker was reached"),
    ("crc", "Error -3 while decompressing data: incorrect data check"),
    ("length", "Error -3 while decompressing data: incorrect length check"),
])
def test_broken_member_exits_four_in_one_line(tmp_path, capsys, fault, reason):
    raw = bytes(nifti_bytes(np.ones((4, 4, 4)), 2, "<", (1.0, 1.0, 1.0), 1.0))
    members = [bytearray(gzip.compress(part, mtime=0)) for part in (raw[:200], raw[200:])]
    if fault == "truncated":
        del members[-1][len(members[-1]) // 2 :]
    else:  # the trailer: CRC-32, then the length
        members[0][-8 if fault == "crc" else -4] ^= 1
    pred = tmp_path / "pred.nii.gz"
    pred.write_bytes(b"".join(members))
    assert nifti_oracle(pred) is None
    code, lines, prefix = evaluate_prediction(tmp_path, capsys, pred)
    assert code == 4 and len(lines) == 1, lines
    assert json.loads(lines[0])["error"]["message"] == prefix + f"not a valid gzip stream ({reason})"


@pytest.mark.parametrize("reader", ["read_volume", "read_probability_volume"])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
@pytest.mark.parametrize("scaling", [(1.0, 0.0), (0.5, 0.25)], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("order", ["<", ">"], ids=["little", "big"])
@pytest.mark.parametrize("datatype", sorted(NIFTI_TYPES))
def test_readers_decode_as_the_oracle_does_on_every_route(tmp_path, monkeypatch, reader, suffix, scaling, order, datatype):
    # Every reader decodes through one slab step, so a reader checked only
    # against another checks that step against itself: both are pinned to
    # the oracle, bit for bit, and read several slabs where they can.
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 64)
    dtype = np.dtype(NIFTI_TYPES[datatype][1])
    rng = np.random.default_rng(datatype)
    if reader == "read_volume":
        values = sample_array(dtype, (5, 4, 6))
    elif dtype.kind == "f":  # stored values that scale into [0, 1]
        values = (rng.random((5, 4, 6)).astype(dtype) - scaling[1]) / scaling[0]
    else:
        values = rng.integers(0, 2, (5, 4, 6)).astype(dtype)
    raw = nifti_bytes(values, datatype, order, (1.0, 1.0, 1.0), scaling[0])
    struct.pack_into(order + "f", raw, 116, scaling[1])
    path = tmp_path / f"v{suffix}"
    path.write_bytes(gzip.compress(bytes(raw), mtime=0) if suffix == ".nii.gz" else raw)
    _, want = nifti_oracle(path)
    if reader == "read_volume":
        data = read_volume(path)[1]
    else:  # float maps keep their dtype; the others become float64
        data = read_probability_volume(path)[0]
        assert data.dtype == (want.dtype if want.dtype.kind == "f" else np.float64)
        want = want.astype(data.dtype)
    assert data.dtype == want.dtype and data.dtype.isnative
    assert data.tobytes() == want.tobytes()
    assert not data.flags.writeable


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_read_label_volume_data_is_a_byte_swapped_reader_array_built_once(tmp_path, suffix):
    data = np.zeros((120, 120, 80), np.int16)
    data[30:90, 40:80, 10:70] = 2
    data[50:60, 50:60, 30:40] = 4
    raw = bytes(nifti_bytes(data, 4, ">", (1.0, 1.0, 1.0), 1.0))
    path = tmp_path / f"seg{suffix}"
    path.write_bytes(gzip.compress(raw, mtime=0) if suffix == ".nii.gz" else raw)
    vol = read_label_volume(path)
    assert_data_is_the_reader_array(vol, path)
    assert vol.data.dtype.isnative and np.array_equal(vol.data, data)


def test_nii_gz_read_peaks_near_its_payload(tmp_path):
    # At 240x240x155 one chunk is small against the payload (at 64^3 it is
    # not); a gzip.decompress read, with its joined copy, peaks at 2.57x.
    shape = (240, 240, 155)
    data = np.zeros(shape, np.uint8)
    data[60:180, 70:170, 40:110] = 2
    data[90:140, 100:140, 60:90] = 1
    data[100:120, 110:130, 70:80] = 4
    path = tmp_path / "seg.nii.gz"
    write_volume(path, VolumeHeader(shape, "uint8", Spacing()), data)
    tracemalloc.start()
    try:
        _, back = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, data)
    assert peak <= 1.25 * data.nbytes, peak / data.nbytes


# --------------------------------------------------------------------------
# read_label_volume: streamed slab by slab, against the whole-grid read

#: kind -> (NIfTI datatype code, scl_slope); a scaled int16 file stores 2x its labels.
STREAM_KINDS = {"uint8": (2, 1.0), "int16": (4, 1.0), "int32": (8, 1.0), "float32": (16, 1.0),
                "float64": (64, 1.0), "scaled int16": (4, 0.5)}
GAPS = LabelCoding(background=3, necrosis=7, edema=20, enhancing=100)
STREAM_SHAPE = (23, 19, 29)


def label_file(path, labels, kind, order="<", container=".nii.gz"):
    """``labels`` stored as ``kind`` in byte order ``order``: a ``.nii``, a
    ``.nii.gz``, or ("members") a ``.nii.gz`` of three gzip members in a row."""
    datatype, slope = STREAM_KINDS[kind]
    raw = bytes(nifti_bytes(labels / slope, datatype, order, (1.0, 1.0, 2.5), slope))
    if container == ".nii":
        path = path.with_suffix(".nii")
        path.write_bytes(raw)
        return path
    cuts = [0, len(raw) // 3, 2 * len(raw) // 3, len(raw)] if container == "members" else [0, len(raw)]
    path = path.with_suffix(".nii.gz")
    path.write_bytes(b"".join(gzip.compress(raw[a:b], mtime=0) + bytes(3) for a, b in zip(cuts, cuts[1:])))
    return path


def whole_read(path, coding):
    """The label volume of ``read_volume``'s whole array, int32 for floats."""
    header, data = read_volume(path)
    if data.dtype.kind == "f":
        data = data.astype(np.int32)
    return LabelVolume(data, header.spacing, coding)


@pytest.mark.parametrize("container", [".nii", ".nii.gz", "members"])
@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("kind", STREAM_KINDS)
def test_streamed_label_read_matches_the_whole_read(tmp_path, monkeypatch, kind, order, container):
    # 3000-byte slabs cut a 23 x 19 x 29 volume into 1 to 6 z-planes a slab,
    # none a divisor of 29.
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 3000)
    itemsize = np.dtype(NIFTI_TYPES[STREAM_KINDS[kind][0]][1]).itemsize
    planes = max(1, 3000 // (STREAM_SHAPE[0] * STREAM_SHAPE[1] * itemsize))
    last = (STREAM_SHAPE[2] - 1) // planes  # the last slab
    rng = np.random.default_rng(2700)
    for coding in (LabelCoding(), GAPS):
        background = np.full(STREAM_SHAPE, coding.background, np.int32)
        volumes = [background]
        for slab in (0, last // 2, last):  # tumour in that slab only
            labels = background.copy()
            z = slice(slab * planes, (slab + 1) * planes)
            labels[3:17, 2:11, z] = rng.choice(coding.codes, size=labels[3:17, 2:11, z].shape)
            volumes.append(labels)
        spread = background.copy()
        spread[4:20, 1:18, 2:27] = rng.choice(coding.codes, size=(16, 17, 25))
        apart = background.copy()  # slabs whose own boxes leave background in the joint box
        apart[1:5, 2:6, 0], apart[15:22, 12:18, -1] = coding.edema, coding.enhancing
        full = rng.choice(coding.codes[1:], size=STREAM_SHAPE)  # the box is the grid
        one_gap = background.copy()  # at one plane a slab, the slabs' boxes leave one voxel out
        one_gap[0, 0, 0], one_gap[0:2, 0, planes] = coding.necrosis, coding.edema
        volumes += [spread, apart, full, one_gap]
        for i, labels in enumerate(volumes):
            path = label_file(tmp_path / f"v{i}", labels, kind, order, container)
            vol, want = read_label_volume(path, coding), whole_read(path, coding)
            assert vol._box == want._box == box_oracle(labels != coding.background)
            assert np.array_equal(vol._crop(vol._box), labels[vol._box])  # what scoring takes
            assert "_data" not in vol.__dict__
            if kind in ("uint8", "int16", "int32"):
                assert_data_is_the_reader_array(vol, path)
            data = vol.data
            assert data.dtype == want.data.dtype and data.dtype.isnative
            assert data.tobytes(order="F") == want.data.tobytes(order="F")
            assert data.flags.f_contiguous and not data.flags.writeable
            assert np.array_equal(data, labels)


@pytest.mark.parametrize("container", [".nii", ".nii.gz"])
@pytest.mark.parametrize("kind", ["uint8", "int16", "float32", "scaled int16"])
def test_streamed_label_read_names_the_first_bad_voxel_in_file_order(tmp_path, monkeypatch, kind, container):
    # In the F-ordered file the first slab holds z = 0: the read meets the
    # bad voxel there first, although C order reaches the one in the last
    # slab first.
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 3000)
    labels = np.zeros(STREAM_SHAPE, np.int32)
    labels[3:17, 2:11, 4:25] = 2
    in_first, in_last = (22, 18, 0), (0, 0, 28)
    for value in ([5, 2.5] if kind == "float32" else [5]):
        for bad_at in ([in_first], [in_last], [in_first, in_last]):
            bad = labels.astype(np.float64)
            for voxel in bad_at:
                bad[voxel] = value
            path = label_file(tmp_path / "bad", bad, kind, container=container)
            with pytest.raises(ValidationError) as exc:
                read_label_volume(path)
            first = min(bad_at, key=lambda voxel: voxel[::-1])  # z slowest
            assert str(exc.value) == (
                f"{path}: label value {value} at voxel {first} is not one of the configured codes (0, 1, 2, 4)"
            )


def test_streamed_label_read_reports_a_bad_code_before_a_bad_crc(tmp_path, monkeypatch):
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 3000)
    labels = np.zeros(STREAM_SHAPE, np.uint8)
    labels[3:17, 2:11, 4:25] = 2
    labels[5, 5, 0] = 9  # in the first slab, long before the trailer
    member = bytearray(gzip.compress(bytes(nifti_bytes(labels, 2, "<", (1.0, 1.0, 1.0), 1.0)), mtime=0))
    member[-8] ^= 1  # the CRC-32
    path = tmp_path / "bad.nii.gz"
    path.write_bytes(bytes(member))
    with pytest.raises(ValidationError) as exc:  # met in the first slab, before the trailer
        read_label_volume(path)
    assert str(exc.value) == f"{path}: label value 9 at voxel (5, 5, 0) is not one of the configured codes (0, 1, 2, 4)"
    with pytest.raises(FormatError) as exc:  # the trailer, which read_volume meets first
        read_volume(path)
    assert str(exc.value) == f"{path}: not a valid gzip stream (Error -3 while decompressing data: incorrect data check)"


@pytest.mark.parametrize("fault, reason", [
    ("longer", "payload size mismatch, header declares 12673 bytes but file holds more"),
    ("crc", "not a valid gzip stream (Error -3 while decompressing data: incorrect data check)"),
    ("truncated", "not a valid gzip stream (Compressed file ended before the end-of-stream marker was reached)"),
])
def test_streamed_label_read_checks_the_stream_to_its_end(tmp_path, monkeypatch, fault, reason):
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 3000)
    labels = np.random.default_rng(2702).choice([0, 1, 2, 4], size=STREAM_SHAPE)
    raw = bytes(nifti_bytes(labels, 2, "<", (1.0, 1.0, 1.0), 1.0))
    member = bytearray(gzip.compress(raw + bytes(fault == "longer"), mtime=0))
    if fault == "crc":
        member[-8] ^= 1
    if fault == "truncated":
        del member[-6:]  # the trailer only: every voxel can be inflated
    path = tmp_path / "seg.nii.gz"
    path.write_bytes(bytes(member))
    with pytest.raises(FormatError) as exc:
        read_label_volume(path)
    assert str(exc.value) == f"{path}: {reason}"


def test_streamed_label_read_peaks_below_half_its_payload(tmp_path):
    # The file of test_nii_gz_read_peaks_near_its_payload: the tumour box is
    # about a tenth of the grid, so the read holds a slab and two box copies.
    shape = (240, 240, 155)
    data = np.zeros(shape, np.uint8)
    data[60:180, 70:170, 40:110] = 2
    data[90:140, 100:140, 60:90] = 1
    data[100:120, 110:130, 70:80] = 4
    path = tmp_path / "seg.nii.gz"
    write_volume(path, VolumeHeader(shape, "uint8", Spacing()), data)
    tracemalloc.start()
    try:
        vol = read_label_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * data.nbytes, peak / data.nbytes
    assert "_data" not in vol.__dict__
    assert vol._box == (slice(60, 180), slice(70, 170), slice(40, 110))
    assert np.array_equal(vol.data, data)


@pytest.mark.parametrize("read", [read_volume, read_label_volume, read_probability_volume])
def test_a_non_finite_scaling_is_reported_before_a_truncated_stream(tmp_path, read):
    # The scaling lives in the header, so every reader meets it on opening,
    # before the payload whose stream ends early.
    labels = np.random.default_rng(2701).choice([0, 1, 2, 4], size=STREAM_SHAPE)
    stream = gzip.compress(bytes(nifti_bytes(labels, 2, "<", (1.0, 1.0, 1.0), math.nan)), mtime=0)
    assert len(stream) > 4000  # so the cut leaves the header whole
    path = tmp_path / "cut.nii.gz"
    path.write_bytes(stream[: len(stream) // 2])
    with pytest.raises(FormatError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: non-finite scaling scl_slope nan, scl_inter 0.0"


def test_a_float32_label_is_compared_with_the_codes_exactly(tmp_path):
    # float32 cannot hold 2**24 + 1: compared in float32, the voxel's
    # 2**24 would match that code and be cast to a label that is no code.
    coding = LabelCoding(enhancing=2**24 + 1)
    labels = np.zeros((3, 2, 2))
    labels[1, 1, 1] = 2**24
    path = label_file(tmp_path / "wide", labels, "float32", container=".nii")
    with pytest.raises(ValidationError) as exc:
        read_label_volume(path, coding)
    assert str(exc.value) == (
        f"{path}: label value 16777216 at voxel (1, 1, 1) is not one of the configured codes (0, 1, 2, 16777217)"
    )
    labels[1, 1, 1] = 2**24 + 2  # a float32 that is exactly no code, for contrast
    path = label_file(tmp_path / "wider", labels, "float32", container=".nii")
    with pytest.raises(ValidationError, match="label value 16777218 at voxel"):
        read_label_volume(path, coding)


def count_opens(monkeypatch, path):
    """The list of opens of ``path``, by ``open`` or through ``pathlib``, from now on."""
    opens, real = [], builtins.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == path:
            opens.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    return opens


@pytest.mark.parametrize("fault", ["code", "crc", "truncated", "range", "ensemble"])
def test_a_fault_costs_one_open_of_its_file(tmp_path, monkeypatch, capsys, fault):
    # A label file with a bad code, a bad CRC or a stream that ends early; a
    # probability map with 1.5 in it, read alone or as an ensemble member.
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 3000)
    if fault in ("code", "crc", "truncated"):
        labels = np.zeros(STREAM_SHAPE, np.uint8)
        labels[3:17, 2:11, 4:25] = 2
        labels[5, 5, 20] = 9 if fault == "code" else 4
        member = bytearray(gzip.compress(bytes(nifti_bytes(labels, 2, "<", (1.0, 1.0, 1.0), 1.0)), mtime=0))
        if fault == "crc":
            member[-8] ^= 1
        if fault == "truncated":
            del member[len(member) * 3 // 4 :]
        path = tmp_path / "seg.nii.gz"
        path.write_bytes(bytes(member))
        opens = count_opens(monkeypatch, path)
        with pytest.raises(ValidationError if fault == "code" else FormatError, match=re.escape(str(path))):
            read_label_volume(path)
        assert opens == [path]
        return
    p = np.random.default_rng(2703).random(STREAM_SHAPE).astype(np.float32)
    paths = [tmp_path / f"{region}.nii.gz" for region in ("wt", "tc", "et")]
    for path in paths:
        write_volume(path, VolumeHeader(p.shape, "float32", Spacing()), p)
    path = paths[-1]
    p[4, 5, 20] = 1.5
    write_volume(path, VolumeHeader(p.shape, "float32", Spacing()), p)
    opens = count_opens(monkeypatch, path)
    if fault == "range":
        with pytest.raises(ValidationError, match=re.escape(f"{path}: probability map")):
            read_probability_volume(path)
    else:
        manifest = tmp_path / "ens.csv"
        manifest.write_text("case_id,configuration,wt_path,tc_path,et_path\nc1,a,wt.nii.gz,tc.nii.gz,et.nii.gz\n")
        assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and str(path) in json.loads(lines[0])["error"]["message"]
    assert opens == [path]


@pytest.mark.parametrize("container", [".nii", ".nii.gz"])
@pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"), (2.5, "2.5"), (1e10, "10000000000")])
def test_a_float_label_that_is_no_code_is_named_with_its_voxel(tmp_path, monkeypatch, capsys, container, value, shown):
    # The voxel lies in a middle slab of a float32 file; evaluate reports
    # the reader's message under the case's prefix.
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 3000)
    labels = np.zeros(STREAM_SHAPE)
    labels[3:17, 2:11, 4:25] = 2
    voxel = (7, 4, 15)
    labels[voxel] = value
    pred = label_file(tmp_path / "pred", labels, "float32", container=container)
    want = f"{pred}: label value {shown} at voxel {voxel} is not one of the configured codes (0, 1, 2, 4)"
    with pytest.raises(ValidationError) as exc:
        read_label_volume(pred)
    assert str(exc.value) == want
    ref = label_file(tmp_path / "ref", np.zeros(STREAM_SHAPE), "uint8", container=".nii")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"case_id,reference_path,prediction_path\nc1,{ref.name},{pred.name}\n")
    args = ["evaluate", "--manifest", str(manifest), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"]
    assert main(args) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == f"case 'c1' (reference {ref}, prediction {pred}): {want}"
