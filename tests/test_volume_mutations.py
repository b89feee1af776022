"""Mutated NIfTI files through `evaluate` and `ensemble`: each read must
equal the independent reader in ``tests/oracles.py`` bit for bit, or the
command must exit 3 or 4 with one stderr line naming the case and the file."""

import gzip
import json
import math
import struct
import warnings

import numpy as np
import pytest

import voxeval.cli
import voxeval.io
from voxeval.cli import main

from oracles import NIFTI_TYPES, nifti_oracle

LABEL_CODES = [0, 1, 2, 4]
#: Values a mutation writes into one voxel, as a float or an integer type
#: can hold them; some are valid labels or probabilities.
FLOAT_VALUES = [math.nan, math.inf, -math.inf, 3e9, -3e9, 2.5, -1.0, 3.0, 4.0, 1.5, 0.5, 1.0, 0.0, -0.0]
PIXDIMS = [1.0, 0.5, 2.5, 0.0, -1.0, math.nan, math.inf, -math.inf, 1e-45]
VOX_OFFSETS = [352, 348, 0, -352, 351.5, 356, 1e30, math.nan, math.inf, -math.inf, 347]
SCALINGS = [0, 1, 2, -1, 0.5, math.nan, math.inf, -math.inf, 1e30, 1e-30]
INT_VALUES = [3, 5, 255, -1, 4, 1, 0, 32767, 2**31 - 1, -(2**31)]
EDITS = ["byte", "dim", "datatype", "bitpix", "pixdim", "vox_offset", "scl", "value", "magic",
         "sizeof_hdr", "truncate", "extend", "gzip-truncate", "gzip-byte"]


def nifti_bytes(values: np.ndarray, datatype: int, order: str, spacing, slope: float) -> bytearray:
    """An uncompressed single-file NIfTI-1 volume in byte order ``order``."""
    fmt, dtype = NIFTI_TYPES[datatype]
    head = bytearray(352)
    struct.pack_into(order + "i", head, 0, 348)
    struct.pack_into(order + "8h", head, 40, 3, *values.shape, 1, 1, 1, 1)
    struct.pack_into(order + "2h", head, 70, datatype, 8 * struct.calcsize(fmt))
    struct.pack_into(order + "8f", head, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(order + "3f", head, 108, 352.0, slope, 0.0)
    head[344:348] = b"n+1\0"
    return head + values.astype(np.dtype(dtype).newbyteorder(order)).tobytes(order="F")


def mutated(rng, values, datatype: int, spacing, gz: bool) -> bytes:
    """The volume's file with 1-3 random edits; some leave it valid."""
    order = "<>"[rng.integers(2)]
    raw = nifti_bytes(values, datatype, order, spacing, [0.0, 1.0][rng.integers(2)])
    edits = list(rng.choice(EDITS if gz else EDITS[:-2], size=int(rng.integers(1, 4))))

    def put(fmt, offset, value):
        try:
            struct.pack_into(order + fmt, raw, offset, value)
        except struct.error:  # the type cannot hold it, or the file is too short: no edit
            pass

    for edit in (e for e in edits if not e.startswith("gzip")):
        if edit == "byte":
            put("B", int(rng.integers(352)), int(rng.integers(256)))
        elif edit == "dim":
            k = int(rng.integers(8))
            put("h", 40 + 2 * k, int(rng.choice([-1, 0, 1, 2, 3, 4, 5, 6, 32767])))
        elif edit == "datatype":
            put("h", 70, int(rng.choice([2, 4, 8, 16, 64, 0, 1, 32, 256, 512, 2048])))
        elif edit == "bitpix":
            put("h", 72, int(rng.choice([8, 16, 32, 64, 0, -32, 24])))
        elif edit == "pixdim":
            put("f", 76 + 4 * int(rng.integers(8)), float(rng.choice(PIXDIMS)))
        elif edit == "vox_offset":
            put("f", 108, float(rng.choice(VOX_OFFSETS)))
        elif edit == "scl":
            put("f", 112 + 4 * int(rng.integers(2)), float(rng.choice(SCALINGS)))  # scl_slope or scl_inter
        elif edit == "value":
            fmt = NIFTI_TYPES[datatype][0]
            pool = FLOAT_VALUES if fmt in "fd" else INT_VALUES
            voxel = int(rng.integers(values.size))
            put(fmt, 352 + struct.calcsize(fmt) * voxel, pool[rng.integers(len(pool))])
        elif edit == "magic":
            raw[344:348] = [b"ni1\0", b"n+2\0", b"n+1 ", b"\0\0\0\0"][rng.integers(4)]
        elif edit == "sizeof_hdr":
            put("i", 0, int(rng.choice([0, 347, 540, int.from_bytes((348).to_bytes(4, "little"), "big")])))
        elif edit == "truncate":
            del raw[int(rng.integers(max(len(raw), 1))):]
        else:
            raw += bytes(rng.integers(256, size=int(rng.integers(1, 9))).tolist())
    data = gzip.compress(bytes(raw), mtime=0) if gz else bytes(raw)
    for edit in (e for e in edits if e.startswith("gzip")):
        if not data:
            break
        k = int(rng.integers(len(data)))
        if edit == "gzip-truncate":
            data = data[:k]
        else:  # one bit flipped
            data = data[:k] + bytes([data[k] ^ 1 << int(rng.integers(8))]) + data[k + 1:]
    return data


def run(argv, capsys):
    """``main(argv)``'s exit code (1 for an escaping exception), its stderr
    lines, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception:
            code = 1
    return code, capsys.readouterr().err.splitlines(), caught


def spy(monkeypatch, name):
    """Record each path the CLI reads through ``voxeval.cli.<name>`` with what it returned."""
    reads = {}
    real = getattr(voxeval.cli, name)

    def record(path, *args):
        reads[str(path)] = result = real(path, *args)
        return result

    monkeypatch.setattr(voxeval.cli, name, record)
    return reads


def spy_maps(monkeypatch):
    """Record each map the CLI reads through ``ProbabilityMap`` to its end,
    by path: its voxels, joined from the slabs read, and its spacing."""
    slabs, reads = {}, {}
    real_slab, real_finish = voxeval.io.ProbabilityMap.slab, voxeval.io.ProbabilityMap.finish

    def slab(self, planes, buf):
        data = real_slab(self, planes, buf)
        slabs.setdefault(self, []).append(data.copy())
        return data

    def finish(self):
        real_finish(self)
        reads[str(self.path)] = np.concatenate(slabs.pop(self), axis=2), self.spacing

    monkeypatch.setattr(voxeval.io.ProbabilityMap, "slab", slab)
    monkeypatch.setattr(voxeval.io.ProbabilityMap, "finish", finish)
    return reads


def check_outcome(code, lines, caught, case_id, path, read: bool) -> bool:
    """The contract for one mutated file whose reader accepted it or not;
    returns whether the command rejected it."""
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert read and lines == []
        return False
    assert code in (3, 4) and len(lines) == 1, (code, lines)
    message = json.loads(lines[0])["error"]["message"]
    assert f"case {case_id!r}" in message and str(path) in message, message
    return True


@pytest.mark.parametrize("seed", range(2))
def test_mutated_label_files_read_as_the_oracle_or_fail_in_one_line(tmp_path, capsys, monkeypatch, seed):
    rng = np.random.default_rng(4000 + seed)
    reads = spy(monkeypatch, "read_label_volume")
    outcomes = []
    for n in range(60):
        shape = tuple(int(d) for d in rng.integers(2, 6, size=3))
        values = rng.choice(LABEL_CODES, size=shape, p=[0.5, 0.2, 0.2, 0.1])
        spacing = (1.0, 1.0, 2.5)
        ref = tmp_path / f"ref{n}.nii"
        ref.write_bytes(bytes(nifti_bytes(values, 2, "<", spacing, 1.0)))
        gz = bool(rng.integers(2))
        pred = tmp_path / f"pred{n}.nii{'.gz' if gz else ''}"
        pred.write_bytes(mutated(rng, values, int(rng.choice(list(NIFTI_TYPES))), spacing, gz))
        manifest = tmp_path / f"m{n}.csv"
        manifest.write_text(f"case_id,reference_path,prediction_path\ncase{n},{ref.name},{pred.name}\n")
        code, lines, caught = run(["evaluate", "--manifest", str(manifest), "--out-metrics",
                                   str(tmp_path / f"out{n}.csv"), "--jobs", "1"], capsys)
        volume, want = reads.pop(str(pred), None), nifti_oracle(pred)
        if volume is not None:  # read: as the oracle reads it, and integral codes
            assert want is not None and volume.spacing.as_tuple() == want[0]
            assert volume.shape == want[1].shape and np.array_equal(volume.data, want[1])
            assert set(np.unique(want[1]).tolist()) <= set(LABEL_CODES)
        outcomes.append(check_outcome(code, lines, caught, f"case{n}", pred, volume is not None))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("seed", range(2))
def test_mutated_probability_maps_read_as_the_oracle_or_fail_in_one_line(tmp_path, capsys, monkeypatch, seed):
    # Seed 5020 puts a readable pixdim edit on a case's first map (file 5), which
    # every later map then disagrees with; about one seed pair in six draws one.
    rng = np.random.default_rng(5020 + seed)
    reads = spy_maps(monkeypatch)
    outcomes = []
    for n in range(60):
        shape = tuple(int(d) for d in rng.integers(2, 6, size=3))
        spacing = (1.0, 1.0, 2.5)
        datatype = int(rng.choice([16, 16, 64, 2]))
        values = rng.integers(0, 2 if datatype == 2 else 9, size=shape) / (1 if datatype == 2 else 8)
        good = tmp_path / f"good{n}.nii"
        good.write_bytes(bytes(nifti_bytes(values, 16, "<", spacing, 1.0)))
        gz = bool(rng.integers(2))
        bad = tmp_path / f"bad{n}.nii{'.gz' if gz else ''}"
        bad.write_bytes(mutated(rng, values, datatype, spacing, gz))
        # Members a, a and b; the mutated file is one of their nine maps, the case's first included.
        names = [good.name] * 9
        names[int(rng.integers(9))] = bad.name
        manifest = tmp_path / f"m{n}.csv"
        rows = [f"case{n},{c},{','.join(names[3 * k:3 * k + 3])}\n" for k, c in enumerate("aab")]
        manifest.write_text("case_id,configuration,wt_path,tc_path,et_path\n" + "".join(rows))
        code, lines, caught = run(["ensemble", "--manifest", str(manifest), "--out-dir",
                                   str(tmp_path / f"out{n}"), "--jobs", "1"], capsys)
        read, want = reads.pop(str(bad), None), nifti_oracle(bad)
        if read is not None:  # read: the oracle's voxels bit for bit, in [0, 1]
            data, read_spacing = read
            assert want is not None and read_spacing.as_tuple() == want[0]
            assert data.dtype == want[1].dtype
            assert data.shape == want[1].shape and data.tobytes() == want[1].tobytes()
            assert 0.0 <= want[1].min() and want[1].max() <= 1.0
        outcomes.append(check_outcome(code, lines, caught, f"case{n}", bad, read is not None))
    assert any(outcomes) and not all(outcomes)
