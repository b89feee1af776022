"""The ``ensemble`` command's slab route: every map of a case is opened and
checked first, then all are read in lockstep, a few z-planes at a time.

Its labels and combined maps must equal, bit for bit, those of the
whole-map route (``two_level_ensemble`` over ``read_probability_volume``
sets, then ``regions_to_labels``) and the loop oracle; and every fault in a
map must stop the command as that route's read would.
"""

import gzip
import json
import struct

import numpy as np
import pytest

import voxeval.cli
import voxeval.io
from voxeval import RegionProbSet, Spacing, VolumeHeader, regions_to_labels, two_level_ensemble, write_volume
from voxeval.errors import ValidationError
from voxeval.io import label_volume_bytes, read_probability_volume, read_volume

from oracles import nifti_oracle, two_level_oracle
from test_cli import ENSEMBLE_COLUMNS, write_manifest
from test_volume_mutations import nifti_bytes

#: NIfTI datatype code of each map dtype.
DATATYPE = {"float32": 16, "float64": 64, "uint8": 2, "int16": 4}


def map_file(path, p, dtype, order="<", scaling=None, members=1):
    """Write the probabilities ``p`` to ``path`` as ``dtype`` in byte order
    ``order``; with ``scaling`` (slope, intercept), ``p`` holds the stored
    integers.  A ``.nii.gz`` is split into ``members`` gzip members, each
    followed by zero padding."""
    raw = nifti_bytes(p, DATATYPE[dtype], order, (1.0, 1.0, 2.0), 1.0)
    if scaling is not None:
        struct.pack_into(order + "2f", raw, 112, *scaling)
    raw = bytes(raw)
    if path.name.endswith(".gz"):
        cuts = np.linspace(0, len(raw), members + 1).astype(int)
        raw = b"".join(gzip.compress(raw[a:b], mtime=0) + bytes(3) for a, b in zip(cuts, cuts[1:]))
    path.write_bytes(raw)
    return path


def spy_slabs(monkeypatch):
    """The path of each map whose slab is read, in order."""
    real, read = voxeval.io.ProbabilityMap.slab, []

    def slab(self, planes, buf):
        read.append(self.path)
        return real(self, planes, buf)

    monkeypatch.setattr(voxeval.io.ProbabilityMap, "slab", slab)
    return read


def member_sets(rows, tmp_path, read):
    """The case's members, each map read by ``read(path) -> (voxels,
    spacing)``, as one list of probability sets per configuration."""
    configurations = {}
    for _, configuration, *names in rows:
        maps = [read(tmp_path / name) for name in names]
        member = RegionProbSet(*(data for data, _ in maps), spacing=maps[0][1])
        configurations.setdefault(configuration, []).append(member)
    return list(configurations.values())


def oracle_read(path):
    spacing, voxels = nifti_oracle(path)
    return voxels, Spacing(*spacing)


# --------------------------------------------------------------------------
# bit identity


SHAPE = (5, 4, 7)

#: Each of a 3 + 2 case's 15 maps: file suffix, dtype, byte order, scaling
#: and gzip members.  The first map, float32, sets the slab's planes.
KINDS = [
    (".nii", "float32", "<", None, 1),
    (".nii.gz", "float64", ">", None, 1),
    (".nii", "uint8", "<", None, 1),
    (".nii.gz", "int16", ">", (0.2, 0.1), 1),
    (".nii.gz", "float32", "<", None, 3),
    (".nii", "float64", "<", None, 1),
    (".nii.gz", "uint8", ">", (0.25, 0.0), 2),
    (".nii", "int16", "<", None, 1),
    (".nii", "float32", ">", None, 1),
    (".nii.gz", "int16", "<", (0.2, 0.1), 1),
    (".nii.gz", "float64", "<", None, 2),
    (".nii", "float32", "<", (0.5, 0.25), 1),
    (".nii.gz", "uint8", "<", None, 1),
    (".nii", "int16", ">", (0.2, 0.1), 1),
    (".nii.gz", "float32", ">", None, 4),
]


def mixed_case(tmp_path, rng):
    """One case c0 of members 3 (configuration a) + 2 (b), whose maps take
    every kind in ``KINDS``; returns its manifest rows."""
    rows = []
    kinds = iter(KINDS)
    for k, configuration in enumerate("aaabb"):
        names = []
        for region in ("wt", "tc", "et"):
            suffix, dtype, order, scaling, members = next(kinds)
            if scaling is not None:  # stored integers that scale into [0, 1]
                top = 1 if dtype == "uint8" or scaling == (0.5, 0.25) else 4
                p = rng.integers(0, top + 1, SHAPE).astype(dtype)
            elif dtype in ("uint8", "int16"):
                p = rng.integers(0, 2, SHAPE)
            else:
                p = rng.random(SHAPE).astype(dtype)
                p[rng.random(SHAPE) < 0.2] = -0.0
            path = map_file(tmp_path / f"m{k}_{region}{suffix}", p, dtype, order, scaling, members)
            names.append(path.name)
        rows.append(["c0", configuration, *names])
    return rows


@pytest.mark.parametrize("slab_bytes", [240, 1])  # slabs of 3, 3 and 1 planes; of 1 plane
@pytest.mark.parametrize("threshold", [0.3, 0.5])
def test_slab_route_is_bit_identical_to_the_whole_map_route(tmp_path, monkeypatch, slab_bytes, threshold):
    rows = mixed_case(tmp_path, np.random.default_rng(26))
    manifest = write_manifest(tmp_path / "ens.csv", rows, columns=ENSEMBLE_COLUMNS)
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", slab_bytes)
    real_gate, gated = voxeval.cli._gate_labels, []

    def gate(labels, maps, *args):
        # Each map is copied as the gate takes it: the slab route fills the
        # same buffers again for the next region.
        copies = []
        gated.append(copies)
        return real_gate(labels, (copies.append(m.copy()) or m for m in maps), *args)

    monkeypatch.setattr(voxeval.cli, "_gate_labels", gate)
    out_dir = tmp_path / "labels"
    args = ["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--threshold", str(threshold)]
    assert voxeval.cli.main(args + ["--jobs", "1"]) == 0
    assert [len(maps[0][0, 0]) for maps in gated] == ([3, 3, 1] if slab_bytes == 240 else [1] * 7)

    combined = two_level_ensemble(member_sets(rows, tmp_path, read_probability_volume))
    oracle = two_level_oracle(member_sets(rows, tmp_path, oracle_read))  # read by a separate route too
    slabs = [np.concatenate([maps[r] for maps in gated], axis=2) for r in range(3)]
    for got, whole, want in zip(slabs, (combined.p_wt, combined.p_tc, combined.p_et), oracle):
        # Bit for bit: array_equal would take a -0.0 for 0.0.
        assert got.tobytes() == whole.tobytes() == want.tobytes()
    path = out_dir / "c0.nii.gz"
    assert path.read_bytes() == label_volume_bytes(path, regions_to_labels(combined, threshold))


# --------------------------------------------------------------------------
# faults


FAULT_SHAPE = (4, 3, 7)  # 48-byte float32 planes: 96 slab bytes take slabs of 2, 2, 2 and 1 planes


def three_cases(tmp_path, rng):
    """Cases c0, c1 and c2, each of members 2 (configuration a) + 1 (b) of
    float32 ``.nii.gz`` maps; returns the manifest rows."""
    rows = []
    for c in range(3):
        for k, configuration in enumerate("aab"):
            names = []
            for region in ("wt", "tc", "et"):
                path = tmp_path / f"c{c}_{k}_{region}.nii.gz"
                map_file(path, rng.random(FAULT_SHAPE).astype(np.float32), "float32")
                names.append(path.name)
            rows.append([f"c{c}", configuration, *names])
    return rows


def break_map(path, fault):
    """Rewrite the float32 ``.nii.gz`` map ``path`` with ``fault``."""
    raw = bytearray(gzip.decompress(path.read_bytes()))
    last = 352 + 4 * 12 * 6  # the first byte of the last plane, the last slab
    if fault in ("nan", "above"):
        struct.pack_into("<f", raw, 352, 0.0)  # the whole map's min, in the first slab
        struct.pack_into("<f", raw, last + 8, np.nan if fault == "nan" else 1.5)
        map_file(path, np.frombuffer(raw, "<f4", offset=352).reshape(FAULT_SHAPE, order="F"), "float32")
        return
    if fault == "short":  # a whole stream that ends in the third slab
        stream = gzip.compress(bytes(raw[: 352 + 4 * 12 * 5]), mtime=0)
    elif fault == "long":
        stream = gzip.compress(bytes(raw) + bytes(10), mtime=0)
    else:
        stream = bytearray(gzip.compress(bytes(raw), mtime=0))
        if fault == "crc":
            stream[-8] ^= 1
        else:  # "truncated": the compressed stream itself ends early
            del stream[len(stream) * 3 // 4 :]
    path.write_bytes(bytes(stream))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "fault, code, slabs",
    [
        # code: the exit code; slabs: the bad map's slab reads, of 4
        ("short", 4, 3),
        ("truncated", 4, None),
        ("long", 4, 4),
        ("crc", 4, 4),
        ("nan", 3, 4),
        ("above", 3, 4),
    ],
)
def test_a_payload_fault_stops_the_case_as_a_whole_map_read_would(tmp_path, monkeypatch, capsys, jobs, fault, code, slabs):
    rows = three_cases(tmp_path, np.random.default_rng(27))
    bad = tmp_path / rows[5][4]  # case c1's member of b, its ET map: the case's last map
    break_map(bad, fault)
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 96)  # so that both routes cut the same slabs
    with pytest.raises(Exception) as whole:
        read_probability_volume(bad)
    manifest = write_manifest(tmp_path / "ens.csv", rows, columns=ENSEMBLE_COLUMNS)
    read = spy_slabs(monkeypatch)
    out_dir = tmp_path / "labels"
    assert voxeval.cli.main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == f"case 'c1': {whole.value}"
    assert sorted(p.name for p in out_dir.iterdir()) == ["c0.nii.gz"]
    if slabs is not None:
        assert read.count(bad) == slabs
    if fault == "above":  # the range message names the last slab's min and max, not the map's 0.0
        last = read_volume(bad)[1][:, :, -1]
        assert isinstance(whole.value, ValidationError) and last.min() > 0.0
        assert str(whole.value).endswith(f"min={float(last.min())}, max=1.5")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("mismatch", ["shape", "spacing"])
def test_a_later_member_that_disagrees_stops_the_case_before_any_slab(tmp_path, monkeypatch, capsys, jobs, mismatch):
    rows = three_cases(tmp_path, np.random.default_rng(28))
    bad = tmp_path / rows[5][2]  # case c1's member of b, its WT map
    shape, spacing = ((4, 3, 6), Spacing(1, 1, 2)) if mismatch == "shape" else (FAULT_SHAPE, Spacing(1, 1, 3))
    write_volume(bad, VolumeHeader(shape, "float32", spacing), np.zeros(shape, np.float32))
    manifest = write_manifest(tmp_path / "ens.csv", rows, columns=ENSEMBLE_COLUMNS)
    read = spy_slabs(monkeypatch)
    out_dir = tmp_path / "labels"
    assert voxeval.cli.main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    text = "shape (4, 3, 6) differs from (4, 3, 7)" if mismatch == "shape" else (
        "spacing (1.0, 1.0, 3.0) differs from (1.0, 1.0, 2.0)"
    )
    first = tmp_path / rows[3][2]
    assert json.loads(lines[0])["error"]["message"] == f"case 'c1': {bad}: {text} of the case's first map {first}"
    assert sorted(p.name for p in out_dir.iterdir()) == ["c0.nii.gz"]
    assert not any(path.name.startswith("c1_") for path in read)
