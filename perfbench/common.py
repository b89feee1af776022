"""Constants and file helpers shared by the perfbench generator and the timed
runner (drive.py).

Kept free of scipy and voxeval so the timed runner's memory holds only what
the program under test loads.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

WORST_HD95 = 373.13
REGIONS = ("WT", "TC", "ET")
# Probability threshold of the outside-in rule; the CLI's default.
THRESHOLD = 0.5

#: The fixed description of every workload, printed with each run.
WORKLOADS = {
    "cohort_eval": {
        "why": "BraTS-grid batch evaluation: loads io reads, volume validation, "
        "metrics distances, aggregate and the cli pool; ranking, postprocess "
        "and ensemble stay idle.",
        "grid": [240, 240, 155],
        "dtype": "uint8 .nii.gz",
        # Fixed case order, so the pool's schedule is the same for every seed.
        "case_order": [
            "multifocal", "compact", "no_et", "compact",
            "multifocal", "compact", "no_et",
        ],
        "steps": ["evaluate --jobs nproc", "evaluate --jobs 1"],
    },
    "challenge_rank": {
        "why": "Score tables only: loads ranking and cli CSV/JSON parsing and "
        "writing, including the leaderboard store; io and metrics stay idle.",
        "submissions": 50,
        "cases": 125,
        "cases_without_et": 25,
        "leaderboard_adds": 20,
        "steps": ["rank", "stability", "leaderboard add x K"],
    },
    "ensemble_postprocess": {
        "why": "Inference-side pipeline: loads float reads, ensemble, "
        "regions_to_labels, gzip-9 writes and the quadratic threshold sweep, "
        "none of which cohort_eval uses.",
        "grid": [64, 64, 64],
        "dtype": "float32 .nii.gz maps, uint8 .nii.gz labels",
        "cases": 8,
        "cases_without_et": 3,
        "members": {"3d_fullres": 3, "3d_lowres": 2},
        "steps": ["ensemble", "optimize-postprocess", "apply-postprocess"],
    },
}

# --------------------------------------------------------------------------
# minimal NIfTI-1 (single file, little-endian, 1 mm, no scaling)

_NIFTI_TYPES = {np.dtype(np.uint8): (2, 8), np.dtype(np.float32): (16, 32)}
_NIFTI_DTYPES = {code: dt for dt, (code, _) in _NIFTI_TYPES.items()}


def write_nifti(path: Path, data: np.ndarray) -> None:
    code, bits = _NIFTI_TYPES[data.dtype]
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, code, bits)
    struct.pack_into("<8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", hdr, 108, 352.0, 1.0, 0.0)
    hdr[344:348] = b"n+1\0"
    stream = bytes(hdr) + b"\0" * 4 + data.astype(data.dtype.newbyteorder("<")).tobytes(order="F")
    path.write_bytes(gzip.compress(stream, compresslevel=1, mtime=0))


def read_nifti(path: Path) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Read a little-endian single-file NIfTI-1 volume written by anyone."""
    raw = Path(path).read_bytes()
    if str(path).endswith(".gz"):
        raw = gzip.decompress(raw)
    if struct.unpack_from("<i", raw, 0)[0] != 348 or raw[344:348] != b"n+1\0":
        raise ValueError(f"{path}: not a little-endian single-file NIfTI-1 volume")
    dims = struct.unpack_from("<8h", raw, 40)[1:4]
    code = struct.unpack_from("<h", raw, 70)[0]
    spacing = struct.unpack_from("<3f", raw, 80)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    dtype = _NIFTI_DTYPES[code]
    count = dims[0] * dims[1] * dims[2]
    data = np.frombuffer(raw, dtype=dtype.newbyteorder("<"), count=count, offset=offset)
    return data.reshape(dims, order="F").astype(dtype), spacing


def region_masks(labels: np.ndarray) -> dict[str, np.ndarray]:
    """BraTS regions straight from the default label codes 0/1/2/4."""
    return {
        "WT": labels != 0,
        "TC": (labels == 1) | (labels == 4),
        "ET": labels == 4,
    }


def status_kb(key: str) -> int:
    """A kB field of this process's /proc status, such as VmHWM or VmRSS."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key):
            return int(line.split()[1])
    raise KeyError(key)
