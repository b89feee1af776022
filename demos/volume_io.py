"""
Reading and writing volumes
===========================

The package reads and writes a strict subset of NIfTI-1 (.nii, .nii.gz).
Every write is deterministic and every read validates the header before
touching the payload.
"""

import tempfile
from pathlib import Path

import numpy as np

from voxeval import (
    FormatError,
    Spacing,
    VolumeHeader,
    read_label_volume,
    read_volume,
    write_volume,
)

workdir = Path(tempfile.mkdtemp(prefix="voxeval_io_"))

#%%
# Round trips preserve values bit for bit for all five supported dtypes
# (uint8, int16, int32, float32, float64). The header carries the
# voxel spacing in millimetres.

data = np.linspace(-1.0, 1.0, 4 * 5 * 6, dtype=np.float32).reshape(4, 5, 6)
path = workdir / "volume.nii.gz"
write_volume(path, VolumeHeader(data.shape, "float32", Spacing(0.5, 0.5, 2.0)), data)
header, back = read_volume(path)
print("identical payload:", back.tobytes() == data.tobytes())
print("spacing:", header.spacing.as_tuple())

#%%
# Writes refuse values the target dtype cannot represent exactly, rather
# than silently clipping or rounding.

try:
    write_volume(workdir / "clip.nii", VolumeHeader((1, 1, 1), "uint8", Spacing()), np.array([[[300]]]))
except Exception as exc:
    print("uint8 write of 300 ->", exc)

#%%
# Reads validate structure before data: magic, dimensionality, datatype
# code, and the exact payload size. Both byte orders are accepted on
# read; writes always produce little-endian files.

good = workdir / "volume.nii"
write_volume(good, VolumeHeader(data.shape, "float32", Spacing()), data)
broken = bytearray(good.read_bytes())
broken[344:348] = b"ni1\0"  # the two-file NIfTI variant is not supported
bad = workdir / "pair.nii"
bad.write_bytes(bytes(broken))
try:
    read_volume(bad)
except FormatError as exc:
    print("two-file header ->", exc)

#%%
# Label volumes get one extra validation layer: only the configured
# label codes are allowed, and float payloads must be integral.

labels = np.zeros((3, 3, 3), dtype=np.uint8)
labels[1, 1, 1] = 4
write_volume(workdir / "seg.nii", VolumeHeader(labels.shape, "uint8", Spacing()), labels)
volume = read_label_volume(workdir / "seg.nii")
print("label codes present:", sorted(np.unique(volume.data).tolist()))
