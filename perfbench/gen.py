"""Seeded synthetic inputs and independent reference results for perfbench.

Everything here is built without importing voxeval: volumes are written by
a minimal NIfTI-1 writer of our own, masks come straight from the generated
arrays, HD95 comes from an all-pairs surface oracle (padded shifts for the
surface, exhaustive distances, a hand-written percentile) and ranks come
from ``scipy.stats.rankdata``.  The program under test only ever sees the
files written here, and its outputs are compared against the references
saved next to them.

All grids are isotropic 1 mm, so voxel indices are millimetres.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from common import REGIONS, THRESHOLD, WORKLOADS, WORST_HD95, region_masks, write_nifti

# --------------------------------------------------------------------------
# shapes


def _ellipsoid(shape, center, radii) -> np.ndarray:
    """Boolean ellipsoid, evaluated only inside its bounding box."""
    mask = np.zeros(shape, dtype=bool)
    lo = [max(0, math.floor(c - r)) for c, r in zip(center, radii)]
    hi = [min(s, math.ceil(c + r) + 1) for s, c, r in zip(shape, center, radii)]
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    grids = np.ogrid[box]
    mask[box] = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii)) <= 1.0
    return mask


def _paint_lesion(labels, center, radii, with_et: bool) -> None:
    """Edema shell, tumour core at 0.6x, enhancing ring over a necrotic centre."""
    shape = labels.shape
    labels[_ellipsoid(shape, center, radii)] = 2
    core = [0.6 * r for r in radii]
    labels[_ellipsoid(shape, center, core)] = 4 if with_et else 1
    labels[_ellipsoid(shape, center, [0.35 * r for r in radii])] = 1


# --------------------------------------------------------------------------
# oracle metrics


def _surface_points(mask: np.ndarray) -> np.ndarray:
    """Coordinates of voxels with a face neighbour outside the mask."""
    idx = np.argwhere(mask)
    lo = idx.min(axis=0)
    hi = idx.max(axis=0) + 1
    crop = mask[tuple(slice(a, b) for a, b in zip(lo, hi))]
    padded = np.pad(crop, 1, constant_values=False)
    surface = np.zeros_like(crop)
    for axis in range(3):
        for shift in (-1, 1):
            surface |= crop & ~np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return np.argwhere(surface) + lo


def _percentile(values: np.ndarray, q: float) -> float:
    xs = np.sort(values)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def _hd95(a: np.ndarray, b: np.ndarray) -> tuple[float, int, int]:
    """Brute-force HD95, plus surface voxels and the union-box voxel count."""
    pa = _surface_points(a).astype(np.float64)
    pb = _surface_points(b).astype(np.float64)
    min_ab = np.full(len(pa), np.inf)
    min_ba = np.full(len(pb), np.inf)
    for start in range(0, len(pa), 1024):
        block = cdist(pa[start : start + 1024], pb)
        min_ab[start : start + 1024] = block.min(axis=1)
        np.minimum(min_ba, block.min(axis=0), out=min_ba)
    both = np.argwhere(a | b)
    box = int(np.prod(both.max(axis=0) - both.min(axis=0) + 1))
    value = max(_percentile(min_ab, 95.0), _percentile(min_ba, 95.0))
    return value, len(pa) + len(pb), box


def region_record(ref: np.ndarray, pred: np.ndarray) -> dict:
    """Expected (dice, hd95, special_case) of one region plus its work counts."""
    ref_n = int(np.count_nonzero(ref))
    pred_n = int(np.count_nonzero(pred))
    if ref_n == 0 and pred_n == 0:
        return {"dice": 1.0, "hd95": 0.0, "special": "both_empty"}
    if ref_n == 0:
        return {"dice": 0.0, "hd95": WORST_HD95, "special": "ref_empty_pred_nonempty"}
    if pred_n == 0:
        return {"dice": 0.0, "hd95": WORST_HD95, "special": "ref_nonempty_pred_empty"}
    inter = int(np.count_nonzero(ref & pred))
    hd, surface, box = _hd95(ref, pred)
    return {
        "dice": 2 * inter / (ref_n + pred_n),
        "hd95": hd,
        "special": "none",
        "surface_voxels": surface,
        "box_voxels": box,
    }


def mean_ranks(dice: np.ndarray, hd95: np.ndarray) -> np.ndarray:
    """Mean fractional rank per algorithm over all (case, region, metric) columns.

    ``dice`` and ``hd95`` are (algorithms, columns); ties share mean positions.
    """
    ranks = np.concatenate(
        [rankdata(-dice, method="average", axis=0), rankdata(hd95, method="average", axis=0)],
        axis=1,
    )
    return ranks.sum(axis=1) / ranks.shape[1]


def _relation(a: float, b: float) -> str:
    return "better" if a < b else "worse" if a > b else "tied"


# --------------------------------------------------------------------------
# cohort_eval


def _gen_cohort(rng: np.random.Generator, out: Path) -> dict:
    spec = WORKLOADS["cohort_eval"]
    shape = tuple(spec["grid"])
    mid = np.array(shape) / 2.0
    rows, cases = [], []
    for i, kind in enumerate(spec["case_order"]):
        case_id = f"c{i:02d}_{kind}"
        ref = np.zeros(shape, dtype=np.uint8)
        pred = np.zeros(shape, dtype=np.uint8)
        if kind == "multifocal":
            # Two foci about 120 mm apart: the distance transform runs over a
            # union box of ~0.6 M voxels, ten times a compact lesion's.
            base = mid + rng.uniform(-4, 4, 3)
            offset = np.array([42.0, 36.0, 22.0])
            foci = [base - offset, base + offset]
            radii = np.array([11.0, 10.0, 9.0])
        else:
            foci = [mid + rng.uniform(-15, 15, 3)]
            radii = np.array([22.0, 20.0, 17.0])
        # Lesion sizes are fixed per case type and the prediction's error is
        # small, so the work per case hardly depends on the seed.
        for center in foci:
            _paint_lesion(ref, center, radii, with_et=kind != "no_et")
            shift = rng.uniform(-2.0, 2.0, 3)
            _paint_lesion(pred, center + shift, radii * rng.uniform(0.95, 1.05, 3), True)
        write_nifti(out / f"{case_id}_ref.nii.gz", ref)
        write_nifti(out / f"{case_id}_pred.nii.gz", pred)
        rows.append([case_id, f"{case_id}_ref.nii.gz", f"{case_id}_pred.nii.gz"])
        ref_m, pred_m = region_masks(ref), region_masks(pred)
        records = {r: region_record(ref_m[r], pred_m[r]) for r in REGIONS}
        cases.append({"id": case_id, "kind": kind, "records": records})
    _write_rows(out / "manifest.csv", ["case_id", "reference_path", "prediction_path"], rows)
    return {"cases": cases}


# --------------------------------------------------------------------------
# challenge_rank


def _gen_rank(rng: np.random.Generator, out: Path) -> dict:
    spec = WORKLOADS["challenge_rank"]
    n_alg, n_cases = spec["submissions"], spec["cases"]
    case_ids = [f"case{j:03d}" for j in range(n_cases)]
    no_et = set(rng.choice(n_cases, spec["cases_without_et"], replace=False).tolist())
    difficulty = rng.uniform(-0.15, 0.08, n_cases)
    region_offset = {"WT": 0.08, "TC": 0.0, "ET": -0.08}
    names = [f"team{a:02d}" for a in range(n_alg)]
    # (algorithms, cases, regions) score arrays in sorted-case order.
    dice = np.empty((n_alg, n_cases, 3))
    hd95 = np.empty((n_alg, n_cases, 3))
    for a, name in enumerate(names):
        skill = rng.uniform(0.72, 0.82)
        rows = []
        for j, case_id in enumerate(case_ids):
            for k, region in enumerate(REGIONS):
                if region == "ET" and j in no_et:
                    if rng.random() < skill:
                        d, h, special = 1.0, 0.0, "both_empty"
                    else:
                        d, h, special = 0.0, WORST_HD95, "ref_empty_pred_nonempty"
                elif region == "ET" and rng.random() < 0.04:
                    d, h, special = 0.0, WORST_HD95, "ref_nonempty_pred_empty"
                else:
                    mean = skill + difficulty[j] + region_offset[region]
                    # Dice to 0.01 and HD95 to 0.5 mm, as challenge tables report them.
                    d = round(float(np.clip(mean + rng.normal(0, 0.06), 0.05, 0.99)), 2)
                    h = round(2.0 * (1.0 + rng.gamma(1.5, 2.0) * (1.2 - d) * 2.0)) / 2.0
                    special = "none"
                dice[a, j, k] = d
                hd95[a, j, k] = h
                rows.append([case_id, region, repr(float(d)), repr(float(h)), special])
        _write_rows(out / f"{name}.csv", ["case_id", "region", "dice", "hd95", "special_case"], rows)

    def ranking(rows: list[int]) -> dict:
        mr = mean_ranks(dice[rows].reshape(len(rows), -1), hd95[rows].reshape(len(rows), -1))
        score = mr / len(rows)
        order = np.argsort(score, kind="stable")
        return {
            "algorithms": [names[i] for i in rows],
            "mean_rank": mr.tolist(),
            "score": score.tolist(),
            "ordering": [names[rows[i]] for i in order],
        }

    full = ranking(list(range(n_alg)))
    flips = []
    for r in range(n_alg):
        keep = [i for i in range(n_alg) if i != r]
        sub = ranking(keep)["score"]
        for x in range(len(keep)):
            for y in range(x + 1, len(keep)):
                a, b = keep[x], keep[y]
                before = _relation(full["score"][a], full["score"][b])
                after = _relation(sub[x], sub[y])
                if before != after:
                    flips.append([names[r], names[a], names[b], before, after])
    store = ranking(list(range(spec["leaderboard_adds"])))
    return {"full": full, "flips": flips, "store": store}


# --------------------------------------------------------------------------
# ensemble_postprocess


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _band_noise(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    return rng.normal(0.0, 0.08, d.shape) * (np.abs(d) < 3.0)


def _quantise(p: np.ndarray) -> np.ndarray:
    # Multiples of 1/256 keep every member sum exact, so any summation order
    # gives the same ensemble mean.
    return (np.clip(np.round(p * 256.0), 0, 256) / 256.0).astype(np.float32)


def _gen_ensemble(rng: np.random.Generator, out: Path) -> dict:
    spec = WORKLOADS["ensemble_postprocess"]
    shape = tuple(spec["grid"])
    n_cases = spec["cases"]
    without_et = set(rng.choice(n_cases, spec["cases_without_et"], replace=False).tolist())
    grids = np.ogrid[tuple(slice(0, s) for s in shape)]
    mid = np.array(shape) / 2.0

    def rho(center, radii):
        """Signed distance-like field: negative inside the ellipsoid."""
        r2 = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
        return (np.sqrt(r2) - 1.0) * float(np.mean(radii))

    # Distinct lesion sizes and blob radii give distinct predicted ET volumes,
    # so every seed sweeps the same number of candidates (2 * cases + 1).
    scales = 0.9 + 0.04 * rng.permutation(n_cases)
    blob_radii = iter(1.7 + 0.6 * rng.permutation(len(without_et)))
    ens_rows, pp_rows, cases, expected = [], [], [], {}
    for i in range(n_cases):
        case_id = f"e{i:02d}"
        has_et = i not in without_et
        center = mid + rng.uniform(-6, 6, 3)
        radii = np.array([15.0, 13.0, 12.0]) * scales[i]
        blob_radius = None if has_et else next(blob_radii)
        ref = np.zeros(shape, dtype=np.uint8)
        _paint_lesion(ref, center, radii, with_et=has_et)
        write_nifti(out / f"{case_id}_ref.nii.gz", ref)
        pp_rows.append([case_id, str((out / f"{case_id}_ref.nii.gz").resolve()), f"ensemble/{case_id}.nii.gz"])
        # A small spurious enhancing blob inside the core of ET-free cases.
        blob = center + np.array([0.3 * radii[0], 0.0, 0.0])
        config_means = []
        for config, n_members in spec["members"].items():
            maps = []
            for m in range(n_members):
                jitter = center + rng.uniform(-1.0, 1.0, 3)
                scale = rng.uniform(0.95, 1.05)
                d_wt = rho(jitter, radii * scale)
                d_tc = rho(jitter, 0.6 * radii * scale)
                d_in = rho(jitter, 0.35 * radii * scale)
                # Member noise only near each boundary, as in real softmax maps.
                p_wt = _quantise(_sigmoid(-d_wt / 1.5) + _band_noise(rng, d_wt))
                p_tc = _quantise(_sigmoid(-d_tc / 1.5) + _band_noise(rng, d_tc))
                if has_et:
                    p_et = _quantise(_sigmoid(-d_tc / 1.5) * _sigmoid(d_in / 1.5))
                else:
                    level = 0.9 if config == "3d_fullres" else 0.4
                    p_et = _quantise(level * (rho(blob, [blob_radius] * 3) < 0.0))
                paths = []
                for region, p in (("wt", p_wt), ("tc", p_tc), ("et", p_et)):
                    name = f"{case_id}_{config}_{m}_{region}.nii.gz"
                    write_nifti(out / name, p)
                    paths.append(name)
                ens_rows.append([case_id, config, *paths])
                maps.append(np.stack([p_wt, p_tc, p_et]).astype(np.float64))
            config_means.append(np.mean(maps, axis=0))
        p = np.mean(config_means, axis=0)
        wt, tc, et = (p[k] >= THRESHOLD for k in range(3))
        labels = np.zeros(shape, dtype=np.uint8)
        labels[wt] = 2
        labels[wt & tc] = 1
        labels[wt & tc & et] = 4
        expected[case_id] = labels
        ref_m, pred_m = region_masks(ref), region_masks(labels)
        cases.append(
            {
                "id": case_id,
                "has_et": has_et,
                "et_voxels": int(np.count_nonzero(pred_m["ET"])),
                "records": {r: region_record(ref_m[r], pred_m[r]) for r in REGIONS},
                "removed_et": region_record(ref_m["ET"], np.zeros(shape, dtype=bool)),
            }
        )
    _write_rows(out / "ensemble.csv", ["case_id", "configuration", "wt_path", "tc_path", "et_path"], ens_rows)
    _write_rows(out / "postprocess.csv", ["case_id", "reference_path", "prediction_path"], pp_rows)
    np.savez_compressed(out / "expected_labels.npz", **expected)
    return {"cases": cases, "sweep": _sweep_reference(cases)}


def _sweep_reference(cases: list[dict]) -> dict:
    """Per-case kept/removed ET outcomes combined over the candidate grid."""
    volumes = [float(c["et_voxels"]) for c in cases]
    grid = sorted({0.0, *volumes, *(v + 0.5 for v in volumes)})
    dice = np.empty((len(grid), len(cases)))
    hd = np.empty((len(grid), len(cases)))
    perfect = [0] * len(grid)
    worst = [0] * len(grid)
    removed_at = []
    for i, t in enumerate(grid):
        removed_at.append([0.0 < v < t for v in volumes])
        for j, case in enumerate(cases):
            rec = case["removed_et"] if removed_at[i][j] else case["records"]["ET"]
            dice[i, j], hd[i, j] = rec["dice"], rec["hd95"]
            perfect[i] += (rec["dice"], rec["hd95"]) == (1.0, 0.0)
            worst[i] += (rec["dice"], rec["hd95"]) == (0.0, WORST_HD95)
    score = mean_ranks(dice, hd) / len(grid)
    mean_dice = dice.mean(axis=1)
    best_by_dice = grid[int(np.argmax(mean_dice))]
    best_by_rank = grid[int(np.argmin(score))]
    return {
        "thresholds": grid,
        "mean_et_dice": mean_dice.tolist(),
        "perfect": perfect,
        "worst": worst,
        "ranking_score": score.tolist(),
        "choice": {"best_by_dice": best_by_dice, "best_by_rank": best_by_rank},
        "removed_at": removed_at,
    }


# --------------------------------------------------------------------------
# cache


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_GENERATORS = {
    "cohort_eval": _gen_cohort,
    "challenge_rank": _gen_rank,
    "ensemble_postprocess": _gen_ensemble,
}


def ensure_inputs(workload: str, seed: int, cache: Path) -> Path:
    """Return the input directory of (workload, seed), generating it once.

    A ``refs.json`` written last marks a complete directory.
    """
    out = cache / workload / f"seed-{seed}"
    if not (out / "refs.json").is_file():
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rng = np.random.default_rng([seed, list(_GENERATORS).index(workload)])
        refs = _GENERATORS[workload](rng, out)
        (out / "refs.json").write_text(json.dumps(refs))
    return out
