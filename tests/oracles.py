"""Independent reference implementations the tests check against.

Each oracle deliberately takes a different route from the library code:
label checks by set membership voxel by voxel, surfaces by rolling a padded
mask instead of slicing it, distances via exhaustive pairwise computation
instead of a separable search, percentiles by hand instead of numpy, ranks via
scipy.stats.rankdata, the challenge ranking and jackknife as plain loops
over columns, pools and pairs, and the threshold sweep by applying and
rescoring every candidate on every case, the two-level ensemble mean
voxel by voxel in Python floats, NIfTI-1 files field by field and voxel
by voxel with zlib's own gzip wrapper, a leaderboard store's check by
building a record for every entry, and CSV inputs through ``csv.DictReader``.
"""

from __future__ import annotations

import csv
import math
import struct
import zlib
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from voxeval import (
    DEFAULT_POLICY,
    REGIONS,
    MetricRecord,
    RankFlip,
    RankResult,
    SpecialCase,
    StabilityReport,
    apply_et_threshold,
    evaluate_case,
)
from voxeval.errors import FormatError, ValidationError


def label_check_oracle(data, codes):
    """The first voxel in memory order (by its byte offset from the first
    voxel) whose value is not a code, as ``(value, voxel)``, or None when
    every voxel holds a code."""
    allowed = {int(code) for code in codes}
    for voxel in sorted(np.ndindex(data.shape), key=lambda v: sum(i * s for i, s in zip(v, data.strides))):
        value = int(data[voxel])
        if value not in allowed:
            return value, voxel
    return None


def box_oracle(mask):
    """The box around the true voxels of ``mask``, as slices taken from their
    coordinates; no true voxel gives the empty box (0, 0, 0)."""
    idx = np.argwhere(mask)
    if not len(idx):
        return (slice(0, 0),) * 3
    return tuple(slice(int(lo), int(hi) + 1) for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))


def dice_oracle(a, b) -> float:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    na = int(a.sum())
    nb = int(b.sum())
    inter = int((a & b).sum())
    return 2 * inter / (na + nb)


def surface_oracle(mask) -> np.ndarray:
    """Voxels with a face neighbour outside the mask (edges count as outside)."""
    m = np.asarray(mask, dtype=bool)
    padded = np.pad(m, 1, constant_values=False)
    out = np.zeros_like(m)
    for axis in range(3):
        for shift in (-1, 1):
            neighbour = np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
            out |= m & ~neighbour
    return out


def surface_distances_oracle(a, b, spacing) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs nearest-surface distances, chunked to bound memory."""
    scale = np.asarray(spacing.as_tuple())
    pts_a = np.argwhere(surface_oracle(a)) * scale
    pts_b = np.argwhere(surface_oracle(b)) * scale
    min_ab = np.full(len(pts_a), np.inf)
    min_ba = np.full(len(pts_b), np.inf)
    chunk = 512
    for start in range(0, len(pts_a), chunk):
        block = cdist(pts_a[start : start + chunk], pts_b)
        min_ab[start : start + chunk] = block.min(axis=1)
        np.minimum(min_ba, block.min(axis=0), out=min_ba)
    return min_ab, min_ba


def axis0_steps_oracle(surface) -> np.ndarray:
    """Each voxel's step along axis 0 to the nearest true voxel of its
    column, found column by column over all of them; -1 in a column with none."""
    surface = np.asarray(surface, dtype=bool)
    out = np.full(surface.shape, -1, dtype=np.int64)
    planes = np.arange(surface.shape[0])
    for j in range(surface.shape[1]):
        for k in range(surface.shape[2]):
            at = np.flatnonzero(surface[:, j, k])
            if at.size:
                out[:, j, k] = np.abs(planes[:, None] - at[None, :]).min(axis=1)
    return out


def percentile_oracle(values, q: float) -> float:
    """Linear interpolation at position (n-1)q/100, written out by hand."""
    xs = sorted(float(v) for v in np.asarray(values).ravel())
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def hd95_oracle(a, b, spacing) -> float:
    d_ab, d_ba = surface_distances_oracle(a, b, spacing)
    return max(percentile_oracle(d_ab, 95.0), percentile_oracle(d_ba, 95.0))


def evaluate_case_oracle(ref, pred, policy=DEFAULT_POLICY) -> list[tuple]:
    """(region, dice, hd95, special-case tag) per region, on the full grid.

    Regions by set membership of the label codes, the empty-region rule
    written out, and ``dice_oracle``/``hd95_oracle`` on the uncropped masks.
    """
    coding = ref.coding
    members = {
        "WT": (coding.necrosis, coding.edema, coding.enhancing),
        "TC": (coding.necrosis, coding.enhancing),
        "ET": (coding.enhancing,),
    }
    out = []
    for region, codes in members.items():
        a = np.isin(np.asarray(ref.data), codes)
        b = np.isin(np.asarray(pred.data), codes)
        if not a.any() and not b.any():
            out.append((region, policy.perfect_dice, policy.perfect_hd95, "both_empty"))
        elif not a.any():
            out.append((region, policy.worst_dice, policy.worst_hd95, "ref_empty_pred_nonempty"))
        elif not b.any():
            out.append((region, policy.worst_dice, policy.worst_hd95, "ref_nonempty_pred_empty"))
        else:
            out.append((region, dice_oracle(a, b), hd95_oracle(a, b, ref.spacing), "none"))
    return out


def soft_dice_oracle(probs, refs, mode: str, smooth: float = 1e-5) -> float:
    """Soft Dice from each (sample, region) overlap ``np.sum(p, where=g)`` and
    total ``p.sum() + count_nonzero(g)`` of float64 maps, combined in Python
    floats: "sample" mode takes (2 * overlap + s) / (total + s) of each pair;
    "batch" mode first sums each region's overlaps and totals from 0.0 in
    sample order.  The terms, sample by sample and WT, TC, ET within one,
    are averaged by ``np.mean``."""
    regions = ("WT", "TC", "ET")
    sums = []
    for p, g in zip(probs, refs):
        row = []
        for name in regions:
            pm, gm = np.asarray(p.region(name), dtype=np.float64), g.region(name)
            row.append((float(np.sum(pm, where=gm)), float(pm.sum()) + int(np.count_nonzero(gm))))
        sums.append(row)
    if mode == "batch":
        batch = []
        for k in range(len(regions)):
            overlap = total = 0.0
            for row in sums:
                overlap += row[k][0]
                total += row[k][1]
            batch.append((overlap, total))
        sums = [batch]
    terms = [(2.0 * overlap + smooth) / (total + smooth) for row in sums for overlap, total in row]
    return float(np.mean(terms))


def rank_oracle(values, direction: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if direction == "higher_better":
        return rankdata(-arr, method="average")
    return rankdata(arr, method="average")


def brats_ranking_oracle(dice, hd95) -> tuple[list[float], list[float]]:
    """Mean ranks and scores of (N, M, R) score arrays, one column at a time.

    Every (case, region) gives a Dice column (higher better) and an HD95
    column (lower better); an algorithm's mean rank is the mean of its
    ``rank_oracle`` ranks over all of them, and its score is that mean / N.
    """
    dice = np.asarray(dice, dtype=float)
    hd95 = np.asarray(hd95, dtype=float)
    n_alg, n_cases, n_regions = dice.shape
    totals = [0.0] * n_alg
    columns = 0
    for j in range(n_cases):
        for k in range(n_regions):
            for values, direction in (
                (dice[:, j, k], "higher_better"),
                (hd95[:, j, k], "lower_better"),
            ):
                for i, rank in enumerate(rank_oracle(values, direction)):
                    totals[i] += float(rank)
                columns += 1
    mean_rank = [total / columns for total in totals]
    return mean_rank, [m / n_alg for m in mean_rank]


def jackknife_oracle(algorithms, dice, hd95) -> dict:
    """Leave-one-out mean ranks and scores, flips and position ranges by brute force.

    Each pool without one algorithm is re-ranked with
    ``brats_ranking_oracle``; every pair (a, b), a listed before b, is
    compared with ``<`` and ``>`` in the full pool and in that pool.
    """
    dice = np.asarray(dice, dtype=float)
    hd95 = np.asarray(hd95, dtype=float)

    def relation(score_a, score_b):
        if score_a < score_b:
            return "better"
        if score_a > score_b:
            return "worse"
        return "tied"

    full = dict(zip(algorithms, brats_ranking_oracle(dice, hd95)[1]))
    mean_ranks: dict[str, list[float]] = {}
    scores: dict[str, list[float]] = {}
    flips: list[tuple[str, str, str, str, str]] = []
    positions: dict[str, list[float]] = {alg: [] for alg in algorithms}
    for r, removed in enumerate(algorithms):
        rows = [i for i in range(len(algorithms)) if i != r]
        pool = [algorithms[i] for i in rows]
        mean_ranks[removed], scores[removed] = brats_ranking_oracle(dice[rows], hd95[rows])
        sub = dict(zip(pool, scores[removed]))
        for alg, position in zip(pool, rank_oracle(scores[removed], "lower_better")):
            positions[alg].append(float(position))
        for i, a in enumerate(pool):
            for b in pool[i + 1 :]:
                before = relation(full[a], full[b])
                after = relation(sub[a], sub[b])
                if before != after:
                    flips.append((removed, a, b, before, after))
    return {
        "leave_one_out": scores,
        "leave_one_out_mean_rank": mean_ranks,
        "flips": flips,
        "rank_ranges": {alg: (min(p), max(p)) for alg, p in positions.items()},
    }


def pairwise_wins_loop_oracle(keys: np.ndarray) -> np.ndarray:
    """The row-by-row pairwise-wins matrix with two comparisons per row:
    lower keys win a column, ties win half of it."""
    wins = np.empty((len(keys), len(keys)))
    for r, row in enumerate(keys):
        lower = np.count_nonzero(row < keys, axis=1)
        tied = np.count_nonzero(row == keys, axis=1)
        wins[r] = lower + tied / 2.0
    return wins


def jackknife_loop_oracle(table) -> StabilityReport:
    """The jackknife as one loop over removed algorithms, re-ranking each
    pool's scores and comparing its relations with the full pool's.

    Kept as it stood before the pools were compared all at once; wins come
    from ``pairwise_wins_loop_oracle``.
    """

    def relations(score):
        return np.sign(np.subtract.outer(score, score)).astype(np.intp) + 1

    def result(algorithms, rank_sums, n_cols):
        mean_rank = rank_sums / n_cols
        return RankResult(algorithms, mean_rank, mean_rank / len(algorithms))

    names = ("better", "tied", "worse")
    ids = table.algorithms
    n_alg = len(ids)
    keys = np.stack([-table.dice, table.hd95], axis=-1).reshape(n_alg, -1)
    wins = pairwise_wins_loop_oracle(keys)
    rank_sums, n_cols = wins.sum(axis=0) + keys.shape[1] / 2.0, keys.shape[1]
    full = result(ids, rank_sums, n_cols)
    full_relations = relations(full.score)
    leave_one_out = {}
    flips = []
    positions = np.full((n_alg, n_alg), np.nan)
    for r, removed in enumerate(ids):
        keep = np.arange(n_alg) != r
        sub = result(ids[:r] + ids[r + 1 :], (rank_sums - wins[r])[keep], n_cols)
        leave_one_out[removed] = sub
        positions[r, keep] = pairwise_wins_loop_oracle(sub.score[:, None]).sum(axis=0) + 0.5
        before = full_relations[np.ix_(keep, keep)]
        after = relations(sub.score)
        for a, b in zip(*np.nonzero(np.triu(before != after, k=1))):
            pair = (sub.algorithms[a], sub.algorithms[b])
            flips.append(RankFlip(removed, *pair, names[before[a, b]], names[after[a, b]]))
    lows = np.nanmin(positions, axis=0)
    highs = np.nanmax(positions, axis=0)
    ranges = {alg: (float(lo), float(hi)) for alg, lo, hi in zip(ids, lows, highs)}
    return StabilityReport(full, leave_one_out, tuple(flips), ranges)


def sweep_oracle(cases, candidates, policy=DEFAULT_POLICY) -> dict:
    """A threshold sweep by brute force: every candidate on every case.

    Each prediction is cleaned with ``apply_et_threshold`` and fully
    rescored with ``evaluate_case``; the ET record is counted as perfect
    before it is counted as worst, and the pool is ranked with
    ``brats_ranking_oracle``.
    """
    thresholds = sorted(set(float(t) for t in candidates))
    dice = np.empty((len(thresholds), len(cases), 1))
    hd95 = np.empty_like(dice)
    perfect = [0] * len(thresholds)
    worst = [0] * len(thresholds)
    for i, threshold in enumerate(thresholds):
        for j, (ref, pred) in enumerate(cases):
            et = evaluate_case(ref, apply_et_threshold(pred, threshold), policy)[2]
            dice[i, j, 0] = et.dice
            hd95[i, j, 0] = et.hd95
            if (et.dice, et.hd95) == (policy.perfect_dice, policy.perfect_hd95):
                perfect[i] += 1
            elif (et.dice, et.hd95) == (policy.worst_dice, policy.worst_hd95):
                worst[i] += 1
    return {
        "thresholds": tuple(thresholds),
        "mean_et_dice": [float(np.mean(dice[i, :, 0])) for i in range(len(thresholds))],
        "perfect_counts": perfect,
        "worst_counts": worst,
        "ranking_scores": brats_ranking_oracle(dice, hd95)[1],
    }


def two_level_oracle(configurations, weights=None) -> list[np.ndarray]:
    """The two-level ensemble mean of each region, voxel by voxel in Python
    floats: each configuration's members summed in order from 0.0, divided
    by their count and clipped to [0, 1]; then those means, each times its
    weight, summed in configuration order from 0.0, divided by the weights'
    sum and clipped again.

    ``configurations`` is a list of lists of probability sets.
    """
    if weights is None:
        weights = [1.0] * len(configurations)
    total = 0.0
    for weight in weights:
        total += float(weight)
    out = []
    for field in ("p_wt", "p_tc", "p_et"):
        maps = [[getattr(member, field) for member in members] for members in configurations]
        result = np.empty(maps[0][0].shape)
        for voxel in np.ndindex(result.shape):
            acc = 0.0
            for weight, members in zip(weights, maps):
                s = 0.0
                for m in members:
                    s += float(m[voxel])
                acc += float(weight) * min(max(s / len(members), 0.0), 1.0)
            result[voxel] = min(max(acc / total, 0.0), 1.0)
        out.append(result)
    return out


#: NIfTI-1 datatype code -> (struct format of one voxel, numpy dtype name)
NIFTI_TYPES = {2: ("B", "uint8"), 4: ("h", "int16"), 8: ("i", "int32"), 16: ("f", "float32"), 64: ("d", "float64")}


def nifti_oracle(path):
    """``(spacing, voxels)`` of a volume file as voxeval's NIfTI-1 subset
    reads it, or None when the subset rejects the file.

    The subset: one file, gzipped iff named ``.nii.gz`` (members in a row,
    zero padding between them, reserved flag bits ignored); sizeof_hdr 348
    in either byte order, which then holds for every field; magic
    "n+1\\0"; dim[0] 3 and positive dim[1:4]; one of five datatypes with
    its own bitpix; finite positive pixdim[1:4]; an integral vox_offset of
    at least 348; and exactly the payload the header declares after it.
    Voxels keep the stored type, or are float64 ``value * scl_slope +
    scl_inter`` when scl_slope is nonzero and the pair is not (1, 0); such
    a pair must be finite.

    A separate route from ``voxeval.io``: gzip members through zlib's own
    gzip wrapper, each field unpacked at its offset, and each voxel
    unpacked by its Fortran-order index.
    """
    raw = Path(path).read_bytes()
    if str(path).lower().endswith(".nii.gz"):
        members = []
        while raw:
            if len(raw) > 3:  # Python's gzip ignores the reserved flag bits; zlib refuses them
                raw = raw[:3] + bytes([raw[3] & 0x1F]) + raw[4:]
            inflate = zlib.decompressobj(31)
            try:
                members.append(inflate.decompress(raw))
            except zlib.error:
                return None
            if not inflate.eof:
                return None
            raw = inflate.unused_data.lstrip(b"\0")
        raw = b"".join(members)
    if len(raw) < 348:
        return None
    if int.from_bytes(raw[:4], "little", signed=True) == 348:
        order = "<"
    elif int.from_bytes(raw[:4], "big", signed=True) == 348:
        order = ">"
    else:
        return None
    dim = struct.unpack(order + "8h", raw[40:56])
    datatype, bitpix = struct.unpack(order + "2h", raw[70:74])
    pixdim = struct.unpack(order + "8f", raw[76:108])
    vox_offset, slope, intercept = struct.unpack(order + "3f", raw[108:120])
    if raw[344:348] != b"n+1\0" or dim[0] != 3 or min(dim[1:4]) < 1 or datatype not in NIFTI_TYPES:
        return None
    fmt, dtype = NIFTI_TYPES[datatype]
    size = struct.calcsize(fmt)
    if bitpix != 8 * size or not all(0.0 < p < math.inf for p in pixdim[1:4]):
        return None
    if not (math.isfinite(vox_offset) and vox_offset == int(vox_offset) and vox_offset >= 348):
        return None
    nx, ny, nz = dim[1:4]
    start = int(vox_offset)
    if len(raw) - start != nx * ny * nz * size:
        return None
    voxels = np.empty((nx, ny, nz), dtype)
    for x, y, z in np.ndindex(nx, ny, nz):
        voxels[x, y, z] = struct.unpack_from(order + fmt, raw, start + size * (x + nx * (y + ny * z)))[0]
    if slope != 0.0 and (slope, intercept) != (1.0, 0.0):
        if not (math.isfinite(slope) and math.isfinite(intercept)):
            return None
        scaled = np.empty(voxels.shape)
        for voxel in np.ndindex(voxels.shape):
            scaled[voxel] = float(voxels[voxel]) * slope + intercept
        voxels = scaled
    return (pixdim[1], pixdim[2], pixdim[3]), voxels


def store_walk_oracle(path, submissions) -> str | None:
    """The message that rejects a nonempty store's submissions, or None when
    they are valid, by a walk that builds a ``MetricRecord`` and a
    ``SpecialCase`` for every entry: each submission's shape and id, then
    its entries in document order; then, over all submissions, the case
    sets against submission 0's and each case's region set.
    """
    seen = set()
    for n, submission in enumerate(submissions):
        where = f"leaderboard store {path}: submission {n}"
        if not (
            isinstance(submission, dict)
            and isinstance(submission.get("algorithm_id"), str)
            and isinstance(submission.get("metrics"), dict)
            and all(isinstance(regions, dict) for regions in submission["metrics"].values())
        ):
            return (f"{where} needs a string 'algorithm_id' and 'metrics' mapping "
                    "case -> region -> {dice, hd95, special_case}")
        if submission["algorithm_id"] in seen:
            return f"{where}: duplicate algorithm_id {submission['algorithm_id']!r}"
        seen.add(submission["algorithm_id"])
        for case_id, regions in submission["metrics"].items():
            at = f"{where} case {case_id}"
            for region, entry in regions.items():
                if not isinstance(entry, dict) or any(
                    type(entry.get(key)) not in (int, float) for key in ("dice", "hd95")
                ):
                    return f"{at}: region {region!r} needs numeric dice and hd95"
                special = entry.get("special_case", "none")
                try:  # the arguments in order: scores, special case, then the region check
                    record = MetricRecord(region, float(entry["dice"]), float(entry["hd95"]), SpecialCase(special))
                except (TypeError, ValueError, OverflowError) as exc:
                    return f"{at}: {exc}"
                if not (0.0 <= record.dice <= 1.0 and 0.0 <= record.hd95 < math.inf):
                    return (f"{at}: {region} needs dice in [0, 1] and a finite nonnegative hd95, "
                            f"got dice {record.dice!r}, hd95 {record.hd95!r}")
    first = submissions[0]["metrics"]
    if not first:
        return f"leaderboard store {path}: submission 0 has no cases"
    for n, submission in enumerate(submissions):
        where = f"leaderboard store {path}: submission {n}"
        differing = sorted(set(first) ^ set(submission["metrics"]))
        if differing:
            state = "missing, but in" if differing[0] in first else "not in"
            return (f"{where} case {differing[0]}: {state} submission 0; "
                    "every submission must cover the same cases")
        for case_id, regions in submission["metrics"].items():
            if set(regions) != set(REGIONS):
                return (f"{where} case {case_id}: needs one entry per region "
                        f"{list(REGIONS)}, got {sorted(regions)}")
    return None


def csv_rows_oracle(path, required, what):
    """Yield ``(where, stripped case_id, row)`` for each data row of a CSV
    input, as the CLI's reader does, by a ``csv.DictReader`` whose missing
    fields read as empty.

    The whole file is read before any fault is raised, so a file that is
    not UTF-8 or not CSV (:class:`FormatError`) comes first, then missing
    columns, then a file without data rows; an empty case_id is raised at
    its row.  ``where`` reads "<what> <path> row <n>", n the line number
    after the row (blank lines are skipped but counted).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh, restval="")
            fieldnames = reader.fieldnames or []
            rows = [(reader.reader.line_num, row) for row in reader]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{what} {path}: not a readable CSV file ({exc})") from None
    missing = [c for c in required if c not in fieldnames]
    if missing:
        raise ValidationError(f"{what} {path}: missing columns {missing}")
    if not rows:
        raise ValidationError(f"{what} {path}: no data rows")
    for line, row in rows:
        where = f"{what} {path} row {line}"
        case_id = row["case_id"].strip()
        if not case_id:
            raise ValidationError(f"{where}: empty case_id")
        yield where, case_id, row
