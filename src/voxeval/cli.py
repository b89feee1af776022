"""Batch front end: manifests, subcommands, CSV/JSON outputs, leaderboard.

Subcommands
    evaluate              score predictions against references case by case
    rank                  rank several metrics.csv files against each other
    optimize-postprocess  sweep enhancing-tumour thresholds and pick the best
    apply-postprocess     apply one threshold to every prediction
    ensemble              average probability maps and write predicted labels
    stability             jackknife leave-one-out flip report
    leaderboard           persistent store: add submissions, recompute ranks

All tabular output is CSV with a header row, structured output is JSON.
Floats are serialized with shortest roundtrip precision and field order is
fixed, so identical inputs and flags produce byte-identical files.  Errors
are reported on stderr as a single JSON line carrying a stable category
("validation", "format" or "io") and a message; exit codes are 3, 4 and 5
respectively (2 is argparse usage).
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import functools
import json
import os
import sys
import time
import zlib
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from io import StringIO
from itertools import islice, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .ensemble import _two_level
from .errors import FormatError, ValidationError
from .io import (
    VOLUME_SUFFIXES,
    ProbabilityMap,
    label_volume_bytes,
    read_label_volume,
    volume_suffix,
    write_atomic,
)
from .metrics import (
    DEFAULT_POLICY,
    MetricRecord,
    SpecialCase,
    SpecialCasePolicy,
    _scores_in_bounds,
    check_pair,
    evaluate_case,
)
from .postprocess import (
    apply_et_threshold,
    optimize_threshold,
    sweep_thresholds,
    validate_threshold,
)
from .ranking import MetricTable, RankResult, brats_ranking, jackknife_stability
from .aggregate import summarize
from .volume import (
    DEFAULT_CODING,
    REGIONS,
    LabelCoding,
    LabelVolume,
    _gate_labels,
    _label_dtype,
)

#: Environment variable naming a default config file; --config overrides it.
CONFIG_ENV = "VOXEVAL_CONFIG"

_EXIT_VALIDATION = 3
_EXIT_FORMAT = 4
_EXIT_IO = 5

# type() rather than isinstance(): JSON true/false are not numbers.
_SCORE_TYPES = frozenset((int, float))


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ToolConfig:
    """Settings shared by the subcommands; flags override file values."""

    coding: LabelCoding = DEFAULT_CODING
    threshold: float = 0.5
    policy: SpecialCasePolicy = DEFAULT_POLICY


def _build_from_keys(cls, raw: dict, what: str, numbers: bool = False):
    if not isinstance(raw, dict):
        raise ValidationError(f"config: {what} must be a JSON object, got {raw!r}")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(
            f"config: unknown {what} keys {sorted(unknown)}, expected {sorted(allowed)}"
        )
    for key, value in raw.items():
        if numbers and type(value) not in _SCORE_TYPES:
            raise ValidationError(f"config: {what} {key} must be a JSON number, got {value!r}")
    return cls(**raw)


def load_config(path: str | None) -> ToolConfig:
    """Load the JSON config from ``path``, the environment, or defaults.

    Recognized keys: "label_coding" (mapping with background/necrosis/
    edema/enhancing), "probability_threshold", and "special_case_policy"
    (mapping with worst_hd95/worst_dice/perfect_dice/perfect_hd95).
    Partial mappings fall back to defaults; unknown keys are rejected.  The
    threshold and the policy values must be JSON numbers (not strings, not
    true/false).
    """
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return ToolConfig()
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8-sig"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"config {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise FormatError(f"config {path}: expected a JSON object")
    known = {"label_coding", "probability_threshold", "special_case_policy"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(
            f"config {path}: unknown keys {sorted(unknown)}, expected {sorted(known)}"
        )
    coding = _build_from_keys(LabelCoding, raw.get("label_coding", {}), "label_coding")
    policy = _build_from_keys(
        SpecialCasePolicy, raw.get("special_case_policy", {}), "special_case_policy", numbers=True
    )
    threshold = raw.get("probability_threshold", 0.5)
    if type(threshold) not in _SCORE_TYPES or not 0.0 < threshold < 1.0:
        raise ValidationError(
            f"config {path}: probability_threshold must be a number strictly "
            f"between 0 and 1, got {threshold!r}"
        )
    return ToolConfig(coding=coding, threshold=threshold, policy=policy)


# --------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestRow:
    case_id: str
    reference_path: Path
    prediction_path: Path


@dataclass(frozen=True)
class Manifest:
    rows: tuple[ManifestRow, ...]


def _csv_rows(path: Path, required: Sequence[str], what: str) -> tuple[dict, Iterator[tuple[str, str, dict]]]:
    """The columns of a CSV file, each header name and its values, and a
    walk that yields ``(where, stripped case_id, row)`` for each data row.

    The file is opened once and parsed whole as UTF-8, so a file that is
    not UTF-8 or not CSV (:class:`FormatError`) is reported before missing
    columns, a file without data rows, or any row fault.  Rows read as the
    csv module's ``DictReader`` reads them: a leading byte-order mark and
    blank lines skipped, missing fields empty, fields past the header
    dropped, and a column named twice taken at its last occurrence.
    ``where`` reads "<what> <path> row <n>", n the file's line number (the
    header is row 1; blank lines count), and prefixes every row error; the
    walk raises an empty case_id at its row.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows, lines = [], []  # not a tuple per row, which the garbage collector would track
            for row in filter(None, reader):
                rows.append(row)
                lines.append(reader.line_num)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{what} {path}: not a readable CSV file ({exc})") from None
    if missing := [c for c in required if c not in header]:
        raise ValidationError(f"{what} {path}: missing columns {missing}")
    if not lines:
        raise ValidationError(f"{what} {path}: no data rows")

    def walk():
        for line, row in zip(lines, rows):
            where, row = f"{what} {path} row {line}", dict(zip(header, row + [""] * (len(header) - len(row))))
            if not (case_id := row["case_id"].strip()):
                raise ValidationError(f"{where}: empty case_id")
            yield where, case_id, row

    columns = list(zip_longest(*rows, fillvalue=""))
    columns += [("",) * len(rows)] * (len(header) - len(columns))  # header columns no row reaches
    return dict(zip(header, columns)), walk()


def _resolve(base: Path, value: str, where: str, column: str) -> Path:
    if not value:
        raise ValidationError(f"{where}: empty {column}")
    path = Path(value)
    if not path.is_absolute():
        path = base / path
    if not path.is_file():
        raise ValidationError(f"{where}: {column} {str(path)!r} does not exist")
    return path


def parse_manifest(path) -> Manifest:
    """Parse and validate a case manifest.

    The CSV must carry case_id, reference_path and prediction_path columns;
    other columns are ignored.  Relative paths are resolved against the
    manifest's directory, every referenced file must exist, and case ids
    must be unique.  Errors name the manifest and the offending row number.
    """
    path = Path(path)
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    required = ("case_id", "reference_path", "prediction_path")
    for where, case_id, row in _csv_rows(path, required, "manifest")[1]:
        if case_id in seen:
            raise ValidationError(f"{where}: duplicate case_id {case_id!r}")
        seen.add(case_id)
        ref, pred = (_resolve(path.parent, row[column], where, column) for column in required[1:])
        rows.append(ManifestRow(case_id, ref, pred))
    return Manifest(tuple(rows))


# --------------------------------------------------------------------------
# shared helpers


def _format_float(value: float) -> str:
    return repr(float(value))


def _write_csv(path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue().encode())


def _write_json(path, document) -> bytes:
    data = (json.dumps(document, indent=2) + "\n").encode()
    write_atomic(path, data)
    return data


def _default_jobs() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _jobs(jobs: int | None) -> int:
    """A ``--jobs`` value: the usable core count when unset, else at least 1."""
    if jobs is None:
        return _default_jobs()
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    return jobs


@contextmanager
def _case(case_id: str, **files):
    """Prefix a :class:`ValidationError` or :class:`FormatError` raised inside
    with the case id and its files: "case '<id>' (<role> <path>, ...): <message>"."""
    try:
        yield
    except (ValidationError, FormatError) as exc:
        named = ", ".join(f"{role} {path}" for role, path in files.items())
        raise type(exc)(f"case {case_id!r}{f' ({named})' if named else ''}: {exc}") from None


def _read_pair(row: ManifestRow, coding: LabelCoding) -> tuple[LabelVolume, LabelVolume]:
    """Read a row's reference and prediction and check that they compare."""
    with _case(row.case_id, reference=row.reference_path, prediction=row.prediction_path):
        ref = read_label_volume(row.reference_path, coding)
        pred = read_label_volume(row.prediction_path, coding)
        check_pair(ref, pred)
    return ref, pred


def _out_paths(what: str, path, out_dir: Path, names: list[tuple[str, str]]) -> list[Path]:
    """The output files ``out_dir / (case_id + suffix)`` of ``names``, after
    making ``out_dir``.  First rejects a name that cannot name a file
    directly in ``out_dir``: a case id with a '/' or NUL, or a name longer
    than the file-name limit of ``out_dir`` or of its nearest existing parent."""
    existing = out_dir
    while not existing.exists():
        existing = existing.parent
    limit = os.pathconf(existing, "PC_NAME_MAX")  # -1: no limit
    for case_id, suffix in names:
        if "/" in case_id or "\0" in case_id:
            raise ValidationError(f"{what} {path}: case_id {case_id!r} has a '/' or NUL")
        if 0 < limit < len(os.fsencode(case_id + suffix)):
            raise ValidationError(
                f"{what} {path}: case_id {case_id!r} makes an output file name "
                f"longer than the {limit}-byte limit"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    return [out_dir / (case_id + suffix) for case_id, suffix in names]


def _evaluate_row(task) -> list[tuple[str, float, float, str]]:
    row, coding, policy = task
    records = evaluate_case(*_read_pair(row, coding), policy)
    return [(r.region, r.dice, r.hd95, r.special_case.value) for r in records]


def evaluate_manifest(
    manifest: Manifest, config: ToolConfig, jobs: int | None
) -> list[tuple[str, list[tuple[str, float, float, str]]]]:
    """Score every manifest row, optionally across worker processes.

    Results keep manifest order; at most one worker per case is started.
    ``jobs`` None means the usable core count.
    """
    jobs = _jobs(jobs)
    tasks = [(row, config.coding, config.policy) for row in manifest.rows]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [_evaluate_row(task) for task in tasks]
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_evaluate_row, tasks))
        except BrokenProcessPool as exc:
            raise OSError(f"evaluate: a worker process died ({exc})") from None
    return [(row.case_id, result) for row, result in zip(manifest.rows, results)]


def _metrics_rows(results) -> list[list[str]]:
    rows = []
    for case_id, records in results:
        for region, dice_value, hd95_value, special in records:
            rows.append(
                [case_id, region, _format_float(dice_value), _format_float(hd95_value), special]
            )
    return rows


def _summary_rows(results) -> tuple[list[str], list[list[str]]]:
    header = ["statistic"]
    series: list[list[float]] = []
    for metric in ("dice", "hd95"):
        for region in REGIONS:
            header.append(f"{region.lower()}_{metric}")
            values = []
            for _, records in results:
                for rec_region, dice_value, hd95_value, _ in records:
                    if rec_region == region:
                        values.append(dice_value if metric == "dice" else hd95_value)
            series.append(values)
    stats = [summarize(values) for values in series]
    rows = []
    for name in ("mean", "stddev", "median", "p25", "p75"):
        rows.append([name] + [_format_float(getattr(s, name)) for s in stats])
    rows.append(["count"] + [str(s.count) for s in stats])
    return header, rows


def _record(where: str, region, dice, hd95, special) -> tuple[float, float]:
    """Check one region's values read from a file and return ``(dice, hd95)``
    as floats; errors name ``where``.  Only a bad region or special case
    builds a record, so that the constructors raise their own messages."""
    try:
        dice, hd95 = float(dice), float(hd95)
        if region not in REGIONS or type(special) is not str or special not in _SPECIAL_CASES:
            MetricRecord(region, dice, hd95, SpecialCase(special))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    if not _scores_in_bounds(dice, hd95):
        raise ValidationError(
            f"{where}: {region} needs dice in [0, 1] and a finite nonnegative hd95, "
            f"got dice {dice!r}, hd95 {hd95!r}"
        )
    return dice, hd95


_METRICS_COLUMNS = ("case_id", "region", "dice", "hd95")
_REGION_KEYS = frozenset(REGIONS)
_REGION_INDEX = {region: k for k, region in enumerate(REGIONS)}
_SPECIAL_CASES = frozenset(case.value for case in SpecialCase)


def read_metrics_csv(path) -> dict[str, list[MetricRecord]]:
    """Read a metrics.csv produced by `evaluate` back into records, each row
    checked by :func:`_record`."""
    per_case: dict[str, list[MetricRecord]] = {}
    for where, case_id, row in _csv_rows(Path(path), _METRICS_COLUMNS, "metrics file")[1]:
        special = row.get("special_case") or "none"
        dice, hd95 = _record(where, row["region"], row["dice"], row["hd95"], special)
        per_case.setdefault(case_id, []).append(MetricRecord(row["region"], dice, hd95, SpecialCase(special)))
    return per_case


#: A metrics file's sorted case ids, its (2, cases, regions) Dice and HD95
#: block, and an iterator over its rows in file order as (case_id, region,
#: dice, hd95, special_case).
_Scores = tuple[list[str], np.ndarray, Iterator[tuple[str, str, float, float, str]]]


def _read_scores(path) -> _Scores:
    """Read and check a metrics file.

    The file is read once, by :func:`_csv_rows`, and all its rows are
    checked at once, column by column.  Only a file that fails is walked
    row by row through :func:`_record`, to raise the error that names the
    file: a bad row first (by row), then a repeated (case, region) (by
    row), then a missing region (by case).
    """
    path = Path(path)
    columns, walk = _csv_rows(path, _METRICS_COLUMNS, "metrics file")
    case_ids = list(map(str.strip, columns["case_id"]))
    cases = sorted(set(case_ids))
    specials = columns.get("special_case", ("",) * len(case_ids))
    try:
        first = {case_id: j * len(REGIONS) for j, case_id in enumerate(cases)}
        slots = np.add(
            list(map(first.__getitem__, case_ids)),
            list(map(_REGION_INDEX.__getitem__, columns["region"])),
        )
        dice = list(map(float, columns["dice"]))
        hd95 = list(map(float, columns["hd95"]))
        scores = np.array([dice, hd95])
    except (KeyError, ValueError):  # an unknown region or a bad score
        slots = None
    if (
        slots is not None
        and all(case_ids)
        and set(specials) - {""} <= _SPECIAL_CASES
        and _scores_in_bounds(*scores).all()
        and (np.bincount(slots, minlength=len(cases) * len(REGIONS)) == 1).all()
    ):
        block = np.empty_like(scores)
        block[:, slots] = scores
        rows = zip(case_ids, columns["region"], dice, hd95, (s or "none" for s in specials))
        return cases, block.reshape(2, len(cases), len(REGIONS)), rows
    per_case: dict[str, set[str]] = {}
    repeats = []
    for where, case_id, row in walk:
        _record(where, row["region"], row["dice"], row["hd95"], row.get("special_case") or "none")
        regions = per_case.setdefault(case_id, set())
        if row["region"] in regions:
            repeats.append(f"{where}: duplicate record for case {case_id!r}, region {row['region']}")
        regions.add(row["region"])
    if repeats:
        raise ValidationError(repeats[0])
    for case_id in sorted(per_case):
        if len(per_case[case_id]) != len(REGIONS):
            raise ValidationError(
                f"metrics file {path} case {case_id!r}: expected one record per region "
                f"{REGIONS}, got {sorted(per_case[case_id])}"
            )
    raise AssertionError(f"metrics file {path} failed the check but has no faulty row")


def _named_metrics_table(pairs: Sequence[str]) -> MetricTable:
    """The table of ``NAME=PATH`` metrics files; every file is read and
    checked before the case sets are compared with the first file's."""
    files: dict[str, tuple[str, list[str], np.ndarray]] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise ValidationError(
                f"expected NAME=PATH for a metrics file, got {pair!r}"
            )
        if name in files:
            raise ValidationError(f"duplicate algorithm id {name!r}")
        files[name] = value, *_read_scores(value)[:2]
    first, (first_path, cases, _) = next(iter(files.items()))
    for name, (path, other, _) in files.items():
        if other != cases:
            differing = sorted(set(cases) ^ set(other))
            raise ValidationError(
                f"metrics file {path} (algorithm {name!r}) does not cover the same cases "
                f"as metrics file {first_path} (algorithm {first!r}); "
                f"differing case ids: {differing[:5]}"
            )
    blocks = [block for _, _, block in files.values()]
    return MetricTable(tuple(files), tuple(cases), *np.stack(blocks, axis=1))


def _rank_result_document(result: RankResult) -> dict:
    return {
        "algorithms": list(result.algorithms),
        "mean_rank": {a: result.mean_rank_of(a) for a in result.algorithms},
        "ranking_score": {a: result.score_of(a) for a in result.algorithms},
        "ordering": list(result.ordering),
    }


# --------------------------------------------------------------------------
# subcommands


def _cmd_evaluate(args) -> int:
    config = load_config(args.config)
    manifest = parse_manifest(args.manifest)
    results = evaluate_manifest(manifest, config, args.jobs)
    _write_csv(
        args.out_metrics,
        ["case_id", "region", "dice", "hd95", "special_case"],
        _metrics_rows(results),
    )
    if args.out_summary:
        header, rows = _summary_rows(results)
        _write_csv(args.out_summary, header, rows)
    return 0


def _cmd_rank(args) -> int:
    table = _named_metrics_table(args.metrics)
    if len(table.algorithms) < 2:
        raise ValidationError("rank needs at least two NAME=PATH metrics files")
    result = brats_ranking(table)
    _write_json(args.out, _rank_result_document(result))
    return 0


def _cmd_optimize_postprocess(args) -> int:
    config = load_config(args.config)
    manifest = parse_manifest(args.manifest)
    candidates = None
    if args.candidates is not None:
        try:
            candidates = [float(c) for c in args.candidates.split(",") if c.strip()]
        except ValueError:
            raise ValidationError(
                f"--candidates must be a comma-separated list of numbers, "
                f"got {args.candidates!r}"
            )
        if not candidates:
            raise ValidationError("--candidates produced no values")
    sweep = sweep_thresholds(
        (_read_pair(row, config.coding) for row in manifest.rows), candidates, config.policy
    )
    rows = [
        [
            _format_float(threshold),
            _format_float(sweep.mean_et_dice[i]),
            str(int(sweep.perfect_counts[i])),
            str(int(sweep.worst_counts[i])),
            _format_float(sweep.ranking_scores[i]),
        ]
        for i, threshold in enumerate(sweep.thresholds)
    ]
    _write_csv(
        args.out_sweep,
        ["threshold_mm3", "mean_et_dice", "perfect_cases", "worst_cases", "ranking_score"],
        rows,
    )
    choice = optimize_threshold(sweep)
    _write_json(
        args.out_choice,
        {"best_by_dice": choice.best_by_dice, "best_by_rank": choice.best_by_rank},
    )
    return 0


def _cmd_apply_postprocess(args) -> int:
    config = load_config(args.config)
    threshold = validate_threshold(args.threshold_mm3)
    manifest = parse_manifest(args.manifest)
    names = [(row.case_id, volume_suffix(row.prediction_path)) for row in manifest.rows]
    paths = _out_paths("manifest", args.manifest, Path(args.out_dir), names)

    def cleaned(i: int) -> bytes:
        row = manifest.rows[i]
        with _case(row.case_id, prediction=row.prediction_path):
            pred = read_label_volume(row.prediction_path, config.coding)
        return label_volume_bytes(paths[i], apply_et_threshold(pred, threshold))

    _write_in_order(paths, cleaned, min(_default_jobs(), len(paths)))
    return 0


def parse_ensemble_manifest(path) -> dict[str, dict[str, list[dict[str, Path]]]]:
    """Parse an ensemble manifest into case -> configuration -> members.

    Columns: case_id, configuration, wt_path, tc_path, et_path; one row per
    ensemble member.  Configurations and members keep file order.
    """
    path = Path(path)
    cases: dict[str, dict[str, list[dict[str, Path]]]] = {}
    required = ("case_id", "configuration", "wt_path", "tc_path", "et_path")
    for where, case_id, row in _csv_rows(path, required, "ensemble manifest")[1]:
        if not (configuration := row["configuration"].strip()):
            raise ValidationError(f"{where}: empty configuration")
        member = {
            region: _resolve(path.parent, row[column], where, column)
            for column, region in (("wt_path", "WT"), ("tc_path", "TC"), ("et_path", "ET"))
        }
        cases.setdefault(case_id, {}).setdefault(configuration, []).append(member)
    return cases


def _open_case_maps(configurations: dict[str, list[dict[str, Path]]], stack: ExitStack) -> list:
    """Open every map of a case in manifest order, into ``stack``, checking
    each header as it is read against the case's first map, so a map that
    disagrees stops the case there, before any payload is read.  Returns
    one list of member map triples per configuration."""
    first = None
    opened = []
    for members in configurations.values():
        opened.append([])
        for member in members:
            maps = []
            for region in REGIONS:
                prob_map = stack.enter_context(ProbabilityMap(member[region]))
                first = first or prob_map
                if prob_map.spacing != first.spacing:
                    raise ValidationError(
                        f"{member[region]}: spacing {prob_map.spacing.as_tuple()} differs from "
                        f"{first.spacing.as_tuple()} of the case's first map {first.path}"
                    )
                if prob_map.shape != first.shape:
                    raise ValidationError(
                        f"{member[region]}: shape {prob_map.shape} differs from "
                        f"{first.shape} of the case's first map {first.path}"
                    )
                maps.append(prob_map)
            opened[-1].append(maps)
    return opened


def _ensemble_labels(
    case_id: str, configurations: dict[str, list[dict[str, Path]]], threshold: float, coding: LabelCoding
) -> LabelVolume:
    """One case's labels.  Every map's header is read and checked first;
    then all maps are stepped in lockstep, one run of z-planes at a time.
    Within a run the regions take turns, WT, then TC, then ET: each region's
    slab of every member, in manifest order, goes through the two-level mean
    and then the label gates into the one whole grid, the labels'.  Each
    voxel takes the float64 operations of :func:`two_level_ensemble` and
    :func:`regions_to_labels`, in their order."""
    with _case(case_id), ExitStack() as stack:
        opened = _open_case_maps(configurations, stack)
        first = opened[0][0][0]
        nx, ny, nz = first.shape
        planes = first.slab_planes
        labels = np.empty(first.shape, _label_dtype(coding), order="F")
        every = [m for members in opened for maps in members for m in maps]
        # One map's slab is read at a time, into one buffer that every map
        # shares; two float64 sums of one slab serve every region in turn.
        raw = np.empty(nx * ny * planes * max(m.dtype.itemsize for m in every), np.uint8)
        sums = [np.empty(nx * ny * planes) for _ in range(2)]
        for z in range(0, nz, planes):
            k = min(planes, nz - z)
            out = [s[: nx * ny * k].reshape((nx, ny, k), order="F") for s in sums]
            means = (
                _two_level((((maps[r].slab(k, raw),) for maps in members) for members in opened), out=out)[0]
                for r in range(len(REGIONS))
            )
            _gate_labels(labels[:, :, z : z + k], means, threshold, coding)
        for prob_map in every:
            prob_map.finish()
        labels.setflags(write=False)  # so the constructor keeps it without a copy
        return LabelVolume(labels, first.spacing, coding)


def _in_order(fn, items: list, workers: int) -> Iterator:
    """``map(fn, items)`` on up to ``workers`` threads.

    Results come in the order of ``items``, so the first error raised is
    that of the first failing item.  At most ``2 * workers`` calls are
    queued, running or waiting to be consumed.  On an error, or when the
    caller closes the generator, calls not started are cancelled and
    running ones are waited for.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        rest = iter(items)
        queued = deque(pool.submit(fn, item) for item in islice(rest, 2 * workers))
        while queued:
            yield queued.popleft().result()
            queued.extend(pool.submit(fn, item) for item in islice(rest, 1))
    finally:
        pool.shutdown(cancel_futures=True)


def _write_in_order(paths: list[Path], encode, workers: int) -> None:
    """Write ``encode(i)`` to ``paths[i]`` for each index, in order, with the
    encoding on :func:`_in_order` threads.

    Threads, not processes: zlib and numpy release the GIL on these grids,
    and a file's bytes come back without pickling.  Files are written here,
    in order, so an error leaves the files a serial loop would have written.
    """
    files = _in_order(encode, list(range(len(paths))), workers)
    with closing(files):
        for path, data in zip(paths, files):
            write_atomic(path, data)


def _cmd_ensemble(args) -> int:
    config = load_config(args.config)
    threshold = args.threshold if args.threshold is not None else config.threshold
    if not 0.0 < threshold < 1.0:
        raise ValidationError(
            f"--threshold must lie strictly between 0 and 1, got {args.threshold!r}"
        )
    jobs = _jobs(args.jobs)
    cases = parse_ensemble_manifest(args.manifest)
    names = [(case_id, args.format) for case_id in cases]
    paths = _out_paths("ensemble manifest", args.manifest, Path(args.out_dir), names)
    items = list(cases.items())

    def labels(i: int) -> bytes:
        return label_volume_bytes(paths[i], _ensemble_labels(*items[i], threshold, config.coding))

    _write_in_order(paths, labels, min(jobs, len(paths)))
    return 0


def _cmd_stability(args) -> int:
    table = _named_metrics_table(args.metrics)
    report = jackknife_stability(table)
    rows = [
        [f.removed, f.algorithm_a, f.algorithm_b, f.full_relation, f.jackknife_relation]
        for f in report.flips
    ]
    _write_csv(
        args.out,
        ["removed", "algorithm_a", "algorithm_b", "full_relation", "jackknife_relation"],
        rows,
    )
    return 0


# --------------------------------------------------------------------------
# leaderboard store


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        seconds = int(time.time()) if epoch is None else int(epoch)
        moment = datetime.fromtimestamp(seconds, tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValidationError(
            f"SOURCE_DATE_EPOCH must be an integer timestamp in years 1-9999, got {epoch!r}"
        ) from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _encode(obj, level: int) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it nested ``level`` deep:
    the top-level encoding with 2·level more spaces after every newline
    (strings escape their own newlines)."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def _encode_submission(submission: dict) -> str:
    """``_encode(submission, 2)`` of a submission as an add builds it (string
    ids, nonempty mappings, finite float scores), by a template with the
    string escape and float repr that ``json.dumps`` uses."""
    q, r = encode_basestring_ascii, float.__repr__
    cases = ",\n".join(f"        {q(case_id)}: {{\n" + ",\n".join(
        f'          {q(region)}: {{\n            "dice": {r(e["dice"])},\n'
        f'            "hd95": {r(e["hd95"])},\n            "special_case": {q(e["special_case"])}\n'
        "          }" for region, e in regions.items()
    ) + "\n        }" for case_id, regions in submission["metrics"].items())
    return (f'{{\n      "algorithm_id": {q(submission["algorithm_id"])},\n      "timestamp": '
            f'{q(submission["timestamp"])},\n      "metrics": {{\n{cases}\n      }}\n    }}')


_TABLE_FORMAT = "voxeval-store-table-1"
#: The canonical store bytes between the end of the submissions list and the
#: ranking.  They occur once in such a store: JSON escapes a newline inside a
#: string, and the ranking's own lines are indented at least four spaces.
_CUT_MARK = b'\n  ],\n  "ranking": '


def _write_table(path: Path, data: bytes, table: MetricTable) -> None:
    """Write ``<store>.table`` for the bytes ``data`` of a canonical store
    that holds just its submissions and then its ranking: a JSON header line,
    the (2, N, M, 3) scores and their CRC-32.  A failed write is left out: an
    older table has another key."""
    head = {"format": _TABLE_FORMAT, "bytes": len(data), "crc32": zlib.crc32(data),
            "algorithms": table.algorithms, "cases": table.cases}
    body = json.dumps(head).encode() + b"\n" + np.stack([table.dice, table.hd95]).astype("<f8").tobytes()
    with suppress(OSError):
        write_atomic(path.with_name(path.name + ".table"), body + zlib.crc32(body).to_bytes(4, "little"))


def _read_table(path: Path, data: bytes) -> tuple[MetricTable, int] | None:
    """The score table that ``<store>.table`` holds for the store bytes
    ``data`` and the splice offset, the last :data:`_CUT_MARK` in ``data``;
    or None if there is no mark, or that file is missing, damaged, foreign,
    keyed to other bytes, or fails the checks of stored scores.  Its ids must
    be lists of strings.  A header field the table does not use is ignored."""
    cut = data.rfind(_CUT_MARK)
    try:
        raw = path.with_name(path.name + ".table").read_bytes()
        head, _, block = raw[:-4].partition(b"\n")
        meta = json.loads(head)
        key = (zlib.crc32(raw[:-4]).to_bytes(4, "little"), meta["format"], meta["bytes"], meta["crc32"])
        algorithms, cases = meta["algorithms"], meta["cases"]
        if key != (raw[-4:], _TABLE_FORMAT, len(data), zlib.crc32(data)) or not (
            type(algorithms) is type(cases) is list and all(type(i) is str for i in algorithms + cases)
            and cut >= 0
        ):
            return None
        scores = np.frombuffer(block, "<f8").reshape(2, len(algorithms), len(cases), len(REGIONS))
        return MetricTable(tuple(algorithms), tuple(cases), *scores), cut
    except (OSError, ValueError, KeyError, TypeError, RecursionError, ValidationError):
        return None  # MetricTable checks shapes, Dice in [0, 1] and HD95 finite and >= 0


@contextmanager
def _store_lock(path: Path):
    """Hold an exclusive ``flock`` on ``<store>.lock`` for a whole read–rank–write.

    The lock file sits beside the store, so the rename that replaces the
    store leaves it alone; it stays empty.  A store path that exists and is
    not a regular file raises :class:`OSError` naming it, and no lock is made.
    """
    if path.exists() and not path.is_file():
        raise OSError(f"leaderboard store {path} is not a regular file")
    lock = path.with_name(path.name + ".lock")
    lock.touch()
    with open(lock, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def _tabulate(path: Path, submissions: list) -> MetricTable:
    """The score table of a nonempty store, checked in one document-order walk.

    Each submission's shape and id are checked, then each of its entries
    through :func:`_record`; the walk keeps its scores by submission, case
    and region, for the table (cases sorted).  Case and region sets come
    after the walk, so an entry error anywhere comes first.  Every fault
    raises :class:`FormatError` naming the store, submission and case.
    """
    try:
        kept = {}
        for n, submission in enumerate(submissions):
            where = f"leaderboard store {path}: submission {n}"
            if not (
                isinstance(submission, dict)
                and isinstance(submission.get("algorithm_id"), str)
                and isinstance(submission.get("metrics"), dict)
                and all(isinstance(regions, dict) for regions in submission["metrics"].values())
            ):
                raise ValidationError(
                    f"{where} needs a string 'algorithm_id' and 'metrics' mapping "
                    "case -> region -> {dice, hd95, special_case}"
                )
            algorithm_id = submission["algorithm_id"]
            if algorithm_id in kept:
                raise ValidationError(f"{where}: duplicate algorithm_id {algorithm_id!r}")
            rows = kept[algorithm_id] = {}
            for case_id, regions in submission["metrics"].items():
                at = f"{where} case {case_id}"
                row = rows[case_id] = {}
                for region, entry in regions.items():
                    if not isinstance(entry, dict) or not (
                        type(entry.get("dice")) in _SCORE_TYPES and type(entry.get("hd95")) in _SCORE_TYPES
                    ):
                        raise ValidationError(
                            f"{at}: region {region!r} needs numeric dice and hd95"
                        )
                    special = entry.get("special_case", "none")
                    row[region] = _record(at, region, entry["dice"], entry["hd95"], special)
        first = submissions[0]["metrics"]
        if not first:
            raise ValidationError(f"leaderboard store {path}: submission 0 has no cases")
        for n, submission in enumerate(submissions):
            where = f"leaderboard store {path}: submission {n}"
            differing = sorted(first.keys() ^ submission["metrics"].keys())
            if differing:
                state = "missing, but in" if differing[0] in first else "not in"
                raise ValidationError(
                    f"{where} case {differing[0]}: {state} submission 0; "
                    "every submission must cover the same cases"
                )
            for case_id, regions in submission["metrics"].items():
                if regions.keys() != _REGION_KEYS:
                    raise ValidationError(
                        f"{where} case {case_id}: needs one entry per region "
                        f"{list(REGIONS)}, got {sorted(regions)}"
                    )
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
    cases = sorted(first)
    flat = [v for rows in kept.values() for case in cases for region in REGIONS for v in rows[case][region]]
    scores = np.reshape(flat, (len(kept), len(cases), len(REGIONS), 2))
    return MetricTable(tuple(kept), tuple(cases), *np.moveaxis(scores, -1, 0))


def _load_store(path: Path, data: bytes | None) -> tuple[dict, MetricTable | None]:
    """Return the document and score table of the store at ``path`` that
    holds ``data``, or of an empty store when ``data`` is None.

    A store without submissions has no table.  Invalid UTF-8 or JSON, or a
    store that :func:`_tabulate` rejects, raises :class:`FormatError`
    naming the store.
    """
    if data is None:
        return {"submissions": [], "ranking": None}, None
    try:
        raw = json.loads(data.decode())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"leaderboard store {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict) or not isinstance(raw.get("submissions"), list):
        raise FormatError(f"leaderboard store {path}: expected a 'submissions' list")
    submissions = raw["submissions"]
    return raw, _tabulate(path, submissions) if submissions else None


def leaderboard_add(store_path, metrics_path, algorithm_id: str) -> None:
    """Append a submission to the store and recompute the ranking.

    The new submission must cover exactly the case ids already in the
    store (any submission order), and the algorithm id must be new.  The
    store is locked for the whole add and rewritten atomically; on any
    validation failure it is left untouched.  A ``<store>.table`` keyed to
    the store's bytes gives the stored scores, and the add splices only the
    new submission and the ranking onto the old text; otherwise it parses
    the store and writes it whole, as :func:`leaderboard_recompute` does.
    """
    store_path = Path(store_path)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    with _store_lock(store_path):
        data = store_path.read_bytes() if store_path.exists() else None
        stored, cut = data and _read_table(store_path, data) or (None, None)
        if stored is None:
            store, stored = _load_store(store_path, data)
        if stored is not None and algorithm_id in stored.algorithms:
            raise ValidationError(f"algorithm id {algorithm_id!r} already in store")
        cases, block, rows = _read_scores(metrics_path)
        if stored is not None and stored.cases != tuple(cases):
            differing = sorted(set(stored.cases) ^ set(cases))
            raise ValidationError(
                f"submission case ids differ from the store's: {differing[:5]}"
            )
        metrics: dict[str, dict] = {}
        # A stable sort by case id: cases sorted, each case's regions in file order.
        for case_id, region, dice, hd95, special in sorted(rows, key=lambda row: row[0]):
            metrics.setdefault(case_id, {})[region] = {
                "dice": dice,
                "hd95": hd95,
                "special_case": special,
            }
        submission = {"algorithm_id": algorithm_id, "timestamp": _timestamp(), "metrics": metrics}
        algorithms, scores = (algorithm_id,), block[:, None]
        if stored is not None:
            algorithms = stored.algorithms + algorithms
            scores = np.concatenate([np.stack([stored.dice, stored.hd95]), scores], axis=1)
        table = MetricTable(algorithms, cases, *scores)
        ranking = _rank_result_document(brats_ranking(table))
        if cut is None:
            store["submissions"].append(submission)
            store["ranking"] = ranking
            data = _write_json(store_path, store)
        else:
            # One join over a view of the old bytes: no intermediate copy of them.
            new = (",\n    " + _encode_submission(submission)).encode()
            tail = (_encode(ranking, 1) + "\n}\n").encode()
            data = b"".join([memoryview(data)[:cut], new, _CUT_MARK, tail])
            write_atomic(store_path, data)
        if cut is not None or list(store) == ["submissions", "ranking"]:  # a splice keeps the keys
            _write_table(store_path, data, table)


def leaderboard_recompute(store_path) -> None:
    """Recompute the stored ranking and rewrite the whole store canonically.

    A missing store raises the :class:`OSError` that names it, and nothing
    is created: no directory and no lock file.
    """
    store_path = Path(store_path)
    store_path.stat()
    with _store_lock(store_path):
        store, table = _load_store(store_path, store_path.read_bytes())
        if table is None:
            raise ValidationError(f"leaderboard store {store_path} has no submissions")
        store["ranking"] = _rank_result_document(brats_ranking(table))
        data = _write_json(store_path, store)
        if list(store) == ["submissions", "ranking"]:
            _write_table(store_path, data, table)


def _cmd_leaderboard(args) -> int:
    if args.action == "add":
        if not args.metrics or not args.algorithm:
            raise ValidationError("leaderboard add needs --metrics and --algorithm")
        leaderboard_add(args.store, args.metrics, args.algorithm)
    else:
        leaderboard_recompute(args.store)
    return 0


# --------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache  # one parser per process: building it costs about a millisecond
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxeval",
        description="Volumetric segmentation evaluation and challenge ranking.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        help=f"JSON config file (default: ${CONFIG_ENV} if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", parents=[common], help="score a manifest of cases")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-metrics", required=True)
    p.add_argument("--out-summary")
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank", help="rank metrics files")
    p.add_argument("metrics", nargs="+", metavar="NAME=PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "optimize-postprocess",
        parents=[common],
        help="sweep enhancing-tumour volume thresholds",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-sweep", required=True)
    p.add_argument("--out-choice", required=True)
    p.add_argument("--candidates", help="comma-separated thresholds in mm^3")
    p.set_defaults(func=_cmd_optimize_postprocess)

    p = sub.add_parser(
        "apply-postprocess",
        parents=[common],
        help="apply one enhancing-tumour threshold to all predictions",
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--threshold-mm3", required=True, type=float)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_apply_postprocess)

    p = sub.add_parser(
        "ensemble", parents=[common], help="average probability maps into labels"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--jobs", type=int, default=None, help="worker threads")
    p.add_argument(
        "--format",
        default=".nii.gz",
        choices=VOLUME_SUFFIXES,
        help="output volume format",
    )
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("stability", help="jackknife leave-one-out flip report")
    p.add_argument("metrics", nargs="+", metavar="NAME=PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("leaderboard", help="persistent ranking store")
    p.add_argument("action", choices=["add", "recompute"])
    p.add_argument("--store", required=True)
    p.add_argument("--metrics")
    p.add_argument("--algorithm")
    p.set_defaults(func=_cmd_leaderboard)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _report_error("validation", exc)
        return _EXIT_VALIDATION
    except FormatError as exc:
        _report_error("format", exc)
        return _EXIT_FORMAT
    except OSError as exc:
        _report_error("io", exc)
        return _EXIT_IO


def _report_error(category: str, exc: Exception) -> None:
    line = json.dumps({"error": {"category": category, "message": str(exc)}})
    print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
