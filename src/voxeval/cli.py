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
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path
from typing import Iterator, Sequence

from .ensemble import two_level_ensemble
from .errors import FormatError, ValidationError
from .io import (
    VOLUME_SUFFIXES,
    read_label_volume,
    read_probability_volume,
    volume_suffix,
    write_atomic,
    write_label_volume,
)
from .metrics import (
    DEFAULT_POLICY,
    MetricRecord,
    SpecialCase,
    SpecialCasePolicy,
    evaluate_case,
)
from .postprocess import apply_et_threshold, optimize_threshold, sweep_thresholds
from .ranking import MetricTable, RankResult, brats_ranking, jackknife_stability
from .aggregate import summarize
from .volume import DEFAULT_CODING, REGIONS, LabelCoding, RegionProbSet, regions_to_labels

#: Environment variable naming a default config file; --config overrides it.
CONFIG_ENV = "VOXEVAL_CONFIG"

_EXIT_VALIDATION = 3
_EXIT_FORMAT = 4
_EXIT_IO = 5


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ToolConfig:
    """Settings shared by the subcommands; flags override file values."""

    coding: LabelCoding = DEFAULT_CODING
    threshold: float = 0.5
    policy: SpecialCasePolicy = DEFAULT_POLICY


def _build_from_keys(cls, raw: dict, what: str):
    if not isinstance(raw, dict):
        raise ValidationError(f"config: {what} must be a JSON object, got {raw!r}")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(
            f"config: unknown {what} keys {sorted(unknown)}, expected {sorted(allowed)}"
        )
    return cls(**raw)


def load_config(path: str | None) -> ToolConfig:
    """Load the JSON config from ``path``, the environment, or defaults.

    Recognized keys: "label_coding" (mapping with background/necrosis/
    edema/enhancing), "probability_threshold", and "special_case_policy"
    (mapping with worst_hd95/worst_dice/perfect_dice/perfect_hd95).
    Partial mappings fall back to defaults; unknown keys are rejected.
    """
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return ToolConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        SpecialCasePolicy, raw.get("special_case_policy", {}), "special_case_policy"
    )
    try:
        threshold = float(raw.get("probability_threshold", 0.5))
    except (TypeError, ValueError, OverflowError):
        threshold = None
    if threshold is None or not 0.0 < threshold < 1.0:
        raise ValidationError(
            f"config {path}: probability_threshold must be a number strictly "
            f"between 0 and 1, got {raw['probability_threshold']!r}"
        )
    return ToolConfig(coding=coding, threshold=threshold, policy=policy)


# --------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestRow:
    case_id: str
    reference_path: Path
    prediction_path: Path
    probability_paths: dict[str, Path] = field(default_factory=dict)


@dataclass(frozen=True)
class Manifest:
    rows: tuple[ManifestRow, ...]


#: Optional manifest columns carrying per-region probability maps.
_PROB_COLUMNS = {"wt_prob_path": "WT", "tc_prob_path": "TC", "et_prob_path": "ET"}


def _csv_rows(path: Path, required: Sequence[str], what: str) -> Iterator[tuple[str, str, dict]]:
    """Yield ``(where, stripped case_id, row)`` for each data row of a CSV file.

    ``where`` reads "<what> <path> row <n>" (the header is row 1) and
    prefixes every row error.  Missing columns, an empty case_id and a
    file without data rows are rejected here.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in required if c not in (reader.fieldnames or [])]
            if missing:
                raise ValidationError(f"{what} {path}: missing columns {missing}")
            row_num = 1
            for row_num, row in enumerate(reader, start=2):
                where = f"{what} {path} row {row_num}"
                case_id = (row.get("case_id") or "").strip()
                if not case_id:
                    raise ValidationError(f"{where}: empty case_id")
                yield where, case_id, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{what} {path}: not a readable CSV file ({exc})") from None
    if row_num == 1:
        raise ValidationError(f"{what} {path}: no data rows")


def _resolve(base: Path, value: str | None, where: str, column: str) -> Path:
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
    per-region probability columns (wt_prob_path, tc_prob_path,
    et_prob_path) are optional.  Relative paths are resolved against the
    manifest's directory, every referenced file must exist, and case ids
    must be unique.  Errors name the manifest and the offending row number.
    """
    path = Path(path)
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    required = ("case_id", "reference_path", "prediction_path")
    for where, case_id, row in _csv_rows(path, required, "manifest"):
        if case_id in seen:
            raise ValidationError(f"{where}: duplicate case_id {case_id!r}")
        seen.add(case_id)
        ref = _resolve(path.parent, row["reference_path"], where, "reference_path")
        pred = _resolve(path.parent, row["prediction_path"], where, "prediction_path")
        probs = {
            region: _resolve(path.parent, row[column], where, column)
            for column, region in _PROB_COLUMNS.items()
            if row.get(column)
        }
        rows.append(ManifestRow(case_id, ref, pred, probs))
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


def _write_json(path, document) -> None:
    write_atomic(path, (json.dumps(document, indent=2) + "\n").encode())


def _default_jobs() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate_row(task) -> list[tuple[str, float, float, str]]:
    case_id, ref_path, pred_path, coding, policy = task
    try:
        ref = read_label_volume(ref_path, coding)
        pred = read_label_volume(pred_path, coding)
        records = evaluate_case(ref, pred, policy)
    except ValidationError as exc:
        raise ValidationError(
            f"case {case_id!r} (reference {ref_path}, prediction {pred_path}): {exc}"
        ) from None
    return [(r.region, r.dice, r.hd95, r.special_case.value) for r in records]


def evaluate_manifest(
    manifest: Manifest, config: ToolConfig, jobs: int
) -> list[tuple[str, list[tuple[str, float, float, str]]]]:
    """Score every manifest row, optionally across worker processes.

    Results keep manifest order no matter how many jobs run.
    """
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    tasks = [
        (row.case_id, str(row.reference_path), str(row.prediction_path), config.coding, config.policy)
        for row in manifest.rows
    ]
    if jobs == 1:
        results = [_evaluate_row(task) for task in tasks]
    else:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def _record(where: str, region, dice, hd95, special) -> MetricRecord:
    """Build one region's record from values read from a file; errors name ``where``."""
    try:
        return MetricRecord(region, float(dice), float(hd95), SpecialCase(special))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def read_metrics_csv(path) -> dict[str, list[MetricRecord]]:
    """Read a metrics.csv produced by `evaluate` back into records."""
    per_case: dict[str, list[MetricRecord]] = {}
    required = ("case_id", "region", "dice", "hd95")
    for where, case_id, row in _csv_rows(Path(path), required, "metrics file"):
        record = _record(
            where, row["region"], row["dice"], row["hd95"], row.get("special_case") or "none"
        )
        per_case.setdefault(case_id, []).append(record)
    return per_case


def _named_metrics_table(pairs: Sequence[str]) -> MetricTable:
    per_algorithm: dict[str, dict[str, list[MetricRecord]]] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise ValidationError(
                f"expected NAME=PATH for a metrics file, got {pair!r}"
            )
        if name in per_algorithm:
            raise ValidationError(f"duplicate algorithm id {name!r}")
        per_algorithm[name] = read_metrics_csv(value)
    return MetricTable.from_records(per_algorithm)


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
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    results = evaluate_manifest(manifest, config, jobs)
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
    pairs = [
        (
            read_label_volume(row.reference_path, config.coding),
            read_label_volume(row.prediction_path, config.coding),
        )
        for row in manifest.rows
    ]
    candidates = None
    if args.candidates:
        try:
            candidates = [float(c) for c in args.candidates.split(",") if c.strip()]
        except ValueError:
            raise ValidationError(
                f"--candidates must be a comma-separated list of numbers, "
                f"got {args.candidates!r}"
            )
        if not candidates:
            raise ValidationError("--candidates produced no values")
    sweep = sweep_thresholds(pairs, candidates, config.policy)
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
    manifest = parse_manifest(args.manifest)
    threshold = float(args.threshold_mm3)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for row in manifest.rows:
        pred = read_label_volume(row.prediction_path, config.coding)
        cleaned = apply_et_threshold(pred, threshold)
        out_path = out_dir / (row.case_id + volume_suffix(row.prediction_path))
        write_label_volume(out_path, cleaned)
    return 0


def parse_ensemble_manifest(path) -> dict[str, dict[str, list[dict[str, Path]]]]:
    """Parse an ensemble manifest into case -> configuration -> members.

    Columns: case_id, configuration, wt_path, tc_path, et_path; one row per
    ensemble member.  Configurations and members keep file order.
    """
    path = Path(path)
    cases: dict[str, dict[str, list[dict[str, Path]]]] = {}
    required = ("case_id", "configuration", "wt_path", "tc_path", "et_path")
    for where, case_id, row in _csv_rows(path, required, "ensemble manifest"):
        configuration = (row.get("configuration") or "").strip()
        if not configuration:
            raise ValidationError(f"{where}: empty configuration")
        member = {
            region: _resolve(path.parent, row[column], where, column)
            for column, region in (("wt_path", "WT"), ("tc_path", "TC"), ("et_path", "ET"))
        }
        cases.setdefault(case_id, {}).setdefault(configuration, []).append(member)
    return cases


def _load_prob_set(member: dict[str, Path]) -> RegionProbSet:
    maps = {}
    spacing = None
    for region in REGIONS:
        data, sp = read_probability_volume(member[region])
        maps[region] = data
        if spacing is None:
            spacing = sp
        elif sp != spacing:
            raise ValidationError(
                f"{member[region]}: spacing {sp.as_tuple()} differs from the "
                f"case's other maps {spacing.as_tuple()}"
            )
    return RegionProbSet(maps["WT"], maps["TC"], maps["ET"], spacing)


def _cmd_ensemble(args) -> int:
    config = load_config(args.config)
    threshold = args.threshold if args.threshold is not None else config.threshold
    cases = parse_ensemble_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for case_id, configurations in cases.items():
        members = [
            [_load_prob_set(member) for member in configuration]
            for configuration in configurations.values()
        ]
        combined = two_level_ensemble(members)
        labels = regions_to_labels(combined, threshold, config.coding)
        write_label_volume(out_dir / (case_id + args.format), labels)
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
    if epoch is not None:
        try:
            seconds = int(epoch)
        except ValueError:
            raise ValidationError(
                f"SOURCE_DATE_EPOCH must be an integer, got {epoch!r}"
            )
    else:
        seconds = int(time.time())
    return datetime.fromtimestamp(seconds, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _load_store(path: Path) -> tuple[dict, dict[str, dict[str, list[MetricRecord]]]]:
    """Return the store document and its records per algorithm id.

    Any malformed submission, including a repeated algorithm id, raises
    :class:`FormatError` naming the store and the submission.
    """
    if not path.exists():
        return {"submissions": [], "ranking": None}, {}
    try:
        raw = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"leaderboard store {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict) or not isinstance(raw.get("submissions"), list):
        raise FormatError(f"leaderboard store {path}: expected a 'submissions' list")
    per_algorithm: dict[str, dict[str, list[MetricRecord]]] = {}
    try:
        for n, submission in enumerate(raw["submissions"]):
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
            if algorithm_id in per_algorithm:
                raise ValidationError(f"{where}: duplicate algorithm_id {algorithm_id!r}")
            per_case = per_algorithm[algorithm_id] = {}
            for case_id, regions in submission["metrics"].items():
                at = f"{where} case {case_id}"
                per_case[case_id] = []
                for region, entry in regions.items():
                    if not isinstance(entry, dict) or not all(
                        isinstance(entry.get(key), (int, float)) for key in ("dice", "hd95")
                    ):
                        raise ValidationError(f"{at}: region {region!r} needs numeric dice and hd95")
                    special = entry.get("special_case", "none")
                    per_case[case_id].append(
                        _record(at, region, entry["dice"], entry["hd95"], special)
                    )
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
    return raw, per_algorithm


def _save_ranked(path: Path, store: dict, per_algorithm: dict) -> dict:
    """Rank ``per_algorithm`` into the store, empty it to free memory, rewrite the store."""
    if not per_algorithm:
        raise ValidationError("leaderboard store has no submissions")
    table = MetricTable.from_records(per_algorithm)
    store["ranking"] = _rank_result_document(brats_ranking(table))
    per_algorithm.clear()
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, store)
    return store


def leaderboard_add(store_path, metrics_path, algorithm_id: str) -> dict:
    """Append a submission to the store and recompute the ranking.

    The new submission must cover exactly the case ids already in the
    store (any submission order), and the algorithm id must be new.  The
    document is rewritten atomically; on any validation failure the store
    is left untouched.
    """
    store_path = Path(store_path)
    store, per_algorithm = _load_store(store_path)
    if algorithm_id in per_algorithm:
        raise ValidationError(f"algorithm id {algorithm_id!r} already in store")
    per_case = read_metrics_csv(metrics_path)
    if per_algorithm:
        existing = set(next(iter(per_algorithm.values())))
        incoming = set(per_case)
        if existing != incoming:
            differing = sorted(existing ^ incoming)
            raise ValidationError(
                f"submission case ids differ from the store's: {differing[:5]}"
            )
    metrics_doc = {
        case_id: {
            rec.region: {
                "dice": rec.dice,
                "hd95": rec.hd95,
                "special_case": rec.special_case.value,
            }
            for rec in records
        }
        for case_id, records in sorted(per_case.items())
    }
    store["submissions"].append(
        {
            "algorithm_id": algorithm_id,
            "timestamp": _timestamp(),
            "metrics": metrics_doc,
        }
    )
    per_algorithm[algorithm_id] = per_case
    return _save_ranked(store_path, store, per_algorithm)


def leaderboard_recompute(store_path) -> dict:
    """Recompute the stored ranking from the stored submissions."""
    store_path = Path(store_path)
    return _save_ranked(store_path, *_load_store(store_path))


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
