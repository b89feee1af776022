"""One timed perfbench run of one workload, in a fresh interpreter.

The run imports ``voxeval.cli``, then repeats passes over the
workload's subcommands until ``--seconds`` have elapsed, as a closed loop
with a single client.  Untraced passes call ``voxeval.cli.main(argv)``
exactly as the command line does.  With ``--trace 1`` every untraced serial
pass is followed by a traced pass that calls each layer's public functions
in the order the CLI uses them, at one job, with spans recorded around
each call; nothing inside voxeval is patched.  Every output of every pass
is checked against the references generated for the seed.

The last line of stdout is one JSON object with the raw samples; run.py
turns it into the reported metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import voxeval.cli as cli
from voxeval.aggregate import percentile
from voxeval.ensemble import two_level_ensemble
from voxeval.io import read_probability_volume, read_volume, write_label_volume
from voxeval.metrics import dice, evaluate_case, surface_distances
from voxeval.postprocess import apply_et_threshold, optimize_threshold, sweep_thresholds
from voxeval.ranking import MetricTable, brats_ranking, jackknife_stability
from voxeval.volume import LabelVolume, RegionProbSet, labels_to_regions, regions_to_labels

from common import REGIONS, WORKLOADS, read_nifti, status_kb

NPROC = len(os.sched_getaffinity(0))
LAYERS = ("io", "volume", "metrics", "aggregate", "ranking", "postprocess", "ensemble", "cli")
_FLIP_HEADER = ["removed", "algorithm_a", "algorithm_b", "full_relation", "jackknife_relation"]


# --------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Operations attempted and failed; an operation is one case, submission
    or written volume."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: list[bool]) -> None:
        self.attempted += len(ok)
        self.failed += ok.count(False)

    def check(self, n: int, check, *args) -> list[bool]:
        """Run one output check; a missing or malformed output fails all n."""
        try:
            ok = check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            traceback.print_exc()
            ok = [False] * n
        self.add(ok)
        return ok


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Call the CLI entry point in-process; return (exit code, wall seconds)."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Tracer:
    """In-memory spans: name, start, end, parent, workload, case id."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, case: str | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {
            "name": name,
            "parent": parent["id"] if parent else None,
            "workload": self.workload,
            "case": case if case is not None else (parent["case"] if parent else None),
            **attrs,
        }
        rec["id"] = len(self.spans)
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------
# cohort_eval


class CohortEval:
    def __init__(self, inputs: Path, work: Path, refs: dict) -> None:
        self.inputs, self.work, self.refs = inputs, work, refs
        self.cases = refs["cases"]
        self.n = len(self.cases)
        self.ops_per_pass = self.n

    def _evaluate(self, out: Path, tag: str, jobs: int | None) -> tuple[int, float]:
        argv = ["evaluate", "--manifest", str(self.inputs / "manifest.csv"),
                "--out-metrics", str(out / f"metrics_{tag}.csv"),
                "--out-summary", str(out / f"summary_{tag}.csv")]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        return run_cli(argv)

    def untraced(self, tally: Tally) -> dict:
        out = fresh_dir(self.work / "pass")
        walls = {}
        code, walls["eval_parallel_s"] = self._evaluate(out, "par", None)
        tally.check(self.n, self.check, out, "par", code)
        code, walls["eval_serial_s"] = self._evaluate(out, "ser", 1)
        digests = {f.name: sha256(f) for f in sorted(out.glob("*.csv"))}
        # Both job counts must write the same bytes; a difference fails the
        # serial call as a nonzero exit would.
        same = all(digests.get(f"{kind}_ser.csv") == digests.get(f"{kind}_par.csv")
                   for kind in ("metrics", "summary"))
        tally.check(self.n, self.check, out, "ser", code if same else -1)
        return {"walls": walls, "digests": digests}

    def parallel_rss(self, tally: Tally) -> dict:
        """Peak memory of a default-jobs evaluate run the way a user runs it.

        The runner cannot measure its own pool: its workers fork from a
        process that already holds the harness and an earlier pass's heap.
        So one more evaluate runs in a fresh interpreter (rss_probe.py), and
        its figure is that process's peak plus, for every worker, the
        largest worker's growth beyond the pages it shares at fork.  It
        assumes all workers peak at the same moment, which overstates.
        """
        out = fresh_dir(self.work / "probe")
        argv = ["evaluate", "--manifest", str(self.inputs / "manifest.csv"),
                "--out-metrics", str(out / "metrics_par.csv"),
                "--out-summary", str(out / "summary_par.csv")]
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("rss_probe.py")), json.dumps(argv)],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        probe = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {"code": 1}
        if not all(tally.check(self.n, self.check, out, "par", probe["code"])):
            return {}
        workers = min(NPROC, self.n)
        growth_kb = max(0, probe["worker_kb"] - probe["before_kb"])
        return {
            "evaluate_peak_rss_mb": (probe["hwm_kb"] + workers * growth_kb) / 1024.0,
            "evaluate_main_peak_rss_mb": probe["hwm_kb"] / 1024.0,
            "evaluate_worker_growth_mb": growth_kb / 1024.0,
        }

    def check(self, out: Path, tag: str, code: int) -> list[bool]:
        if code != 0:
            return [False] * self.n
        rows = _read_rows(out / f"metrics_{tag}.csv")
        if [r["case_id"] for r in rows] != [c["id"] for c in self.cases for _ in REGIONS]:
            return [False] * self.n
        ok = []
        for i, case in enumerate(self.cases):
            got = rows[3 * i : 3 * i + 3]
            ok.append(all(
                r["region"] == region
                and float(r["dice"]) == case["records"][region]["dice"]
                and abs(float(r["hd95"]) - case["records"][region]["hd95"]) <= 1e-9
                and r["special_case"] == case["records"][region]["special"]
                for r, region in zip(got, REGIONS)
            ))
        if not self._summary_ok(out / f"summary_{tag}.csv"):
            ok = [False] * self.n
        return ok

    def _summary_ok(self, path: Path) -> bool:
        rows = {r["statistic"]: r for r in _read_rows(path)}
        for metric in ("dice", "hd95"):
            for region in REGIONS:
                values = np.array([c["records"][region][metric] for c in self.cases])
                want = {
                    "mean": values.mean(), "stddev": values.std(),
                    "median": np.median(values), "p25": np.quantile(values, 0.25),
                    "p75": np.quantile(values, 0.75), "count": len(values),
                }
                column = f"{region.lower()}_{metric}"
                if not all(
                    stat in rows and _close(float(rows[stat][column]), float(value), 1e-8)
                    for stat, value in want.items()
                ):
                    return False
        return True

    def traced(self, tr: Tracer, tally: Tally) -> None:
        out = fresh_dir(self.work / "pass")
        kinds = {c["id"]: c["kind"] for c in self.cases}
        boxes = {c["id"]: c["records"] for c in self.cases}
        with tr.span("pass"):
            config = cli.load_config(None)
            with tr.span("cli.parse_manifest"):
                manifest = cli.parse_manifest(self.inputs / "manifest.csv")
            results = []
            for row in manifest.rows:
                kind = kinds[row.case_id]
                with tr.span("case", case=row.case_id, kind=kind):
                    ref = load_label(tr, row.reference_path, config.coding)
                    pred = load_label(tr, row.prediction_path, config.coding)
                    with tr.span("metrics.evaluate_case", kind=kind) as span:
                        records = evaluate_traced(tr, ref, pred, config.policy, kind, boxes[row.case_id])
                    span["special_cases"] = sum(r[3] != "none" for r in records)
                results.append((row.case_id, records))
            # _summary_rows is summarize() per column plus the row glue.
            with tr.span("aggregate.summarize"):
                header, summary = cli._summary_rows(results)
            with tr.span("cli.write_outputs"):
                cli._write_csv(out / "metrics_ser.csv",
                               ["case_id", "region", "dice", "hd95", "special_case"],
                               cli._metrics_rows(results))
                cli._write_csv(out / "summary_ser.csv", header, summary)
        tally.check(self.n, self.check, out, "ser", 0)


def load_label(tr: Tracer, path: Path, coding) -> LabelVolume:
    """read_label_volume split at its layer boundary (inputs are uint8, so
    its float branch never runs)."""
    with tr.span("io.read_volume") as span:
        header, data = read_volume(path)
    span["bytes_read"] = data.nbytes
    with tr.span("volume.label_validate"):
        return LabelVolume(data, header.spacing, coding)


def evaluate_traced(tr: Tracer, ref, pred, policy, kind: str, expected: dict) -> list:
    """evaluate_case's control flow, one public call per span."""
    with tr.span("volume.labels_to_regions"):
        ref_regions = labels_to_regions(ref)
    with tr.span("volume.labels_to_regions"):
        pred_regions = labels_to_regions(pred)
    records = []
    for name in REGIONS:
        a, b = ref_regions.region(name), pred_regions.region(name)
        ref_empty, pred_empty = not a.any(), not b.any()
        if ref_empty or pred_empty:
            if ref_empty and pred_empty:
                rec = (name, policy.perfect_dice, policy.perfect_hd95, "both_empty")
            else:
                special = "ref_empty_pred_nonempty" if ref_empty else "ref_nonempty_pred_empty"
                rec = (name, policy.worst_dice, policy.worst_hd95, special)
            records.append(rec)
            continue
        with tr.span("metrics.dice"):
            d = dice(a, b)
        with tr.span("metrics.surface_distances", kind=kind) as span:
            d_ab, d_ba = surface_distances(a, b, ref.spacing)
        span["surface_voxels"] = len(d_ab) + len(d_ba)
        # The union box comes from the generator; measuring it here would
        # add work the CLI does not do.
        span["box_voxels"] = expected[name]["box_voxels"]
        with tr.span("aggregate.percentile"):
            p_ab = percentile(d_ab, 95.0)
        with tr.span("aggregate.percentile"):
            p_ba = percentile(d_ba, 95.0)
        records.append((name, d, max(p_ab, p_ba), "none"))
    return records


# --------------------------------------------------------------------------
# challenge_rank


class ChallengeRank:
    def __init__(self, inputs: Path, work: Path, refs: dict) -> None:
        self.inputs, self.work, self.refs = inputs, work, refs
        self.names = refs["full"]["algorithms"]
        self.k = WORKLOADS["challenge_rank"]["leaderboard_adds"]
        self.ops_per_pass = 2 * len(self.names) + self.k
        self.pairs = [f"{n}={inputs / (n + '.csv')}" for n in self.names]
        expected = {n: [] for n in self.names}
        for flip in refs["flips"]:
            expected[flip[0]].append(flip)
        self.expected_flips = expected

    def untraced(self, tally: Tally) -> dict:
        out = fresh_dir(self.work / "pass")
        walls = {}
        code, walls["rank_s"] = run_cli(["rank", *self.pairs, "--out", str(out / "rank.json")])
        tally.check(len(self.names), self.check_rank, out, code)
        code, walls["stability_s"] = run_cli(["stability", *self.pairs, "--out", str(out / "flips.csv")])
        tally.check(len(self.names), self.check_flips, out, code)
        codes, walls["leaderboard_s"] = [], 0.0
        for name in self.names[: self.k]:
            code, wall = run_cli(["leaderboard", "add", "--store", str(out / "store.json"),
                                  "--metrics", str(self.inputs / f"{name}.csv"), "--algorithm", name])
            codes.append(code)
            walls["leaderboard_s"] += wall
        tally.check(self.k, self.check_store, out, codes)
        return {"walls": walls, "digests": {
            name: sha256(out / name) for name in ("rank.json", "flips.csv", "store.json")
            if (out / name).is_file()}}

    @staticmethod
    def _ranking_ok(doc: dict, want: dict) -> list[bool]:
        if doc.get("algorithms") != want["algorithms"] or doc.get("ordering") != want["ordering"]:
            return [False] * len(want["algorithms"])
        return [
            _close(doc["mean_rank"][a], mr, 1e-12) and _close(doc["ranking_score"][a], s, 1e-12)
            for a, mr, s in zip(want["algorithms"], want["mean_rank"], want["score"])
        ]

    def check_rank(self, out: Path, code: int) -> list[bool]:
        if code != 0:
            return [False] * len(self.names)
        return self._ranking_ok(json.loads((out / "rank.json").read_text()), self.refs["full"])

    def check_flips(self, out: Path, code: int) -> list[bool]:
        if code != 0:
            return [False] * len(self.names)
        rows = _read_rows(out / "flips.csv")
        got = {n: [] for n in self.names}
        for r in rows:
            got.setdefault(r["removed"], []).append([r[c] for c in _FLIP_HEADER])
        return [got[n] == self.expected_flips[n] for n in self.names]

    def check_store(self, out: Path, codes: list[int]) -> list[bool]:
        store = json.loads((out / "store.json").read_text())
        ids = [s["algorithm_id"] for s in store["submissions"]]
        if ids != self.names[: self.k] or not all(self._ranking_ok(store["ranking"], self.refs["store"])):
            return [False] * len(codes)
        return [code == 0 for code in codes]

    def traced(self, tr: Tracer, tally: Tally) -> None:
        out = fresh_dir(self.work / "pass")
        paths = [(n, self.inputs / f"{n}.csv") for n in self.names]
        with tr.span("pass"):
            table = self._load_table(tr, paths)
            with tr.span("ranking.brats_ranking", columns=6 * len(table.cases)):
                result = brats_ranking(table)
            with tr.span("cli.write_outputs"):
                cli._write_json(out / "rank.json", cli._rank_result_document(result))
            table = self._load_table(tr, paths)
            pools = 1 + len(table.algorithms)
            with tr.span("ranking.jackknife", columns=6 * len(table.cases) * pools) as span:
                report = jackknife_stability(table)
            span["flips"] = len(report.flips)
            with tr.span("cli.write_outputs"):
                cli._write_csv(out / "flips.csv", _FLIP_HEADER, [
                    [f.removed, f.algorithm_a, f.algorithm_b, f.full_relation, f.jackknife_relation]
                    for f in report.flips])
            for size, (name, path) in enumerate(paths[: self.k]):
                # leaderboard_add ranks the whole store once per add.
                with tr.span("cli.leaderboard_add", case=name, store_size=size,
                             columns=6 * len(table.cases)):
                    cli.leaderboard_add(out / "store.json", path, name)
        tally.check(len(self.names), self.check_rank, out, 0)
        tally.check(len(self.names), self.check_flips, out, 0)
        tally.check(self.k, self.check_store, out, [0] * self.k)

    @staticmethod
    def _load_table(tr: Tracer, paths) -> MetricTable:
        per_algorithm = {}
        for name, path in paths:
            with tr.span("cli.read_metrics_csv", case=name):
                per_algorithm[name] = cli.read_metrics_csv(path)
        with tr.span("ranking.from_records"):
            return MetricTable.from_records(per_algorithm)


# --------------------------------------------------------------------------
# ensemble_postprocess


class EnsemblePostprocess:
    def __init__(self, inputs: Path, work: Path, refs: dict) -> None:
        self.inputs, self.work, self.refs = inputs, work, refs
        self.cases = refs["cases"]
        self.n = len(self.cases)
        self.ops_per_pass = 3 * self.n
        with np.load(inputs / "expected_labels.npz") as npz:
            self.expected = {k: npz[k] for k in npz.files}

    def _pass_dir(self) -> Path:
        out = fresh_dir(self.work / "pass")
        # Predictions are this pass's ensemble outputs, referenced relative
        # to the manifest.
        shutil.copy(self.inputs / "postprocess.csv", out / "postprocess.csv")
        return out

    def untraced(self, tally: Tally) -> dict:
        out = self._pass_dir()
        walls = {}
        code, walls["ensemble_s"] = run_cli(["ensemble", "--manifest", str(self.inputs / "ensemble.csv"),
                                             "--out-dir", str(out / "ensemble")])
        tally.check(self.n, self.check_volumes, out / "ensemble", code, None)
        code, walls["sweep_s"] = run_cli(["optimize-postprocess", "--manifest", str(out / "postprocess.csv"),
                                          "--out-sweep", str(out / "sweep.csv"),
                                          "--out-choice", str(out / "choice.json")])
        if all(tally.check(self.n, self.check_sweep, out, code)):
            threshold = self.refs["sweep"]["choice"]["best_by_rank"]
            code, walls["apply_s"] = run_cli(["apply-postprocess", "--manifest", str(out / "postprocess.csv"),
                                              "--threshold-mm3", repr(threshold),
                                              "--out-dir", str(out / "applied")])
            tally.check(self.n, self.check_volumes, out / "applied", code, threshold)
        else:
            tally.add([False] * self.n)
        return {"walls": walls, "digests": self._digests(out)}

    @staticmethod
    def _digests(out: Path) -> dict:
        digests = {n: sha256(out / n) for n in ("sweep.csv", "choice.json") if (out / n).is_file()}
        for sub in ("ensemble", "applied"):
            files = sorted((out / sub).glob("*.nii.gz")) if (out / sub).is_dir() else []
            digests.update({f"{sub}/{f.name}": sha256(f) for f in files})
        return digests

    def check_volumes(self, folder: Path, code: int, threshold: float | None) -> list[bool]:
        if code != 0:
            return [False] * self.n
        ok = []
        for case in self.cases:
            want = self.expected[case["id"]]
            if threshold is not None and 0.0 < case["et_voxels"] < threshold:
                want = np.where(want == 4, 1, want).astype(np.uint8)
            got, spacing = read_nifti(folder / f"{case['id']}.nii.gz")
            ok.append(got.dtype == np.uint8 and spacing == (1.0, 1.0, 1.0) and np.array_equal(got, want))
        return ok

    def check_sweep(self, out: Path, code: int) -> list[bool]:
        """The sweep table and the choice; all cases pass or fail together."""
        ref = self.refs["sweep"]
        if code != 0:
            return [False] * self.n
        rows = _read_rows(out / "sweep.csv")
        choice = json.loads((out / "choice.json").read_text())
        good = len(rows) == len(ref["thresholds"]) and choice == ref["choice"] and all(
            float(r["threshold_mm3"]) == t
            and _close(float(r["mean_et_dice"]), d, 1e-12)
            and int(r["perfect_cases"]) == p
            and int(r["worst_cases"]) == w
            and _close(float(r["ranking_score"]), s, 1e-12)
            for r, t, d, p, w, s in zip(rows, ref["thresholds"], ref["mean_et_dice"],
                                        ref["perfect"], ref["worst"], ref["ranking_score"])
        )
        return [good] * self.n

    def traced(self, tr: Tracer, tally: Tally) -> None:
        out = self._pass_dir()
        (out / "ensemble").mkdir()
        (out / "applied").mkdir()
        with tr.span("pass"):
            config = cli.load_config(None)
            with tr.span("cli.parse_ensemble_manifest"):
                cases = cli.parse_ensemble_manifest(self.inputs / "ensemble.csv")
            for case_id, configurations in cases.items():
                with tr.span("case", case=case_id):
                    members = [[self._load_member(tr, m) for m in c] for c in configurations.values()]
                    computed = sum(3 * m.p_wt.nbytes for c in members for m in c)
                    with tr.span("ensemble.two_level", computed_bytes=computed):
                        combined = two_level_ensemble(members)
                    with tr.span("volume.regions_to_labels"):
                        labels = regions_to_labels(combined, config.threshold, config.coding)
                    self._write(tr, out / "ensemble" / f"{case_id}.nii.gz", labels)
            with tr.span("cli.parse_manifest"):
                manifest = cli.parse_manifest(out / "postprocess.csv")
            with tr.span("postprocess.read_pairs"):
                pairs = [(load_label(tr, row.reference_path, config.coding),
                          load_label(tr, row.prediction_path, config.coding))
                         for row in manifest.rows]
            with tr.span("postprocess.sweep_thresholds", cases=len(pairs)) as span:
                sweep = sweep_thresholds(pairs, None, config.policy)
            span["candidates"] = len(sweep.thresholds)
            with tr.span("postprocess.optimize"):
                choice = optimize_threshold(sweep)
            with tr.span("cli.write_outputs"):
                cli._write_csv(out / "sweep.csv",
                               ["threshold_mm3", "mean_et_dice", "perfect_cases", "worst_cases", "ranking_score"],
                               [[cli._format_float(t), cli._format_float(sweep.mean_et_dice[i]),
                                 str(int(sweep.perfect_counts[i])), str(int(sweep.worst_counts[i])),
                                 cli._format_float(sweep.ranking_scores[i])]
                                for i, t in enumerate(sweep.thresholds)])
                cli._write_json(out / "choice.json",
                                {"best_by_dice": choice.best_by_dice, "best_by_rank": choice.best_by_rank})
            with tr.span("cli.parse_manifest"):
                manifest = cli.parse_manifest(out / "postprocess.csv")
            for row in manifest.rows:
                with tr.span("case", case=row.case_id):
                    pred = load_label(tr, row.prediction_path, config.coding)
                    with tr.span("postprocess.apply"):
                        cleaned = apply_et_threshold(pred, choice.best_by_rank)
                    self._write(tr, out / "applied" / f"{row.case_id}.nii.gz", cleaned)
        tally.check(self.n, self.check_volumes, out / "ensemble", 0, None)
        tally.check(self.n, self.check_sweep, out, 0)
        tally.check(self.n, self.check_volumes, out / "applied", 0, self.refs["sweep"]["choice"]["best_by_rank"])
        # One evaluate_case per case, outside the pass: the sweep's unit cost.
        for (ref, pred), row in zip(pairs, manifest.rows):
            with tr.span("postprocess.et_evaluate", case=row.case_id):
                evaluate_case(ref, pred, config.policy)

    @staticmethod
    def _load_member(tr: Tracer, member: dict) -> RegionProbSet:
        """The CLI's per-member load: three map reads, then validation."""
        with tr.span("ensemble.load_member"):
            maps, spacing = {}, None
            for region in REGIONS:
                with tr.span("io.read_volume") as span:
                    maps[region], spacing = read_probability_volume(member[region])
                # Decompressed float32 payload.
                span["bytes_read"] = maps[region].size * 4
            with tr.span("volume.probset_validate"):
                return RegionProbSet(maps["WT"], maps["TC"], maps["ET"], spacing)

    @staticmethod
    def _write(tr: Tracer, path: Path, volume: LabelVolume) -> None:
        with tr.span("io.write_volume", bytes_written=volume.data.nbytes):
            write_label_volume(path, volume)


# --------------------------------------------------------------------------
# trace summary


def _self_times(spans: list[dict]) -> dict[int, float]:
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def dist_ms(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ms = sorted(v * 1e3 for v in values)
    n = len(ms)
    out = {"p50": statistics.median(ms), "n": n}
    for pct in (99, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            out["tail"], out["tail_pct"] = float(np.percentile(ms, pct)), pct
            break
    else:
        out["tail"], out["tail_pct"] = ms[-1], "max"
    return out


def summarize_trace(spans: list[dict], untraced_serial: list[float], parallel: list[float],
                    refs: dict, workload: str) -> dict:
    """Per-layer numbers of one traced run: generic metrics and named ones."""
    traced_walls = [s["end"] - s["start"] for s in spans if s["name"] == "pass"]
    passes = len(traced_walls)
    self_t = _self_times(spans)
    in_pass = set()
    for s in spans:  # spans are appended in start order, so parents come first
        if s["name"] == "pass" or s["parent"] in in_pass:
            in_pass.add(s["id"])
    total = sum(traced_walls)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s["id"] in in_pass and "." in s["name"]:
            layer_self[s["name"].split(".")[0]] += self_t[s["id"]]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, **match):
        return [s["end"] - s["start"] for s in by_name.get(name, [])
                if all(s.get(k) == v for k, v in match.items())]

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, []) if s["id"] in in_pass)

    bytes_read = attr_sum("io.read_volume", "bytes_read")
    bytes_written = attr_sum("io.write_volume", "bytes_written")
    surface = attr_sum("metrics.surface_distances", "surface_voxels")
    box = attr_sum("metrics.surface_distances", "box_voxels")
    evaluations = 3 * len(by_name.get("metrics.evaluate_case", []))
    special = attr_sum("metrics.evaluate_case", "special_cases")
    columns = attr_sum("ranking.brats_ranking", "columns") + attr_sum("ranking.jackknife", "columns") \
        + attr_sum("cli.leaderboard_add", "columns")
    flips = attr_sum("ranking.jackknife", "flips")
    candidates = attr_sum("postprocess.sweep_thresholds", "candidates")
    sweep_cases = attr_sum("postprocess.sweep_thresholds", "cases")
    if workload == "ensemble_postprocess":
        surface, box, evaluations, special = _sweep_counts(refs, passes)
    read_s = sum(durations("io.read_volume"))
    metrics = {
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(untraced_serial),
        "trace.unaccounted_share": 1.0 - sum(layer_self.values()) / total,
        **{f"{layer}.self_share": layer_self[layer] / total for layer in LAYERS},
        "io.bytes_read": bytes_read / passes,
        "io.bytes_written": bytes_written / passes,
        "metrics.surface_voxels": surface / passes,
        "metrics.box_voxels": box / passes,
        # The library transforms the union box once per direction.
        "metrics.distance_useful_ratio": surface / (2 * box) if box else 0.0,
        "metrics.special_case_share": special / evaluations if evaluations else 0.0,
        "ranking.columns_ranked": columns / passes,
        "ranking.flips": flips / passes,
        "postprocess.candidates": candidates / passes,
        "postprocess.cases": sweep_cases / passes,
    }
    named = {}
    for name in ("io.read_volume", "io.write_volume", "volume.label_validate", "volume.labels_to_regions",
                 "volume.regions_to_labels", "volume.probset_validate", "metrics.dice",
                 "aggregate.percentile", "aggregate.summarize", "cli.parse_manifest",
                 "cli.parse_ensemble_manifest", "cli.read_metrics_csv", "cli.leaderboard_add",
                 "ranking.from_records", "ranking.brats_ranking", "ranking.jackknife",
                 "postprocess.et_evaluate", "postprocess.apply", "ensemble.load_member",
                 "ensemble.two_level"):
        if name in by_name:
            named[name + "_ms"] = dist_ms(durations(name))
    for kind in ("compact", "multifocal", "no_et"):
        if durations("metrics.evaluate_case", kind=kind):
            named[f"metrics.evaluate_case_ms.{kind}"] = dist_ms(durations("metrics.evaluate_case", kind=kind))
        if durations("metrics.surface_distances", kind=kind):
            named[f"metrics.surface_distances_ms.{kind}"] = dist_ms(
                durations("metrics.surface_distances", kind=kind))
    for name in ("postprocess.read_pairs", "postprocess.sweep_thresholds"):
        if name in by_name:
            named[name + "_s"] = statistics.median(durations(name))
    if read_s:
        named["io.read_mb_per_s"] = bytes_read / 1e6 / read_s
    if "ensemble.two_level" in by_name:
        named["ensemble.mb_averaged_per_s"] = attr_sum("ensemble.two_level", "computed_bytes") / 1e6 / sum(
            s["end"] - s["start"] for s in by_name["ensemble.two_level"] if s["id"] in in_pass)
    if "cli.leaderboard_add" in by_name:
        sizes = sorted({s["store_size"] for s in by_name["cli.leaderboard_add"]})
        named["cli.leaderboard_add_ms.by_store_size"] = {
            str(k): statistics.median(durations("cli.leaderboard_add", store_size=k)) * 1e3 for k in sizes}
    if parallel:
        named["cli.pool_efficiency"] = statistics.median(untraced_serial) / (NPROC * statistics.median(parallel))
    return {"metrics": metrics, "named": named}


def _sweep_counts(refs: dict, passes: int) -> tuple[int, int, int, int]:
    """Distance work and special cases of one sweep, from the references.

    The sweep scores every region of every case at every candidate; only
    the enhancing-tumour outcome depends on the candidate.
    """
    sweep, cases = refs["sweep"], refs["cases"]
    surface = box = special = 0
    for removed in sweep["removed_at"]:
        for case, gone in zip(cases, removed):
            for region in REGIONS:
                rec = case["removed_et"] if region == "ET" and gone else case["records"][region]
                surface += rec.get("surface_voxels", 0)
                box += rec.get("box_voxels", 0)
                special += rec["special"] != "none"
    evaluations = 3 * len(cases) * len(sweep["thresholds"])
    return surface * passes, box * passes, evaluations * passes, special * passes


# --------------------------------------------------------------------------
# main


_WORKLOAD_CLASSES = {
    "cohort_eval": CohortEval,
    "challenge_rank": ChallengeRank,
    "ensemble_postprocess": EnsemblePostprocess,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_WORKLOAD_CLASSES))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    refs = json.loads((args.inputs / "refs.json").read_text())
    workload = _WORKLOAD_CLASSES[args.workload](args.inputs, args.work, refs)
    tally = Tally()
    samples: dict[str, list[float]] = {}
    digests: dict | None = None
    digests_stable = True
    tracer = Tracer(args.workload)
    deadline = time.monotonic() + args.seconds
    while not samples or time.monotonic() < deadline:
        result = workload.untraced(tally)
        walls = result["walls"]
        serial = walls.get("eval_serial_s", sum(walls.values()))
        samples.setdefault("pass_s", []).append(sum(walls.values()))
        samples.setdefault("serial_s", []).append(serial)
        for key, value in walls.items():
            samples.setdefault(key, []).append(value)
        if digests is None:
            digests = result["digests"]
        digests_stable &= result["digests"] == digests
        if args.trace:
            try:
                workload.traced(tracer, tally)
            except Exception:
                traceback.print_exc()
                tally.add([False] * workload.ops_per_pass)
    # VmHWM, unlike RUSAGE_SELF, does not carry over the launcher's peak
    # from before exec.
    runner_mb = status_kb("VmHWM:") / 1024.0
    memory = {"runner_peak_rss_mb": runner_mb}
    if isinstance(workload, CohortEval) and not args.trace:
        memory.update(workload.parallel_rss(tally))
    report = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": len(samples["pass_s"]),
        "samples": samples,
        "peak_rss_mb": max(memory.values()),
        "memory": memory,
        "digests": digests,
        "digests_stable": digests_stable,
    }
    if args.trace:
        (args.work / "spans.json").write_text(json.dumps(tracer.spans))
        report["trace"] = summarize_trace(
            tracer.spans, samples["serial_s"], samples.get("eval_parallel_s", []), refs, args.workload)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
