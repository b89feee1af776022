"""voxeval benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

One run:

    python3 perfbench/run.py --workload cohort_eval --seed 1 --seconds 20 --trace 0

generates the seed's inputs once (under .perfbench/ in the checkout), times
fresh interpreters importing voxeval.cli (setup), then starts one fresh
runner interpreter (drive.py) that repeats the workload's subcommands for
--seconds and checks every output against the seed's references.  It prints
a report with every metric by name, unit and direction, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run.

Steadiness mode runs each workload repeatedly on one seed and prints each
metric's median, quartiles and spread against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --steadiness 10 --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench"
# Setup is timed this many times before and again after the timed runner,
# so the median spans the run rather than one moment of the machine's load.
SETUP_REPEATS = 3
# The runner stops starting passes after --seconds; this margin covers the
# last pass (an untraced and a traced one with --trace 1) and the memory probe.
RUNNER_MARGIN_S = 90

sys.path.insert(0, str(HERE))
from common import WORKLOADS  # noqa: E402

#: Metrics in BENCHMARK.json: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_s": ("s", "lower"),
}
PER_LAYER = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in
       ("io", "volume", "metrics", "aggregate", "ranking", "postprocess", "ensemble", "cli")},
    "io.bytes_read": ("bytes", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "metrics.surface_voxels": ("count", "lower"),
    "metrics.box_voxels": ("count", "lower"),
    "metrics.distance_useful_ratio": ("ratio", "higher"),
    "metrics.special_case_share": ("ratio", "higher"),
    "ranking.columns_ranked": ("count", "lower"),
    "ranking.flips": ("count", "lower"),
    "postprocess.candidates": ("count", "lower"),
    "postprocess.cases": ("count", "lower"),
}


MEMORY_NOTES = {
    "runner_peak_rss_mb": "VmHWM of the runner: in-process subcommands and the harness",
    "evaluate_peak_rss_mb": "fresh default-jobs evaluate: main peak + workers x worker growth",
    "evaluate_main_peak_rss_mb": "VmHWM of that evaluate's main process",
    "evaluate_worker_growth_mb": "largest worker ru_maxrss minus the main RSS at fork",
}


def named_metrics(workload: str, samples: dict) -> dict[str, tuple[list[float], str, str]]:
    """The workload's per-subcommand metrics: name -> (samples, unit, better)."""
    spec = WORKLOADS[workload]
    if workload == "cohort_eval":
        n = len(spec["case_order"])
        return {
            "eval_cases_per_s": ([n / v for v in samples["eval_parallel_s"]], "cases/s", "higher"),
            "eval_serial_cases_per_s": ([n / v for v in samples["eval_serial_s"]], "cases/s", "higher"),
        }
    if workload == "challenge_rank":
        k = spec["leaderboard_adds"]
        return {
            "rank_s": (samples["rank_s"], "s", "lower"),
            "stability_s": (samples["stability_s"], "s", "lower"),
            "leaderboard_adds_per_s": ([k / v for v in samples["leaderboard_s"]], "adds/s", "higher"),
        }
    n = spec["cases"]
    return {
        "ensemble_cases_per_s": ([n / v for v in samples["ensemble_s"]], "cases/s", "higher"),
        "sweep_s": (samples["sweep_s"], "s", "lower"),
        "apply_cases_per_s": ([n / v for v in samples.get("apply_s", [])], "cases/s", "higher"),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "caches": caches}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # Leaderboard timestamps honour it, so stored outputs are byte-stable.
    env["SOURCE_DATE_EPOCH"] = "0"
    return env


def measure_setup(env: dict, warm_up: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter until voxeval.cli is imported.

    The warm-up spawn is untimed, so bytecode caches exist as they do for
    users.
    """
    code = "import time, voxeval.cli; print(repr(time.monotonic()))"
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if i or not warm_up:
            times.append(float(out.stdout) - start)
    return times


def run_once(workload: str, seed: int, seconds: int, trace: int) -> int:
    import gen  # scipy-heavy; only the orchestrator needs it

    inputs = gen.ensure_inputs(workload, seed, CACHE / "inputs")
    env = child_env()
    setup = measure_setup(env, warm_up=True) if not trace else []
    work = CACHE / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    # A session of its own, so a timeout also ends the pool workers and the
    # memory probe the runner started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "drive.py"), "--workload", workload, "--inputs", str(inputs),
         "--work", str(work), "--seconds", str(seconds), "--trace", str(trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=2 * seconds + RUNNER_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: drive.py did not finish within {2 * seconds + RUNNER_MARGIN_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: drive.py exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(stdout.strip().splitlines()[-1])
    if not trace:
        setup += measure_setup(env, warm_up=False)
    samples = report["samples"]
    env_info = environment()
    spec = WORKLOADS[workload]
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace} "
          f"passes={report['passes']} | nproc={env_info['nproc']} python={env_info['python']} "
          f"numpy={env_info['numpy']} scipy={env_info['scipy']} caches={env_info['caches']}")
    print(f"workload: {json.dumps(spec)}")
    print("closed loop, one client; the evaluate pool is the only concurrency (jobs <= nproc)")
    rows = []
    if trace:
        metrics = {name: report["trace"]["metrics"][name] for name in PER_LAYER}
        for name, value in metrics.items():
            rows.append((name, value, *PER_LAYER[name], "traced passes, per pass"))
        for name, value in report["trace"]["named"].items():
            unit = "ms" if "_ms" in name else "MB/s" if "_per_s" in name else "s" if name.endswith("_s") else "ratio"
            rows.append((name, value, unit, "lower" if unit in ("ms", "s") else "higher", "traced run"))
        rows.append(("trace.untraced_serial_s", statistics.median(samples["serial_s"]), "s", "lower",
                     "base of trace.overhead_ratio"))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
            "pass_s": statistics.median(samples["pass_s"]),
        }
        rows.append(("setup_s", metrics["setup_s"], "s", "lower",
                     f"median of {len(setup)} fresh interpreters"))
        rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", "lower",
                     "the largest of the figures below"))
        for name, value in report["memory"].items():
            rows.append((name, value, "MB", "lower", MEMORY_NOTES[name]))
        q1, q2, q3 = quartiles(samples["pass_s"])
        rows.append(("pass_s", q2, "s", "lower", f"median of {len(samples['pass_s'])} passes, q1 {q1:.4f} q3 {q3:.4f}"))
        for name, (values, unit, better) in named_metrics(workload, samples).items():
            if not values:  # the step never ran because an earlier one failed
                continue
            q1, q2, q3 = quartiles(values)
            rows.append((name, q2, unit, better, f"median of {len(values)}, q1 {q1:.4f} q3 {q3:.4f}"))
    error_rate = report["failed"] / report["attempted"]
    rows.append(("error_rate", error_rate, "failed/attempted", "lower",
                 f"{report['failed']} of {report['attempted']} operations"))
    for name, value, unit, better, note in rows:
        if isinstance(value, dict) and "p50" in value:
            shown = f"p50 {value['p50']:.4g}, tail {value['tail']:.4g} ({value['tail_pct']}), n={value['n']}"
        elif isinstance(value, dict):
            shown = " ".join(f"{k}:{v:.4g}" for k, v in value.items())
        else:
            shown = f"{value:.6g}"
        print(f"  {name:<40} {shown:<14} {unit:<17} {better:<7} {note}")
    print(f"digests (stable across passes: {report['digests_stable']}): {json.dumps(report['digests'])}")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_info, "report": report, "setup_s": setup,
        "named": {row[0]: row[1] for row in rows},
    }
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": (PER_LAYER if trace else END_TO_END)[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


def steadiness(workloads: list[str], runs: int, seed: int, seconds: int, trace: int) -> int:
    """Run each workload RUNS times on one seed; print each metric's median,
    quartiles and spread (q3 - q1) / median against its bound."""
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        bounds = {m["name"]: m.get("bound") for m in json.loads(bench.read_text())["end_to_end"]}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for run in range(runs):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} run {run}: exit {proc.returncode}")
                status = 1
                continue
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            result = json.loads((CACHE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
            for name, value in result["named"].items():
                if isinstance(value, (int, float)):
                    values.setdefault(name, []).append(value)
            print(f"{workload} run {run}: correct={final['correct']} "
                  f"attempted={final['attempted']} failed={final['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in final["metrics"].items()), flush=True)
        print(f"\n{workload}: {runs} runs of seed {seed}, {seconds} s each")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:<40} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="voxeval benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run every workload (or --workload) RUNS times on --seed")
    args = parser.parse_args()
    if not (ROOT / "src" / "voxeval" / "cli.py").is_file():
        print(f"perfbench: no voxeval sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.steadiness:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(workloads, args.steadiness, args.seed, args.seconds, args.trace)
    if not args.workload:
        parser.error("--workload is required unless --steadiness is given")
    return run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
