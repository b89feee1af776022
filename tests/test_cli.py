import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from voxeval import (
    LabelCoding,
    LabelVolume,
    Spacing,
    ValidationError,
    VolumeHeader,
    read_label_volume,
    write_label_volume,
    write_volume,
)
import voxeval.cli
import voxeval.ensemble
from voxeval.cli import (
    CONFIG_ENV,
    Manifest,
    ManifestRow,
    load_config,
    main,
    parse_manifest,
    read_metrics_csv,
)
from test_ranking import FLIP_DICE, FLIP_HD95


def nested_labels(shape=(6, 6, 6)):
    data = np.zeros(shape, dtype=np.uint8)
    data[1:5, 1:5, 1:5] = 2
    data[2:4, 2:4, 2:4] = 1
    data[2:3, 2:3, 2:3] = 4
    return data


def write_case(directory, name, data, spacing=Spacing(), coding=None):
    path = directory / f"{name}.nii"
    kwargs = {} if coding is None else {"coding": coding}
    write_label_volume(path, LabelVolume(np.asarray(data), spacing, **kwargs))
    return path


def write_manifest(path, rows, columns=("case_id", "reference_path", "prediction_path")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def write_metrics_csv(path, per_case):
    rows = []
    for case_id, regions in per_case.items():
        for region, (dice_value, hd95_value) in regions.items():
            rows.append([case_id, region, repr(dice_value), repr(hd95_value), "none"])
    write_manifest(path, rows, columns=("case_id", "region", "dice", "hd95", "special_case"))
    return path


def perfect_manifest(tmp_path, case_ids=("c1", "c2")):
    rows = []
    for i, case_id in enumerate(case_ids):
        data = nested_labels()
        data[5, 5, 5] = 0 if i % 2 else 2  # make cases differ a little
        ref = write_case(tmp_path, f"{case_id}_ref", data)
        pred = write_case(tmp_path, f"{case_id}_pred", data)
        rows.append([case_id, ref.name, pred.name])
    return write_manifest(tmp_path / "manifest.csv", rows)


# --------------------------------------------------------------------------
# manifest parsing


def test_parse_manifest_two_rows(tmp_path):
    manifest = parse_manifest(perfect_manifest(tmp_path))
    assert isinstance(manifest, Manifest)
    assert [row.case_id for row in manifest.rows] == ["c1", "c2"]
    assert all(row.reference_path.is_absolute() for row in manifest.rows)


def test_parse_manifest_duplicate_case_id(tmp_path):
    ref = write_case(tmp_path, "ref", nested_labels())
    path = write_manifest(
        tmp_path / "m.csv",
        [["dup", ref.name, ref.name], ["dup", ref.name, ref.name]],
    )
    with pytest.raises(Exception, match="row 3.*duplicate case_id 'dup'"):
        parse_manifest(path)


def test_parse_manifest_missing_column(tmp_path):
    path = write_manifest(tmp_path / "m.csv", [["c1", "x"]], columns=("case_id", "prediction_path"))
    with pytest.raises(Exception, match=r"missing columns \['reference_path'\]"):
        parse_manifest(path)


def test_parse_manifest_missing_file(tmp_path):
    ref = write_case(tmp_path, "ref", nested_labels())
    path = write_manifest(tmp_path / "m.csv", [["c1", ref.name, "absent.nii"]])
    with pytest.raises(Exception, match="row 2.*prediction_path.*does not exist"):
        parse_manifest(path)


def test_parse_manifest_ignores_other_columns(tmp_path):
    ref = write_case(tmp_path, "ref", nested_labels())
    path = write_manifest(
        tmp_path / "m.csv",
        [["c1", ref.name, ref.name, "absent.nii"]],
        columns=("case_id", "reference_path", "prediction_path", "wt_prob_path"),
    )
    manifest = parse_manifest(path)
    assert manifest.rows == (ManifestRow("c1", ref, ref),)


# --------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_predictions(tmp_path):
    manifest = perfect_manifest(tmp_path)
    out = tmp_path / "metrics.csv"
    summary = tmp_path / "summary.csv"
    code = main(
        [
            "evaluate",
            "--manifest",
            str(manifest),
            "--out-metrics",
            str(out),
            "--out-summary",
            str(summary),
            "--jobs",
            "1",
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [r["case_id"] for r in rows] == ["c1"] * 3 + ["c2"] * 3
    assert [r["region"] for r in rows] == ["WT", "TC", "ET"] * 2
    assert all(r["dice"] == "1.0" for r in rows)
    assert all(r["hd95"] == "0.0" for r in rows)
    assert all(r["special_case"] == "none" for r in rows)

    with open(summary, newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == [
        "statistic",
        "wt_dice",
        "tc_dice",
        "et_dice",
        "wt_hd95",
        "tc_hd95",
        "et_hd95",
    ]
    assert [r[0] for r in srows[1:]] == ["mean", "stddev", "median", "p25", "p75", "count"]
    mean_row = srows[1]
    assert mean_row[1:4] == ["1.0"] * 3 and mean_row[4:] == ["0.0"] * 3
    assert srows[6][1:] == ["2"] * 6


def test_evaluate_outputs_are_deterministic(tmp_path):
    manifest = perfect_manifest(tmp_path)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for out in (first, second):
        assert main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_evaluate_job_count_does_not_change_output(tmp_path):
    manifest = perfect_manifest(tmp_path, case_ids=("zeta", "alpha", "mid"))
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(serial), "--jobs", "1"]) == 0
    assert main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    with open(serial, newline="") as fh:
        case_order = [r["case_id"] for r in csv.DictReader(fh)]
    assert case_order == ["zeta"] * 3 + ["alpha"] * 3 + ["mid"] * 3


def test_evaluate_shape_mismatch_leaves_no_partial_output(tmp_path, capsys):
    ref = write_case(tmp_path, "ref", nested_labels((6, 6, 6)))
    pred = write_case(tmp_path, "pred", np.zeros((5, 5, 5), dtype=np.uint8))
    manifest = write_manifest(tmp_path / "m.csv", [["c1", ref.name, pred.name]])
    out = tmp_path / "metrics.csv"
    code = main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"])
    assert code == 3
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "validation"
    assert "shape" in err["error"]["message"]


def _die(task):
    os._exit(1)


def test_evaluate_worker_crash_exits_five(tmp_path, capsys, monkeypatch):
    manifest = perfect_manifest(tmp_path)
    out = tmp_path / "metrics.csv"
    monkeypatch.setattr(voxeval.cli, "_evaluate_row", _die)
    code = main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "2"])
    assert code == 5
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "io"
    assert "worker process died" in error["message"]
    assert not out.exists()


def test_evaluate_starts_at_most_one_worker_per_case(tmp_path, monkeypatch):
    recorded = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(voxeval.cli, "ProcessPoolExecutor", RecordingPool)
    out = tmp_path / "metrics.csv"
    manifest = perfect_manifest(tmp_path)
    assert main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "64"]) == 0
    assert recorded == [2]
    single = write_manifest(tmp_path / "one.csv", [["c1", "c1_ref.nii", "c1_pred.nii"]])
    assert main(["evaluate", "--manifest", str(single), "--out-metrics", str(out), "--jobs", "64"]) == 0
    assert recorded == [2]  # one case runs serially


@pytest.mark.parametrize(
    "mismatch, jobs",
    [pytest.param(m, 1, id=m) for m in ("shape", "spacing", "label")]
    + [pytest.param(m, 2, id=f"{m}-jobs2") for m in ("shape", "spacing", "label")],
)
def test_evaluate_errors_name_case_and_both_files(tmp_path, capsys, mismatch, jobs):
    good = write_case(tmp_path, "good", nested_labels())
    ref = write_case(tmp_path, "ref", nested_labels())
    if mismatch == "shape":
        pred = write_case(tmp_path, "pred", nested_labels((5, 6, 6)))
    elif mismatch == "spacing":
        pred = write_case(tmp_path, "pred", nested_labels(), spacing=Spacing(2.0, 1.0, 1.0))
    else:
        data = nested_labels()
        data[data == 4] = 3
        pred = write_case(tmp_path, "pred", data, coding=LabelCoding(enhancing=3))
    rows = [["case1", good.name, good.name], ["case7", ref.name, pred.name]]
    manifest = write_manifest(tmp_path / "m.csv", rows)
    out = tmp_path / "metrics.csv"
    argv = ["evaluate", "--manifest", str(manifest), "--out-metrics", str(out)]
    code = main(argv + ["--jobs", str(jobs)])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith(f"case 'case7' (reference {ref}, prediction {pred}): ")
    assert mismatch in message
    assert not out.exists()


def test_metrics_csv_roundtrip(tmp_path):
    manifest = perfect_manifest(tmp_path)
    out = tmp_path / "metrics.csv"
    main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"])
    per_case = read_metrics_csv(out)
    assert set(per_case) == {"c1", "c2"}
    assert [rec.region for rec in per_case["c1"]] == ["WT", "TC", "ET"]
    assert all(rec.dice == 1.0 and rec.hd95 == 0.0 for rec in per_case["c1"])


# --------------------------------------------------------------------------
# rank


def dominance_metrics(tmp_path):
    strong = write_metrics_csv(
        tmp_path / "a.csv",
        {c: {r: (1.0, 0.0) for r in ("WT", "TC", "ET")} for c in ("c1", "c2")},
    )
    weak = write_metrics_csv(
        tmp_path / "b.csv",
        {c: {r: (0.5, 10.0) for r in ("WT", "TC", "ET")} for c in ("c1", "c2")},
    )
    return strong, weak


def test_rank_dominant_algorithm(tmp_path):
    strong, weak = dominance_metrics(tmp_path)
    out = tmp_path / "leaderboard.json"
    assert main(["rank", f"A={strong}", f"B={weak}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["algorithms"] == ["A", "B"]
    assert doc["ranking_score"] == {"A": 0.5, "B": 1.0}
    assert doc["mean_rank"] == {"A": 1.0, "B": 2.0}
    assert doc["ordering"] == ["A", "B"]


def test_rank_identical_copies_are_tied(tmp_path):
    strong, _ = dominance_metrics(tmp_path)
    out = tmp_path / "leaderboard.json"
    assert main(["rank", f"A={strong}", f"B={strong}", f"C={strong}", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    expected = (3 + 1) / (2 * 3)
    assert all(score == expected for score in doc["ranking_score"].values())


def test_rank_rejects_single_input(tmp_path, capsys):
    strong, _ = dominance_metrics(tmp_path)
    assert main(["rank", f"A={strong}", "--out", str(tmp_path / "o.json")]) == 3
    assert "at least two" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_rank_rejects_duplicate_names(tmp_path, capsys):
    strong, weak = dominance_metrics(tmp_path)
    assert main(["rank", f"A={strong}", f"A={weak}", "--out", str(tmp_path / "o.json")]) == 3
    assert "duplicate algorithm id" in json.loads(capsys.readouterr().err)["error"]["message"]


# --------------------------------------------------------------------------
# postprocessing commands


def false_positive_manifest(tmp_path):
    ref = write_case(tmp_path, "ref", np.zeros((8, 8, 8), dtype=np.uint8))
    pred_data = np.zeros((8, 8, 8), dtype=np.uint8)
    pred_data[4, 4, 4:7] = 4
    pred = write_case(tmp_path, "pred", pred_data)
    return write_manifest(tmp_path / "m.csv", [["c1", ref.name, pred.name]])


def test_optimize_postprocess_outputs(tmp_path):
    manifest = false_positive_manifest(tmp_path)
    sweep = tmp_path / "sweep.csv"
    choice = tmp_path / "choice.json"
    code = main(
        [
            "optimize-postprocess",
            "--manifest",
            str(manifest),
            "--candidates",
            "0,10",
            "--out-sweep",
            str(sweep),
            "--out-choice",
            str(choice),
        ]
    )
    assert code == 0
    assert sweep.read_text() == (
        "threshold_mm3,mean_et_dice,perfect_cases,worst_cases,ranking_score\n"
        "0.0,0.0,0,1,1.0\n"
        "10.0,1.0,1,0,0.5\n"
    )
    assert json.loads(choice.read_text()) == {"best_by_dice": 10.0, "best_by_rank": 10.0}


def test_apply_postprocess_writes_cleaned_volumes(tmp_path):
    manifest = false_positive_manifest(tmp_path)
    out_dir = tmp_path / "cleaned"
    code = main(
        [
            "apply-postprocess",
            "--manifest",
            str(manifest),
            "--threshold-mm3",
            "10",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    cleaned = read_label_volume(out_dir / "c1.nii")
    assert np.count_nonzero(cleaned.data == 4) == 0
    assert np.count_nonzero(cleaned.data == 1) == 3  # relabelled, not erased


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
def test_apply_postprocess_rejects_bad_threshold(tmp_path, capsys, bad):
    manifest = false_positive_manifest(tmp_path)
    out_dir = tmp_path / "cleaned"
    argv = ["apply-postprocess", "--manifest", str(manifest), "--out-dir", str(out_dir)]
    code = main(argv + [f"--threshold-mm3={bad}"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "finite nonnegative" in json.loads(lines[0])["error"]["message"]
    assert not out_dir.exists()


def test_apply_postprocess_errors_name_case_and_prediction(tmp_path, capsys):
    good = write_case(tmp_path, "good", nested_labels())
    bad = tmp_path / "bad.nii"
    data = nested_labels()
    data[1, 1, 1] = 9
    write_volume(bad, VolumeHeader(data.shape, "uint8", Spacing()), data)
    rows = [["case1", good.name, good.name], ["case7", good.name, bad.name]]
    manifest = write_manifest(tmp_path / "m.csv", rows)
    argv = ["apply-postprocess", "--manifest", str(manifest), "--threshold-mm3", "10"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith(f"case 'case7' (prediction {bad}): {bad}: label value 9 at voxel (1, 1, 1)")


def write_apply_cases(tmp_path, count, bad=None):
    """A manifest of ``count`` cases c0, c1, ... whose seeded ``.nii.gz``
    predictions hold an ET cube of 1, 8 or 27 voxels; case ``bad``, when
    given, predicts the unknown label 9 at voxel (1, 1, 1)."""
    rng = np.random.default_rng(62)
    rows = []
    for i in range(count):
        data = nested_labels((10, 10, 10))
        data[data == 4] = 1
        side = int(rng.integers(1, 4))
        data[3 : 3 + side, 3 : 3 + side, 3 : 3 + side] = 4
        if i == bad:
            data[1, 1, 1] = 9
        path = tmp_path / f"p{i}.nii.gz"
        write_volume(path, VolumeHeader(data.shape, "uint8", Spacing()), data)
        rows.append([f"c{i}", path.name, path.name])
    return write_manifest(tmp_path / "m.csv", rows)


def apply_postprocess_args(manifest, out_dir):
    return ["apply-postprocess", "--manifest", str(manifest), "--threshold-mm3", "10", "--out-dir", str(out_dir)]


def test_apply_postprocess_threads_write_identical_bytes(tmp_path, monkeypatch):
    manifest = write_apply_cases(tmp_path, 7)
    written = {}
    for threads in (1, 2, 3):
        monkeypatch.setattr(voxeval.cli, "_default_jobs", lambda: threads)
        out_dir = tmp_path / f"out{threads}"
        assert main(apply_postprocess_args(manifest, out_dir)) == 0
        written[threads] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(written[1]) == [f"c{i}.nii.gz" for i in range(7)]
    assert written[2] == written[1] and written[3] == written[1]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_apply_postprocess_stops_at_the_first_bad_case_in_manifest_order(tmp_path, monkeypatch, capsys, threads):
    manifest = write_apply_cases(tmp_path, 12, bad=2)
    bad = tmp_path / "p2.nii.gz"
    real_read, started = voxeval.cli.read_label_volume, []

    def slow_bad_read(path, coding):
        started.append(path.name)
        if path == bad:
            time.sleep(0.2)  # so that later cases finish first on a pool
        return real_read(path, coding)

    monkeypatch.setattr(voxeval.cli, "read_label_volume", slow_bad_read)
    monkeypatch.setattr(voxeval.cli, "_default_jobs", lambda: threads)
    out_dir = tmp_path / "out"
    assert main(apply_postprocess_args(manifest, out_dir)) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith(f"case 'c2' (prediction {bad}): {bad}: label value 9 at voxel (1, 1, 1)")
    assert sorted(p.name for p in out_dir.iterdir()) == ["c0.nii.gz", "c1.nii.gz"]
    if threads == 1:
        assert started == ["p0.nii.gz", "p1.nii.gz", "p2.nii.gz"]
    else:  # two cases written and 2 x threads queued; later ones are never started
        assert len(started) <= 2 + 2 * threads


@pytest.mark.parametrize("threads", [2, 3])
def test_apply_postprocess_bounds_the_cases_in_flight(tmp_path, monkeypatch, threads):
    manifest = write_apply_cases(tmp_path, 12)
    real_read, real_write = voxeval.cli.read_label_volume, voxeval.cli.write_atomic
    started, written, in_flight = [], [], []

    def counted_read(path, coding):
        started.append(1)
        in_flight.append(len(started) - len(written))
        return real_read(path, coding)

    def slow_write(path, data):
        time.sleep(0.02)  # so that the queue fills while the main thread writes
        real_write(path, data)
        written.append(path.name)

    monkeypatch.setattr(voxeval.cli, "read_label_volume", counted_read)
    monkeypatch.setattr(voxeval.cli, "write_atomic", slow_write)
    monkeypatch.setattr(voxeval.cli, "_default_jobs", lambda: threads)
    assert main(apply_postprocess_args(manifest, tmp_path / "out")) == 0
    assert written == [f"c{i}.nii.gz" for i in range(12)]
    assert 1 < max(in_flight) <= 2 * threads


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("nan,1", "finite nonnegative"),
        ("0,inf", "finite nonnegative"),
        ("-1,2", "finite nonnegative"),
        ("1e400", "finite nonnegative"),
        ("", "produced no values"),
    ],
)
def test_optimize_postprocess_rejects_bad_candidates(tmp_path, capsys, bad, reason):
    manifest = false_positive_manifest(tmp_path)
    sweep = tmp_path / "sweep.csv"
    choice = tmp_path / "choice.json"
    code = main(
        [
            "optimize-postprocess",
            "--manifest",
            str(manifest),
            f"--candidates={bad}",
            "--out-sweep",
            str(sweep),
            "--out-choice",
            str(choice),
        ]
    )
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert reason in message and "case" not in message
    assert not sweep.exists() and not choice.exists()


@pytest.mark.parametrize("mismatch", ["shape", "spacing", "label"])
def test_optimize_postprocess_errors_name_case_and_both_files(tmp_path, capsys, mismatch):
    good = write_case(tmp_path, "good", nested_labels())
    ref = write_case(tmp_path, "ref", nested_labels())
    if mismatch == "shape":
        pred = write_case(tmp_path, "pred", nested_labels((5, 6, 6)))
    elif mismatch == "spacing":
        pred = write_case(tmp_path, "pred", nested_labels(), spacing=Spacing(2.0, 1.0, 1.0))
    else:
        data = nested_labels()
        data[data == 4] = 3
        pred = write_case(tmp_path, "pred", data, coding=LabelCoding(enhancing=3))
    rows = [["case1", good.name, good.name], ["case7", ref.name, pred.name]]
    manifest = write_manifest(tmp_path / "m.csv", rows)
    sweep = tmp_path / "sweep.csv"
    code = main(
        [
            "optimize-postprocess",
            "--manifest",
            str(manifest),
            "--out-sweep",
            str(sweep),
            "--out-choice",
            str(tmp_path / "choice.json"),
        ]
    )
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith(f"case 'case7' (reference {ref}, prediction {pred}): ")
    assert mismatch in message
    assert not sweep.exists()


# --------------------------------------------------------------------------
# ensemble


def write_prob(path, values):
    data = np.asarray(values, dtype=np.float32).reshape(1, 1, 2)
    write_volume(path, VolumeHeader(data.shape, "float32", Spacing()), data)
    return path


def test_ensemble_command_averages_per_configuration(tmp_path):
    zeros = write_prob(tmp_path / "zeros.nii", [0.0, 0.0])
    members = {
        "m1": write_prob(tmp_path / "m1.nii", [0.4, 1.0]),
        "m2": write_prob(tmp_path / "m2.nii", [0.8, 1.0]),
        "m3": write_prob(tmp_path / "m3.nii", [0.2, 1.0]),
    }
    manifest = write_manifest(
        tmp_path / "ens.csv",
        [
            ["case1", "a", members["m1"].name, zeros.name, zeros.name],
            ["case1", "a", members["m2"].name, zeros.name, zeros.name],
            ["case1", "b", members["m3"].name, zeros.name, zeros.name],
        ],
        columns=("case_id", "configuration", "wt_path", "tc_path", "et_path"),
    )
    out_dir = tmp_path / "labels"
    code = main(
        [
            "ensemble",
            "--manifest",
            str(manifest),
            "--out-dir",
            str(out_dir),
            "--threshold",
            "0.45",
            "--format",
            ".nii",
        ]
    )
    assert code == 0
    labels = read_label_volume(out_dir / "case1.nii")
    # voxel 0: configuration means 0.6 and 0.2 average to 0.4 < 0.45, while
    # the pooled member mean 0.467 would have crossed the threshold
    assert labels.data[0, 0, 0] == 0
    assert labels.data[0, 0, 1] == 2


def test_each_probability_map_is_range_checked_once(tmp_path, monkeypatch):
    checked = []
    for module in (voxeval.io, voxeval.volume):
        real = module._check_probabilities
        monkeypatch.setattr(
            module, "_check_probabilities", lambda arr, what, real=real: checked.append(what) or real(arr, what)
        )
    paths = {region: write_prob(tmp_path / f"{region}.nii", [0.2, 0.8]) for region in ("WT", "TC", "ET")}
    slabs = []
    for region in ("WT", "TC", "ET"):
        with voxeval.cli.ProbabilityMap(paths[region]) as prob_map:
            slabs.append(prob_map.slab(2, np.empty(8, np.uint8)))
    assert checked == [f"{paths[region]}: probability map" for region in ("WT", "TC", "ET")]
    assert slabs[1].dtype == np.float32 and np.array_equal(slabs[1], np.float32([[[0.2, 0.8]]]))
    write_prob(paths["TC"], [0.2, 1.5])
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(paths['TC']))}: probability map .*outside \[0, 1\]"):
        with voxeval.cli.ProbabilityMap(paths["TC"]) as prob_map:
            prob_map.slab(2, np.empty(8, np.uint8))


def test_ensemble_means_are_not_range_checked_again(tmp_path, monkeypatch):
    checked = []
    for module in (voxeval.io, voxeval.volume):
        real = module._check_probabilities
        monkeypatch.setattr(
            module, "_check_probabilities", lambda arr, what, real=real: checked.append(what) or real(arr, what)
        )
    columns = ("case_id", "configuration", "wt_path", "tc_path", "et_path")
    rows = [
        ["case1", "a", *(write_prob(tmp_path / f"m{k}{r}.nii", [0.1 * k, 0.9]).name for r in "WTE")]
        for k in range(3)
    ]
    manifest = write_manifest(tmp_path / "ens.csv", rows, columns=columns)
    args = ["ensemble", "--manifest", str(manifest), "--out-dir", str(tmp_path / "labels"), "--jobs", "1"]
    assert main(args) == 0
    # Three members of three maps, each checked once on read; their means are not checked again.
    assert len(checked) == 9 and all(what.endswith(": probability map") for what in checked)


def spy_failed_checks(monkeypatch):
    """The ``what`` of each call of the library's member check,
    ``voxeval.ensemble._check_like``, that raised."""
    failed, real = [], voxeval.ensemble._check_like

    def check(member, shape, spacing, what):
        try:
            real(member, shape, spacing, what)
        except ValidationError:
            failed.append(what)
            raise

    monkeypatch.setattr(voxeval.ensemble, "_check_like", check)
    return failed


def test_ensemble_errors_name_the_case(tmp_path, monkeypatch, capsys):
    probs = write_prob(tmp_path / "p.nii", [0.2, 0.8])
    wide = tmp_path / "wide.nii"
    write_volume(wide, VolumeHeader((1, 1, 3), "float32", Spacing()), np.zeros((1, 1, 3), np.float32))
    columns = ("case_id", "configuration", "wt_path", "tc_path", "et_path")
    rows = [["case1", "a", probs.name, probs.name, probs.name]] * 2 + [
        ["case7", "a", probs.name, probs.name, probs.name],
        ["case7", "b", wide.name, wide.name, wide.name],
    ]
    manifest = write_manifest(tmp_path / "ens.csv", rows, columns=columns)
    failed = spy_failed_checks(monkeypatch)
    code = main(["ensemble", "--manifest", str(manifest), "--out-dir", str(tmp_path / "labels")])
    assert code == 3 and failed == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message == (
        f"case 'case7': {wide}: shape (1, 1, 3) differs from (1, 1, 2) "
        f"of the case's first map {probs}"
    )


@pytest.mark.parametrize("value", ["5", "0", "1", "-0.5", "nan", "inf", "config"])
def test_ensemble_threshold_is_checked_before_any_read(tmp_path, monkeypatch, capsys, value):
    probs = write_prob(tmp_path / "p.nii", [0.2, 0.8])
    columns = ("case_id", "configuration", "wt_path", "tc_path", "et_path")
    manifest = write_manifest(tmp_path / "ens.csv", [["case1", "a", probs.name, probs.name, probs.name]], columns=columns)
    reads = []
    real_read = voxeval.cli.ProbabilityMap
    monkeypatch.setattr(voxeval.cli, "ProbabilityMap", lambda path: reads.append(path) or real_read(path))
    out_dir = tmp_path / "labels"
    args = ["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir)]
    if value == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"probability_threshold": 5}))
        bad, expected = ["--config", str(config)], f"config {config}: probability_threshold must be"
    else:
        bad, expected = ["--threshold", value], f"--threshold must lie strictly between 0 and 1, got {float(value)!r}"
    assert main(args + bad) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"].startswith(expected)
    assert reads == [] and not out_dir.exists()
    assert main(args + ["--threshold", "0.5"]) == 0
    assert len(reads) == 3


ENSEMBLE_COLUMNS = ("case_id", "configuration", "wt_path", "tc_path", "et_path")


def write_ensemble_cases(tmp_path, count, shape=(3, 4, 5), bad=None):
    """``count`` cases of seeded float32 maps, members 2 (configuration a)
    + 1 (b).  ``bad`` maps a case index to ``("a" or "b", path)``: the file
    for every map of its second member of a, or of its member of b."""
    rng = np.random.default_rng(61)
    rows = []
    for i in range(count):
        for configuration in ("a", "a", "b"):
            names = []
            for region in ("wt", "tc", "et"):
                path = tmp_path / f"c{i}_{configuration}{len(rows)}_{region}.nii.gz"
                data = (rng.integers(0, 257, shape) / 256).astype(np.float32)
                write_volume(path, VolumeHeader(shape, "float32", Spacing()), data)
                names.append(path.name)
            rows.append([f"c{i}", configuration, *names])
        if bad is not None and i in bad:
            configuration, path = bad[i]
            row = rows[-2] if configuration == "a" else rows[-1]
            row[2:] = [path.name] * 3
    return write_manifest(tmp_path / "ens.csv", rows, columns=ENSEMBLE_COLUMNS)


def test_ensemble_jobs_write_identical_bytes(tmp_path):
    manifest = write_ensemble_cases(tmp_path, 7)
    written = {}
    for jobs in ("1", "2", "3"):
        out_dir = tmp_path / f"labels{jobs}"
        assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == 0
        written[jobs] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(written["1"]) == [f"c{i}.nii.gz" for i in range(7)]
    assert written["2"] == written["1"] and written["3"] == written["1"]


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize(
    "mismatch, where, text",
    [
        ("shape", "b", "shape (3, 4, 6) differs from (3, 4, 5)"),
        ("spacing", "b", "spacing (1.0, 1.0, 2.0) differs from (1.0, 1.0, 1.0)"),
        ("shape", "a", "shape (3, 4, 6) differs from (3, 4, 5)"),
    ],
)
def test_ensemble_stops_at_the_first_bad_case_in_manifest_order(tmp_path, monkeypatch, capsys, jobs, mismatch, where, text):
    bad = tmp_path / "bad.nii.gz"
    shape, spacing = ((3, 4, 6), Spacing()) if mismatch == "shape" else ((3, 4, 5), Spacing(1, 1, 2))
    write_volume(bad, VolumeHeader(shape, "float32", spacing), np.zeros(shape, np.float32))
    manifest = write_ensemble_cases(tmp_path, 12, bad={2: (where, bad)})
    real_read, real_labels = voxeval.cli.ProbabilityMap, voxeval.cli._ensemble_labels
    started = []

    def slow_bad_read(path):
        if path == bad:
            time.sleep(0.2)  # so that later cases finish first on a pool
        return real_read(path)

    def counted_labels(case_id, *args):
        started.append(case_id)
        return real_labels(case_id, *args)

    monkeypatch.setattr(voxeval.cli, "ProbabilityMap", slow_bad_read)
    monkeypatch.setattr(voxeval.cli, "_ensemble_labels", counted_labels)
    failed = spy_failed_checks(monkeypatch)
    out_dir = tmp_path / "labels"
    assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", jobs]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    first = tmp_path / "c2_a6_wt.nii.gz"  # case c2's first map: rows 0-5 hold cases c0 and c1
    assert message == f"case 'c2': {bad}: {text} of the case's first map {first}"
    assert failed == []
    assert sorted(p.name for p in out_dir.iterdir()) == ["c0.nii.gz", "c1.nii.gz"]
    if jobs == "1":
        assert started == ["c0", "c1", "c2"]
    else:  # two cases written and 2 x jobs queued; later ones are never started
        assert len(started) <= 2 + 2 * int(jobs)


@pytest.mark.parametrize(
    "tc_shape, tc_spacing, text",
    [
        ((2, 2, 3), Spacing(), "shape (2, 2, 3) differs from (2, 2, 2)"),
        ((2, 2, 2), Spacing(1, 1, 2), "spacing (1.0, 1.0, 2.0) differs from (1.0, 1.0, 1.0)"),
    ],
)
def test_a_member_whose_maps_disagree_is_named_by_its_file(tmp_path, monkeypatch, capsys, tc_shape, tc_spacing, text):
    paths = {region: tmp_path / f"{region}.nii.gz" for region in ("wt", "tc", "et")}
    for region, path in paths.items():
        shape, spacing = (tc_shape, tc_spacing) if region == "tc" else ((2, 2, 2), Spacing())
        write_volume(path, VolumeHeader(shape, "float32", spacing), np.full(shape, 0.5, np.float32))
    manifest = write_manifest(
        tmp_path / "ens.csv", [["c1", "a", *(path.name for path in paths.values())]], columns=ENSEMBLE_COLUMNS
    )
    failed = spy_failed_checks(monkeypatch)
    out_dir = tmp_path / "labels"
    assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", "1"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert message == f"case 'c1': {paths['tc']}: {text} of the case's first map {paths['wt']}"
    assert not any(out_dir.iterdir()) and failed == []


def write_three_two_case(tmp_path, bad_wt=None):
    """One case of members 3 (configuration a) + 2 (b), each with its own
    2x2x2 maps; ``bad_wt``, when given, is the second member's WT file.
    Returns the manifest and each member's [WT, TC, ET] paths."""
    members = []
    for k in range(5):
        paths = [tmp_path / f"m{k}_{region}.nii" for region in ("wt", "tc", "et")]
        for path in paths:
            data = np.full((2, 2, 2), 0.1 * k, np.float32)
            write_volume(path, VolumeHeader(data.shape, "float32", Spacing()), data)
        members.append(paths)
    if bad_wt is not None:
        members[1][0] = bad_wt
    rows = [["c1", "aaabb"[k], *(path.name for path in paths)] for k, paths in enumerate(members)]
    return write_manifest(tmp_path / "ens.csv", rows, columns=ENSEMBLE_COLUMNS), members


def test_ensemble_steps_every_map_in_lockstep_one_slab_at_a_time(tmp_path, monkeypatch):
    manifest, members = write_three_two_case(tmp_path)
    monkeypatch.setattr(voxeval.io, "_SLAB_BYTES", 16)  # one 2x2 float32 plane
    real_slab, steps = voxeval.io.ProbabilityMap.slab, []

    def slab(self, planes, buf):
        steps.append((self.path, planes))
        return real_slab(self, planes, buf)

    monkeypatch.setattr(voxeval.io.ProbabilityMap, "slab", slab)
    args = ["ensemble", "--manifest", str(manifest), "--out-dir", str(tmp_path / "labels"), "--jobs", "1"]
    assert main(args) == 0
    # Each z-plane of all 15 maps before the next plane of any; within a
    # plane the WT map of every member in manifest order, then TC, then ET.
    assert steps == [(paths[r], 1) for _ in range(2) for r in range(3) for paths in members]


def test_ensemble_reads_no_map_after_one_that_disagrees(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.nii"
    write_volume(bad, VolumeHeader((2, 2, 3), "float32", Spacing()), np.zeros((2, 2, 3), np.float32))
    manifest, members = write_three_two_case(tmp_path, bad)
    real_read, reads = voxeval.cli.ProbabilityMap, []
    monkeypatch.setattr(voxeval.cli, "ProbabilityMap", lambda path: reads.append(path) or real_read(path))
    failed = spy_failed_checks(monkeypatch)
    args = ["ensemble", "--manifest", str(manifest), "--out-dir", str(tmp_path / "labels"), "--jobs", "1"]
    assert main(args) == 3
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    first = members[0][0]
    assert message == f"case 'c1': {bad}: shape (2, 2, 3) differs from (2, 2, 2) of the case's first map {first}"
    assert reads == [*members[0], bad] and failed == []


@pytest.mark.parametrize("jobs", [2, 3])
def test_ensemble_bounds_the_cases_in_flight(tmp_path, monkeypatch, jobs):
    manifest = write_ensemble_cases(tmp_path, 12)
    real_labels, real_write = voxeval.cli._ensemble_labels, voxeval.cli.write_atomic
    started, written, in_flight = [], [], []

    def counted_labels(*args):
        started.append(1)
        in_flight.append(len(started) - len(written))
        return real_labels(*args)

    def slow_write(path, data):
        time.sleep(0.02)  # so that the queue fills while the main thread writes
        real_write(path, data)
        written.append(path.name)

    monkeypatch.setattr(voxeval.cli, "_ensemble_labels", counted_labels)
    monkeypatch.setattr(voxeval.cli, "write_atomic", slow_write)
    out_dir = tmp_path / "labels"
    assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", str(jobs)]) == 0
    assert written == [f"c{i}.nii.gz" for i in range(12)]
    assert 1 < max(in_flight) <= 2 * jobs


@pytest.mark.parametrize("value", ["0", "-2"])
def test_ensemble_jobs_get_the_evaluate_check(tmp_path, monkeypatch, capsys, value):
    manifest = write_ensemble_cases(tmp_path, 1)
    reads = []
    real_read = voxeval.cli.ProbabilityMap
    monkeypatch.setattr(voxeval.cli, "ProbabilityMap", lambda path: reads.append(path) or real_read(path))
    out_dir = tmp_path / "labels"
    assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", value]) == 3
    assert main(["evaluate", "--manifest", str(perfect_manifest(tmp_path)), "--out-metrics", str(tmp_path / "m.csv"),
                 "--jobs", value]) == 3
    ensemble_line, evaluate_line = capsys.readouterr().err.splitlines()
    assert ensemble_line == evaluate_line
    assert json.loads(ensemble_line)["error"]["message"] == f"--jobs must be at least 1, got {value}"
    assert reads == [] and not out_dir.exists()


def ensemble_peak(tmp_path, shape):
    """The ``tracemalloc`` peak of ``ensemble --jobs 1`` on one case of
    ``shape``, members 3 + 2, of float32 ``.nii.gz`` maps."""
    ramp = np.indices(shape).sum(axis=0)  # maps that gzip compresses fast
    rows = []
    for i, configuration in enumerate("aaabb"):
        names = []
        for j, region in enumerate(("wt", "tc", "et")):
            path = tmp_path / f"{configuration}{i}_{region}.nii.gz"
            data = (ramp * (3 * i + j + 1) % 257 / 256).astype(np.float32)
            write_volume(path, VolumeHeader(shape, "float32", Spacing()), data)
            names.append(path.name)
        rows.append(["c0", configuration, *names])
    manifest = write_manifest(tmp_path / "ens.csv", rows, columns=ENSEMBLE_COLUMNS)
    out_dir = tmp_path / "labels"
    tracemalloc.start()
    try:
        assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--jobs", "1"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_ensemble_case_holds_one_read_buffer_and_two_sums(tmp_path):
    # 64^3 with members 3 + 2: one member's three float32 maps take 3 MB and
    # six float64 sums of the grid 12 MB, the whole-map route's 15.9 MB peak.
    # Slab by slab, one region at a time, the case holds the 0.25 MB uint8
    # label grid, one 256 KiB read buffer that all 15 maps share and two
    # float64 sums of one slab (1 MB).  With three read buffers and six sums
    # it peaked at 5.4 MB.
    peak = ensemble_peak(tmp_path, (64, 64, 64))
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_an_ensemble_case_peak_does_not_grow_with_its_depth(tmp_path):
    # 64x64x160: 2.5 times the grid of the 64^3 case, which the whole-map
    # route held at 38.4 MB; the slabs stay 16 planes deep, so the bound is
    # the 64^3 case's.
    peak = ensemble_peak(tmp_path, (64, 64, 160))
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --------------------------------------------------------------------------
# stability


def flip_metrics_files(tmp_path):
    paths = {}
    for algorithm, name in enumerate(("A", "B", "C")):
        per_case = {
            f"case{case}": {
                region: (FLIP_DICE[algorithm][case][r], FLIP_HD95[algorithm][case][r])
                for r, region in enumerate(("WT", "TC", "ET"))
            }
            for case in range(2)
        }
        paths[name] = write_metrics_csv(tmp_path / f"{name}.csv", per_case)
    return paths


def test_stability_reports_flips(tmp_path):
    paths = flip_metrics_files(tmp_path)
    out = tmp_path / "flips.csv"
    args = ["stability"] + [f"{n}={p}" for n, p in paths.items()] + ["--out", str(out)]
    assert main(args) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["removed", "algorithm_a", "algorithm_b", "full_relation", "jackknife_relation"]
    assert ["C", "A", "B", "better", "worse"] in rows[1:]


def test_stability_of_two_algorithms_exits_three_and_writes_nothing(tmp_path, capsys):
    paths = flip_metrics_files(tmp_path)
    out = tmp_path / "flips.csv"
    assert main(["stability", f"A={paths['A']}", f"B={paths['B']}", "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "validation"
    assert error["message"].startswith("jackknife stability needs at least 3 algorithms")
    assert not out.exists()


# --------------------------------------------------------------------------
# leaderboard store


def test_leaderboard_add_and_recompute(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    strong, weak = dominance_metrics(tmp_path)
    store = tmp_path / "store.json"
    assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(strong), "--algorithm", "A"]) == 0
    doc = json.loads(store.read_text())
    assert doc["ranking"]["ranking_score"] == {"A": 1.0}
    assert doc["submissions"][0]["timestamp"] == "2023-11-14T22:13:20Z"

    assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(weak), "--algorithm", "B"]) == 0
    doc = json.loads(store.read_text())
    assert doc["ranking"]["ranking_score"] == {"A": 0.5, "B": 1.0}

    before = store.read_bytes()
    assert main(["leaderboard", "recompute", "--store", str(store)]) == 0
    assert store.read_bytes() == before

    capsys.readouterr()
    for epoch in ("253402300800", "-62135596801", "soon"):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(weak), "--algorithm", "C"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "SOURCE_DATE_EPOCH" in json.loads(lines[0])["error"]["message"]
        assert store.read_bytes() == before


def test_leaderboard_add_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "123456")
    strong, _ = dominance_metrics(tmp_path)
    stores = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for store in stores:
        assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(strong), "--algorithm", "A"]) == 0
    assert stores[0].read_bytes() == stores[1].read_bytes()


def test_leaderboard_rejects_duplicate_algorithm(tmp_path, capsys):
    strong, _ = dominance_metrics(tmp_path)
    store = tmp_path / "store.json"
    main(["leaderboard", "add", "--store", str(store), "--metrics", str(strong), "--algorithm", "A"])
    before = store.read_bytes()
    assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(strong), "--algorithm", "A"]) == 3
    assert "already in store" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert store.read_bytes() == before


def test_leaderboard_rejects_case_set_mismatch(tmp_path, capsys):
    strong, _ = dominance_metrics(tmp_path)
    partial = write_metrics_csv(
        tmp_path / "partial.csv",
        {"c1": {r: (0.9, 1.0) for r in ("WT", "TC", "ET")}},
    )
    store = tmp_path / "store.json"
    main(["leaderboard", "add", "--store", str(store), "--metrics", str(strong), "--algorithm", "A"])
    before = store.read_bytes()
    assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(partial), "--algorithm", "B"]) == 3
    assert "case ids differ" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert store.read_bytes() == before


def test_leaderboard_add_requires_flags(tmp_path, capsys):
    assert main(["leaderboard", "add", "--store", str(tmp_path / "s.json")]) == 3
    assert "needs --metrics" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("action", ["add", "recompute"])
@pytest.mark.parametrize(
    "document",
    [
        {"submissions": "x", "ranking": None},
        {"submissions": [{"algorithm_id": "A", "timestamp": "t"}], "ranking": None},
        {
            "submissions": [
                {"algorithm_id": "A", "metrics": {"c1": {"WT": {"dice": "x", "hd95": 1.0}}}}
            ]
        },
    ],
    ids=["submissions-not-a-list", "submission-without-metrics", "dice-not-a-number"],
)
def test_leaderboard_malformed_store_is_format_error(tmp_path, capsys, action, document):
    strong, _ = dominance_metrics(tmp_path)
    store = tmp_path / "store.json"
    store.write_text(json.dumps(document))
    before = store.read_bytes()
    args = ["leaderboard", action, "--store", str(store)]
    if action == "add":
        args += ["--metrics", str(strong), "--algorithm", "B"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "format"
    assert str(store) in error["message"]
    assert store.read_bytes() == before


def store_submission(algorithm_id, regions=("WT", "TC", "ET"), dice=1.0, hd95=0.0):
    scores = {region: {"dice": dice, "hd95": hd95} for region in regions}
    return {"algorithm_id": algorithm_id, "metrics": {"c1": scores, "c2": scores}}


@pytest.mark.parametrize("action", ["add", "recompute"])
@pytest.mark.parametrize(
    "submissions, needle",
    [
        ([store_submission("A"), store_submission("A")], "submission 1: duplicate algorithm_id 'A'"),
        ([store_submission("A", ("WT", "TC", "XX"))], "submission 0 case c1: unknown region 'XX'"),
        ([store_submission("A", dice=5)], "submission 0 case c1: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 5.0, hd95 0.0"),
        ([store_submission("A", dice=True)], "submission 0 case c1: region 'WT' needs numeric dice and hd95"),
        ([store_submission("A", hd95=False)], "submission 0 case c1: region 'WT' needs numeric dice and hd95"),
        (
            [store_submission("A"), store_submission("B", hd95=float("nan"))],
            "submission 1 case c1: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 1.0, hd95 nan",
        ),
        ([store_submission("A", hd95=-2.5)], "submission 0 case c1: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 1.0, hd95 -2.5"),
        ([store_submission("A", dice=10**400)], "submission 0 case c1: int too large to convert to float"),
    ],
    ids=[
        "duplicate-algorithm-id",
        "unknown-region",
        "dice-above-1",
        "dice-true",
        "hd95-false",
        "hd95-nan",
        "hd95-negative",
        "dice-int-overflow",
    ],
)
def test_leaderboard_store_entry_errors_name_store_and_submission(
    tmp_path, capsys, action, submissions, needle
):
    strong, _ = dominance_metrics(tmp_path)
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"submissions": submissions, "ranking": None}))
    before = store.read_bytes()
    args = ["leaderboard", action, "--store", str(store)]
    if action == "add":
        args += ["--metrics", str(strong), "--algorithm", "B"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "format"
    assert f"leaderboard store {store}: {needle}" in error["message"]
    assert store.read_bytes() == before


# --------------------------------------------------------------------------
# CSV inputs


MANIFEST_HEADER = "case_id,reference_path,prediction_path\n"


@pytest.mark.parametrize("command", ["apply-postprocess", "ensemble"])
@pytest.mark.parametrize("case_id", ["../escaped", "sub/c1", "a\0b", "x" * 300])
def test_case_ids_that_cannot_name_an_output_file_are_rejected(tmp_path, monkeypatch, capsys, command, case_id):
    reads = []
    for name in ("read_label_volume", "ProbabilityMap"):
        real = getattr(voxeval.cli, name)
        monkeypatch.setattr(voxeval.cli, name, lambda *a, real=real: reads.append(a) or real(*a))
    out_dir = tmp_path / "work" / "out"
    if command == "apply-postprocess":
        good = write_case(tmp_path, "good", nested_labels())
        manifest = write_manifest(tmp_path / "m.csv", [["c0", good.name, good.name], [case_id, good.name, good.name]])
        args = ["apply-postprocess", "--threshold-mm3", "10"]
        what = "manifest"
    else:
        probs = write_prob(tmp_path / "p.nii", [0.2, 0.8])
        rows = [[c, "a", probs.name, probs.name, probs.name] for c in ("c0", case_id)]
        manifest = write_manifest(
            tmp_path / "m.csv", rows, columns=("case_id", "configuration", "wt_path", "tc_path", "et_path")
        )
        args = ["ensemble"]
        what = "ensemble manifest"
    assert main(args + ["--manifest", str(manifest), "--out-dir", str(out_dir)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    reason = "has a '/' or NUL"
    if len(case_id) == 300:
        reason = f"makes an output file name longer than the {os.pathconf(tmp_path, 'PC_NAME_MAX')}-byte limit"
    assert json.loads(lines[0])["error"]["message"] == f"{what} {manifest}: case_id {case_id!r} {reason}"
    assert reads == [] and not out_dir.parent.exists()


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_an_output_name_at_the_file_name_limit_is_written(tmp_path, suffix):
    probs = write_prob(tmp_path / "p.nii", [0.2, 0.8])
    case_id = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(suffix))
    manifest = write_manifest(
        tmp_path / "m.csv",
        [[case_id, "a", probs.name, probs.name, probs.name]],
        columns=("case_id", "configuration", "wt_path", "tc_path", "et_path"),
    )
    out_dir = tmp_path / "out"
    assert main(["ensemble", "--manifest", str(manifest), "--out-dir", str(out_dir), "--format", suffix]) == 0
    assert [p.name for p in out_dir.iterdir()] == [case_id + suffix]


@pytest.mark.parametrize(
    "command, text, code, needle",
    [
        ("evaluate", MANIFEST_HEADER + "c1,ref.nii,ref.nii\nc1,ref.nii,ref.nii\n", 3, " row 3: duplicate case_id 'c1'"),
        ("evaluate", MANIFEST_HEADER + " ,ref.nii,ref.nii\n", 3, " row 2: empty case_id"),
        ("evaluate", MANIFEST_HEADER + "c1,ref.nii\n", 3, " row 2: empty prediction_path"),
        ("evaluate", MANIFEST_HEADER + "c1,ref.nii,absent.nii\n", 3, " row 2: prediction_path"),
        ("evaluate", MANIFEST_HEADER, 3, ": no data rows"),
        ("evaluate", MANIFEST_HEADER + 'c1,ref.nii,"' + "x" * 200_000 + "\n", 4, "not a readable CSV file"),
        (
            "ensemble",
            "case_id,configuration,wt_path,tc_path,et_path\nc1, ,ref.nii,ref.nii,ref.nii\n",
            3,
            " row 2: empty configuration",
        ),
        ("rank", "case_id,region,dice,hd95\nc1,XX,1.0,0.0\n", 3, " row 2: unknown region 'XX'"),
        ("rank", "case_id,region,dice,hd95\nc1,WT,high,0.0\n", 3, " row 2: could not convert"),
        ("rank", "case_id,region,dice,hd95,special_case\nc1,WT,1.0,0.0,odd\n", 3, " row 2: 'odd'"),
        ("rank", "case_id,region,dice,hd95\nc1,WT,nan,0.0\n", 3, " row 2: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice nan, hd95 0.0"),
        ("rank", "case_id,region,dice,hd95\nc1,TC,1.5,0.0\n", 3, " row 2: TC needs dice in [0, 1] and a finite nonnegative hd95, got dice 1.5, hd95 0.0"),
        ("rank", "case_id,region,dice,hd95\nc1,ET,1.0,-1\n", 3, " row 2: ET needs dice in [0, 1] and a finite nonnegative hd95, got dice 1.0, hd95 -1.0"),
        ("rank", "case_id,region,dice,hd95\nc1,WT,1.0,inf\n", 3, " row 2: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 1.0, hd95 inf"),
        ("rank", "case_id,region,dice,hd95\nc\udcff1,WT,1.0,0.0\n", 4, "not a readable CSV file"),
        ("rank", "", 3, ": missing columns ['case_id', 'region', 'dice', 'hd95']"),
        ("rank", "\ufeff", 3, ": missing columns ['case_id', 'region', 'dice', 'hd95']"),
        ("rank", "\ncase_id,region,dice,hd95\nc1,WT,1.0,0.0\n", 3, ": missing columns ['case_id', 'region', 'dice', 'hd95']"),
        ("rank", "case_id,region,dice,hd95\n", 3, ": no data rows"),
        ("rank", "case_id,region,dice,hd95\n ,WT,1,0\n ,TC,1,0\n ,ET,1,0\n", 3, " row 2: empty case_id"),
        ("rank", "case_id,reg\udcffion,dice,hd95\nc1,WT,1.0,0.0\n", 4, ": not a readable CSV file ('utf-8' codec can't decode byte 0xff"),
    ],
    ids=[
        "manifest-duplicate-case",
        "manifest-empty-case",
        "manifest-short-row",
        "manifest-missing-file",
        "manifest-no-rows",
        "manifest-field-too-large",
        "ensemble-empty-configuration",
        "metrics-unknown-region",
        "metrics-text-dice",
        "metrics-unknown-special-case",
        "metrics-nan-dice",
        "metrics-dice-above-1",
        "metrics-negative-hd95",
        "metrics-infinite-hd95",
        "metrics-not-utf8",
        "metrics-empty-file",
        "metrics-bom-only",
        "metrics-blank-first-line",
        "metrics-header-only",
        "metrics-every-case-id-blank",
        "metrics-header-not-utf8",
    ],
)
def test_csv_input_errors_name_file_and_row(tmp_path, capsys, command, text, code, needle):
    write_case(tmp_path, "ref", nested_labels())
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    args = {
        "evaluate": ["evaluate", "--manifest", str(path), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"],
        "ensemble": ["ensemble", "--manifest", str(path), "--out-dir", str(tmp_path / "labels")],
        "rank": ["rank", f"A={path}", f"B={path}", "--out", str(tmp_path / "o.json")],
    }[command]
    assert main(args) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert str(path) in message
    assert needle in message


ENSEMBLE_HEADER = "case_id,configuration,wt_path,tc_path,et_path\n"


@pytest.mark.parametrize(
    "command, text, needle",
    [
        ("evaluate", MANIFEST_HEADER + "\nc1,ref.nii,ref.nii\n\nc2,ref.nii,absent.nii\n", " row 5: prediction_path"),
        ("ensemble", ENSEMBLE_HEADER + "\nc1,a,ref.nii,ref.nii,ref.nii\n\nc2, ,ref.nii,ref.nii,ref.nii\n", " row 5: empty configuration"),
        ("rank", "case_id,region,dice,hd95\n\nc1,WT,1.0,0.0\nc1,TC,1.0,0.0\nc1,ET,high,0.0\n", " row 5: could not convert"),
        ("rank", 'case_id,region,dice,hd95\n"c\n1",WT,1.0,0.0\n\nc1,XX,1.0,0.0\n', " row 5: unknown region 'XX'"),
    ],
    ids=["manifest", "ensemble-manifest", "metrics", "metrics-multiline-field"],
)
def test_row_numbers_count_blank_lines(tmp_path, capsys, command, text, needle):
    test_csv_input_errors_name_file_and_row(tmp_path, capsys, command, text, 3, needle)


@pytest.mark.parametrize("command", ["evaluate", "ensemble", "rank"])
def test_csv_inputs_may_start_with_a_byte_order_mark(tmp_path, command):
    ref = write_case(tmp_path, "ref", nested_labels())
    probs = write_prob(tmp_path / "p.nii", [0.2, 0.8])
    path = tmp_path / "bom.csv"
    text = {
        "evaluate": MANIFEST_HEADER + f"c1,{ref.name},{ref.name}\n",
        "ensemble": ENSEMBLE_HEADER + f"c1,a,{probs.name},{probs.name},{probs.name}\n",
        "rank": "case_id,region,dice,hd95\n" + "".join(f"c1,{r},1.0,0.0\n" for r in ("WT", "TC", "ET")),
    }[command]
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    plain = tmp_path / "plain.csv"
    plain.write_text(text)
    args = {
        "evaluate": ["evaluate", "--manifest", str(path), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"],
        "ensemble": ["ensemble", "--manifest", str(path), "--out-dir", str(tmp_path / "labels")],
        "rank": ["rank", f"A={path}", f"B={plain}", "--out", str(tmp_path / "o.json")],
    }[command]
    assert main(args) == 0


def structural_faults(tmp_path):
    good = "".join(f"c{j},{r},1.0,0.0,none\n" for j in (1, 2) for r in ("WT", "TC", "ET"))
    files = {
        "good": good,
        "repeat": good.replace("c2,WT", "c1,TC", 1),
        "missing": good.replace("c2,ET,1.0,0.0,none\n", ""),
        "fewer-cases": good.replace("c2,", "c1,").replace("c1,", "c3,", 3),
    }
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("case_id,region,dice,hd95,special_case\n" + body)
    return paths


@pytest.mark.parametrize("command", ["rank", "stability"])
@pytest.mark.parametrize("fault", ["repeat", "missing", "case-set"])
def test_structural_metrics_faults_name_the_file(tmp_path, capsys, command, fault):
    paths = structural_faults(tmp_path)
    expected = {
        "repeat": f"metrics file {paths['repeat']} row 5: duplicate record for case 'c1', region TC",
        "missing": f"metrics file {paths['missing']} case 'c2': expected one record per region "
        "('WT', 'TC', 'ET'), got ['TC', 'WT']",
        "case-set": f"metrics file {paths['fewer-cases']} (algorithm 'B') does not cover the same cases "
        f"as metrics file {paths['good']} (algorithm 'A'); differing case ids: ['c2', 'c3']",
    }[fault]
    bad = paths["fewer-cases" if fault == "case-set" else fault]
    args = [command, f"A={paths['good']}", f"B={bad}", "--out", str(tmp_path / "out")]
    assert main(args) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == expected
    assert not (tmp_path / "out").exists()


def test_a_bad_row_is_named_before_an_earlier_repeat(tmp_path, capsys):
    text = "case_id,region,dice,hd95\nc1,WT,1,0\nc1,WT,1,0\nc1,TC,2,0\n"
    test_csv_input_errors_name_file_and_row(tmp_path, capsys, "rank", text, 3, " row 4: TC needs dice in [0, 1]")


@pytest.mark.parametrize("fault", ["repeat", "missing"])
def test_leaderboard_add_names_the_file_of_a_structural_fault(tmp_path, capsys, fault):
    paths = structural_faults(tmp_path)
    store = tmp_path / "store.json"
    assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(paths["good"]), "--algorithm", "A"]) == 0
    before = store.read_bytes()
    assert main(["leaderboard", "add", "--store", str(store), "--metrics", str(paths[fault]), "--algorithm", "B"]) == 3
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith(f"metrics file {paths[fault]} ")
    assert store.read_bytes() == before


# --------------------------------------------------------------------------
# configuration


def custom_coding_setup(tmp_path):
    data = nested_labels().astype(np.uint8)
    data[data == 4] = 3  # enhancing stored under a different code
    ref = write_case(tmp_path, "ref", data, coding=LabelCoding(enhancing=3))
    manifest = write_manifest(tmp_path / "m.csv", [["c1", ref.name, ref.name]])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"label_coding": {"enhancing": 3}}))
    return manifest, config


def test_config_file_changes_label_coding(tmp_path):
    manifest, config = custom_coding_setup(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"]) == 3
    assert (
        main(
            [
                "evaluate",
                "--config",
                str(config),
                "--manifest",
                str(manifest),
                "--out-metrics",
                str(out),
                "--jobs",
                "1",
            ]
        )
        == 0
    )


def test_config_env_var_is_honoured(tmp_path, monkeypatch):
    manifest, config = custom_coding_setup(tmp_path)
    monkeypatch.setenv(CONFIG_ENV, str(config))
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"]) == 0


def test_config_flag_overrides_env_var(tmp_path, monkeypatch):
    manifest, config = custom_coding_setup(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"mystery": 1}))
    monkeypatch.setenv(CONFIG_ENV, str(broken))
    out = tmp_path / "metrics.csv"
    args = ["evaluate", "--config", str(config), "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"]
    assert main(args) == 0


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(Exception, match="unknown keys"):
        load_config(str(bad))
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"label_coding": {"tumour": 9}}))
    with pytest.raises(Exception, match="unknown label_coding keys"):
        load_config(str(nested))


def test_config_partial_policy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"special_case_policy": {"worst_hd95": 100.0}}))
    config = load_config(str(cfg))
    assert config.policy.worst_hd95 == 100.0
    assert config.policy.worst_dice == 0.0


def test_config_may_start_with_a_utf8_bom(tmp_path):
    # As a manifest or a metrics file may: the byte-order mark is dropped.
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"label_coding": {"enhancing": 3}}).encode())
    assert load_config(str(cfg)).coding.enhancing == 3


def test_config_is_read_as_utf8_whatever_the_locale(tmp_path):
    # Under the C locale without UTF-8 mode, a locale-decoded read fails on
    # the first non-ASCII byte; read as UTF-8, the unknown key is named.
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes('{"é": 1}'.encode())
    out = tmp_path / "metrics.csv"
    done = fresh_python(
        "-m", "voxeval.cli", "evaluate", "--config", str(cfg),
        "--manifest", str(perfect_manifest(tmp_path)), "--out-metrics", str(out),
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
    )
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert "unknown keys ['é']" in json.loads(lines[0])["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "document",
    [
        {"probability_threshold": "abc"},
        {"probability_threshold": None},
        {"label_coding": 5},
        {"special_case_policy": 0.5},
        {"special_case_policy": {"worst_hd95": float("nan"), "worst_dice": 5}},
        {"special_case_policy": {"worst_hd95": float("inf")}},
        {"special_case_policy": {"worst_hd95": "far"}},
        {"special_case_policy": {"perfect_hd95": -1.0}},
        {"special_case_policy": {"worst_dice": 5}},
        {"special_case_policy": {"perfect_dice": -0.5}},
        {"probability_threshold": 0},
        {"probability_threshold": 1},
        {"probability_threshold": 5},
        {"probability_threshold": -0.1},
        {"label_coding": {"enhancing": 2147483648}},
        {"probability_threshold": "0.5"},
        {"special_case_policy": {"worst_dice": True}},
        {"special_case_policy": {"worst_hd95": "373"}},
    ],
    ids=[
        "threshold-text",
        "threshold-null",
        "coding-not-object",
        "policy-not-object",
        "policy-nan-hd95-and-dice-5",
        "policy-infinite-hd95",
        "policy-text-hd95",
        "policy-negative-hd95",
        "policy-dice-above-1",
        "policy-negative-dice",
        "threshold-zero",
        "threshold-one",
        "threshold-five",
        "threshold-negative",
        "coding-above-int32",
        "threshold-number-text",
        "policy-dice-true",
        "policy-number-text-hd95",
    ],
)
def test_config_bad_values_exit_three(tmp_path, capsys, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "metrics.csv"
    manifest = perfect_manifest(tmp_path)
    args = ["evaluate", "--config", str(config), "--manifest", str(manifest), "--out-metrics", str(out)]
    assert main(args + ["--jobs", "1"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["category"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "stability", "leaderboard"])
def test_config_flag_is_rejected_where_no_config_is_read(tmp_path, command):
    paths = flip_metrics_files(tmp_path)
    named = [f"{name}={path}" for name, path in paths.items()]
    args = {
        "rank": ["rank", *named, "--out", str(tmp_path / "rank.json")],
        "stability": ["stability", *named, "--out", str(tmp_path / "flips.csv")],
        "leaderboard": [
            "leaderboard", "add", "--store", str(tmp_path / "store.json"),
            "--metrics", str(paths["A"]), "--algorithm", "A",
        ],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--config", str(tmp_path / "does_not_exist.json")])
    assert exc.value.code == 2
    assert main(args) == 0


def test_config_invalid_json_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    manifest = perfect_manifest(tmp_path)
    code = main(
        ["evaluate", "--config", str(bad), "--manifest", str(manifest), "--out-metrics", str(tmp_path / "o.csv")]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"]["category"] == "format"


@pytest.mark.parametrize("source", ["config", "store"])
def test_non_utf8_json_input_is_format_error(tmp_path, capsys, source):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"submissions": [], "note": "\xff"}')
    if source == "config":
        args = ["evaluate", "--config", str(bad), "--manifest", str(perfect_manifest(tmp_path)),
                "--out-metrics", str(tmp_path / "o.csv")]
    else:
        args = ["leaderboard", "recompute", "--store", str(bad)]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "format"
    assert str(bad) in error["message"]


@pytest.mark.parametrize("source", ["config", "store-add", "store-recompute"])
def test_deeply_nested_json_input_is_format_error(tmp_path, capsys, source):
    deep = "[" * 200_000 + "]" * 200_000
    bad = tmp_path / "bad.json"
    if source == "config":
        bad.write_text('{"label_coding": ' + deep + "}")
        args = ["evaluate", "--config", str(bad), "--manifest", str(perfect_manifest(tmp_path)),
                "--out-metrics", str(tmp_path / "o.csv")]
        prefix = f"config {bad}: invalid JSON ("
    else:
        bad.write_text(deep)
        args = ["leaderboard", source.partition("-")[2], "--store", str(bad)]
        if source == "store-add":
            args += ["--metrics", str(dominance_metrics(tmp_path)[0]), "--algorithm", "B"]
        prefix = f"leaderboard store {bad}: invalid JSON ("
    before = bad.read_bytes()
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "format"
    assert error["message"].startswith(prefix)
    assert bad.read_bytes() == before
    assert not (tmp_path / "o.csv").exists()


# --------------------------------------------------------------------------
# error reporting and exit codes


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_format_error_exit_code(tmp_path, capsys):
    ref = write_case(tmp_path, "ref", nested_labels())
    garbage = tmp_path / "garbage.nii"
    garbage.write_bytes(b"Z" * 360)
    manifest = write_manifest(tmp_path / "m.csv", [["c1", ref.name, garbage.name]])
    code = main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(tmp_path / "o.csv"), "--jobs", "1"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "format"


def test_io_error_exit_code(tmp_path, capsys):
    code = main(
        ["evaluate", "--manifest", str(tmp_path / "absent.csv"), "--out-metrics", str(tmp_path / "o.csv")]
    )
    assert code == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["category"] == "io"


def fresh_python(*args, **env_vars):
    """Run ``python *args`` in a fresh interpreter that imports this checkout."""
    src = str(Path(voxeval.cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_cli_import_does_not_load_scipy():
    # Importing scipy costs every subcommand 0.3-0.5 s and about 30 MB at
    # start-up; scipy.stats alone would add about half a second and 40 MB.
    done = fresh_python(
        "-c", "import sys, voxeval.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_does_not_load_hashlib():
    # hashlib loads OpenSSL, about 3.5 MB of RSS; the store table is keyed by zlib's CRC-32.
    done = fresh_python(
        "-c", "import sys, voxeval.cli; print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_far_future_source_date_epoch_fails_in_one_line(tmp_path):
    # An epoch past year 9999 must reach main's own check: no module the CLI
    # imports may fail on it first (numpy.f2py, which scipy imported, did).
    strong, _ = dominance_metrics(tmp_path)
    store = tmp_path / "store.json"
    done = fresh_python(
        "-m", "voxeval.cli", "leaderboard", "add", "--store", str(store),
        "--metrics", str(strong), "--algorithm", "A",
        SOURCE_DATE_EPOCH="100000000000000000",
    )
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert "SOURCE_DATE_EPOCH" in json.loads(lines[0])["error"]["message"]
    assert not store.exists()


def test_float_label_outside_int32_is_named_in_one_line(tmp_path):
    # Casting 3e9 to int32 is undefined (-2147483648 here, with RuntimeWarning
    # lines on stderr), so the value must be checked before the cast.
    data = nested_labels().astype(np.float32)
    data[3, 4, 5] = 3e9
    ref = write_case(tmp_path, "ref", nested_labels())
    pred = tmp_path / "pred.nii"
    write_volume(pred, VolumeHeader(data.shape, "float32", Spacing()), data)
    manifest = write_manifest(tmp_path / "m.csv", [["case1", ref.name, pred.name]])
    out = tmp_path / "metrics.csv"
    done = fresh_python(
        "-m", "voxeval.cli", "evaluate", "--manifest", str(manifest), "--out-metrics", str(out)
    )
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    message = json.loads(lines[0])["error"]["message"]
    assert "label value 3000000000 at voxel (3, 4, 5)" in message and str(pred) in message
    assert not out.exists()


def uint8_coding_300_setup(tmp_path):
    """uint8 volumes under a coding whose enhancing code uint8 cannot hold."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"label_coding": {"enhancing": 300}}))
    data = nested_labels()
    data[data == 4] = 1
    paths = {}
    for name, value in (("ref", 1), ("good", 2), ("bad", 4)):
        case = data.copy()
        case[3, 3, 3] = value
        paths[name] = tmp_path / f"{name}.nii"
        write_volume(paths[name], VolumeHeader(case.shape, "uint8", Spacing()), case)
    return config, paths


@pytest.mark.parametrize("command", ["evaluate", "optimize-postprocess", "apply-postprocess"])
def test_codes_beyond_the_volume_dtype_never_match(tmp_path, command):
    config, _ = uint8_coding_300_setup(tmp_path)
    manifest = write_manifest(tmp_path / "m.csv", [["c1", "ref.nii", "good.nii"]])
    args = {
        "evaluate": ["--out-metrics", str(tmp_path / "metrics.csv")],
        "optimize-postprocess": [
            "--candidates", "0,10",
            "--out-sweep", str(tmp_path / "sweep.csv"),
            "--out-choice", str(tmp_path / "choice.json"),
        ],
        "apply-postprocess": ["--threshold-mm3", "10", "--out-dir", str(tmp_path / "out")],
    }[command]
    assert main([command, "--config", str(config), "--manifest", str(manifest), *args]) == 0


def test_evaluate_label_outside_coding_beyond_dtype_exits_three(tmp_path, capsys):
    config, paths = uint8_coding_300_setup(tmp_path)
    manifest = write_manifest(tmp_path / "m.csv", [["case9", "ref.nii", "bad.nii"]])
    out = tmp_path / "metrics.csv"
    args = ["--config", str(config), "--manifest", str(manifest), "--out-metrics", str(out)]
    assert main(["evaluate", *args, "--jobs", "1"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert "'case9'" in message
    assert str(paths["ref"]) in message and str(paths["bad"]) in message
    assert "label value 4 at voxel (3, 3, 3)" in message
    assert not out.exists()


def test_apply_postprocess_writes_a_necrosis_code_the_input_dtype_cannot_hold(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"label_coding": {"necrosis": 300}}))
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[1:5, 1:5, 1:5] = 2
    data[2, 2, 2:4] = 4
    for name in ("ref", "pred"):
        write_volume(tmp_path / f"{name}.nii", VolumeHeader(data.shape, "uint8", Spacing()), data)
    manifest = write_manifest(tmp_path / "m.csv", [["c1", "ref.nii", "pred.nii"]])
    out_dir = tmp_path / "out"
    argv = ["apply-postprocess", "--config", str(config), "--manifest", str(manifest),
            "--threshold-mm3", "10", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    cleaned = read_label_volume(out_dir / "c1.nii", LabelCoding(necrosis=300))
    expected = data.astype(np.int32)
    expected[data == 4] = 300
    assert np.array_equal(cleaned.data, expected)


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch, capsys):
    import argparse

    built = []
    real = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    voxeval.cli._build_parser.cache_clear()
    store = tmp_path / "store.json"
    assert main(["leaderboard", "recompute", "--store", str(store)]) == 5
    assert main(["leaderboard", "recompute", "--store", str(tmp_path / "other.json")]) == 5
    assert built == ["voxeval"]
    # The second call parsed its own arguments, not the first call's.
    first, second = capsys.readouterr().err.splitlines()
    assert str(store) in first and "other.json" in second and str(store) not in second
