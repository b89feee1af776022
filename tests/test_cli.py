import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voxeval import (
    LabelCoding,
    LabelVolume,
    Spacing,
    VolumeHeader,
    read_label_volume,
    write_label_volume,
    write_volume,
)
import voxeval.cli
from voxeval.cli import (
    CONFIG_ENV,
    Manifest,
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


def test_parse_manifest_probability_columns(tmp_path):
    ref = write_case(tmp_path, "ref", nested_labels())
    prob = tmp_path / "wt.nii"
    write_volume(prob, VolumeHeader((2, 2, 2), "float32", Spacing()), np.zeros((2, 2, 2), np.float32))
    path = write_manifest(
        tmp_path / "m.csv",
        [["c1", ref.name, ref.name, prob.name]],
        columns=("case_id", "reference_path", "prediction_path", "wt_prob_path"),
    )
    manifest = parse_manifest(path)
    assert manifest.rows[0].probability_paths == {"WT": prob}


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


@pytest.mark.parametrize("mismatch", ["shape", "spacing", "label"])
def test_evaluate_errors_name_case_and_both_files(tmp_path, capsys, mismatch):
    ref = write_case(tmp_path, "ref", nested_labels())
    if mismatch == "shape":
        pred = write_case(tmp_path, "pred", nested_labels((5, 6, 6)))
    elif mismatch == "spacing":
        pred = write_case(tmp_path, "pred", nested_labels(), spacing=Spacing(2.0, 1.0, 1.0))
    else:
        data = nested_labels()
        data[data == 4] = 3
        pred = write_case(tmp_path, "pred", data, coding=LabelCoding(enhancing=3))
    manifest = write_manifest(tmp_path / "m.csv", [["case7", ref.name, pred.name]])
    out = tmp_path / "metrics.csv"
    code = main(["evaluate", "--manifest", str(manifest), "--out-metrics", str(out), "--jobs", "1"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert "'case7'" in message
    assert str(ref) in message and str(pred) in message
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


# --------------------------------------------------------------------------
# leaderboard store


def test_leaderboard_add_and_recompute(tmp_path, monkeypatch):
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


def store_submission(algorithm_id, regions=("WT", "TC", "ET")):
    scores = {region: {"dice": 1.0, "hd95": 0.0} for region in regions}
    return {"algorithm_id": algorithm_id, "metrics": {"c1": scores, "c2": scores}}


@pytest.mark.parametrize("action", ["add", "recompute"])
@pytest.mark.parametrize(
    "submissions, needle",
    [
        ([store_submission("A"), store_submission("A")], "submission 1: duplicate algorithm_id 'A'"),
        ([store_submission("A", ("WT", "TC", "XX"))], "submission 0 case c1: unknown region 'XX'"),
    ],
    ids=["duplicate-algorithm-id", "unknown-region"],
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
        ("rank", "case_id,region,dice,hd95\nc\udcff1,WT,1.0,0.0\n", 4, "not a readable CSV file"),
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
        "metrics-not-utf8",
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


def test_cli_import_does_not_load_scipy_stats():
    # Importing scipy.stats costs about half a second and 40 MB, which would
    # show in every subcommand's start-up time and memory.
    src = str(Path(voxeval.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, voxeval.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
