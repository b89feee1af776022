"""Leaderboard store: spliced adds against the full encoding, the fallbacks,
the tabulated load against the record-by-record route, adds through the
store table against the full route, store messages, and concurrent adds
under the store lock."""

import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import zlib
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxeval.cli
from voxeval.cli import (
    _load_store,
    _rank_result_document,
    _tabulate,
    leaderboard_add,
    main,
    read_metrics_csv,
)
from voxeval.errors import FormatError, ValidationError
from voxeval.metrics import MetricRecord, SpecialCase
from voxeval.ranking import MetricTable, brats_ranking

REGIONS = ("WT", "TC", "ET")
SPECIALS = [case.value for case in SpecialCase]
#: Few distinct values, so ties are common; "1", "0" and "2" are integer-valued.
DICE_TEXT = ["0", "0.25", "0.5", "0.8125", "1", "1.0"]
HD95_TEXT = ["0", "1.5", "2", "373.13", "10.0"]
#: Non-ASCII ids, and ids whose JSON encoding escapes a quote, a backslash
#: or a newline.
IDS = ["nnU-Net", "zoë", "模型", "a b", 'q"uote', "back\\slash", "line\nbreak", "B", "b"]
EPOCH = 1_700_000_000


def write_metrics(path, rng, cases):
    """A metrics.csv over ``cases`` in shuffled case and region order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "region", "dice", "hd95", "special_case"])
        for case in rng.permutation(cases):
            for region in rng.permutation(REGIONS):
                writer.writerow([
                    case,
                    region,
                    DICE_TEXT[rng.integers(len(DICE_TEXT))],
                    HD95_TEXT[rng.integers(len(HD95_TEXT))],
                    SPECIALS[rng.integers(len(SPECIALS))],
                ])
    return path


def records_route(submissions) -> MetricTable:
    """The table by the record-by-record route: one MetricRecord per entry,
    then ``MetricTable.from_records``."""
    return MetricTable.from_records({
        s["algorithm_id"]: {
            case: [
                MetricRecord(
                    region,
                    float(entry["dice"]),
                    float(entry["hd95"]),
                    SpecialCase(entry.get("special_case", "none")),
                )
                for region, entry in regions.items()
            ]
            for case, regions in s["metrics"].items()
        }
        for s in submissions
    })


def expected_after_add(before: dict, algorithm_id: str, metrics_path) -> dict:
    """``before`` with the submission appended and every submission ranked."""
    timestamp = datetime.fromtimestamp(EPOCH, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    per_case = read_metrics_csv(metrics_path)
    doc = copy.deepcopy(before)
    doc["submissions"].append({
        "algorithm_id": algorithm_id,
        "timestamp": timestamp,
        "metrics": {
            case: {
                r.region: {"dice": r.dice, "hd95": r.hd95, "special_case": r.special_case.value}
                for r in records
            }
            for case, records in sorted(per_case.items())
        },
    })
    doc["ranking"] = _rank_result_document(brats_ranking(records_route(doc["submissions"])))
    return doc


def canonical(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture
def full_encodes(monkeypatch):
    """Paths the CLI wrote by encoding a whole document."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    written = []
    real = voxeval.cli._write_json

    def spy(path, document):
        written.append(Path(path))
        return real(path, document)

    monkeypatch.setattr(voxeval.cli, "_write_json", spy)
    return written


# --------------------------------------------------------------------------
# byte oracle


@pytest.mark.parametrize("seed", range(5))
def test_every_add_writes_the_full_encoding(tmp_path, full_encodes, seed):
    rng = np.random.default_rng(seed)
    cases = [f"case{j:02d}" for j in rng.permutation(int(rng.integers(1, 9)))]
    store = tmp_path / "store.json"
    for k, algorithm_id in enumerate(IDS[: 3 + seed]):
        metrics = write_metrics(tmp_path / f"m{k}.csv", rng, cases)
        before = json.loads(store.read_text()) if k else {"submissions": [], "ranking": None}
        leaderboard_add(store, metrics, algorithm_id)
        assert store.read_text() == canonical(expected_after_add(before, algorithm_id, metrics))
    # Only the first add encodes a whole document; every later one splices.
    assert full_encodes == [store]


def reformat(text: str, how: str) -> str:
    doc = json.loads(text)
    if how == "compact":
        return json.dumps(doc)
    if how == "indent-4":
        return json.dumps(doc, indent=4) + "\n"
    if how == "no-final-newline":
        return text[:-1]
    if how == "reformatted-submission":
        return text.replace(voxeval.cli._encode(doc["submissions"][0], 2), json.dumps(doc["submissions"][0]))
    if how == "extra-key":
        doc["note"] = "réviewed"
    elif how == "reversed-keys":
        doc = {"ranking": doc["ranking"], "submissions": doc["submissions"]}
    elif how == "list-before-ranking":
        doc = {"submissions": doc["submissions"], "notes": ["réviewed"], "ranking": doc["ranking"]}
    elif how == "ranking-null":
        doc["ranking"] = None
    elif how == "no-submissions":
        doc = {"submissions": [], "ranking": None}
    elif how == "integer-scores":
        for submission in doc["submissions"]:
            for regions in submission["metrics"].values():
                for entry in regions.values():
                    entry.update({k: int(v) for k, v in entry.items() if v in (0, 1, 2)})
    return canonical(doc)


@pytest.mark.parametrize(
    "how, spliced",
    [
        ("compact", False),
        ("indent-4", False),
        ("no-final-newline", False),
        ("extra-key", False),
        ("reversed-keys", False),
        ("no-submissions", False),
        ("ranking-null", False),
        ("integer-scores", False),
        ("reformatted-submission", False),
        ("untouched", True),
    ],
)
def test_add_falls_back_to_the_full_encoding(tmp_path, full_encodes, how, spliced):
    rng = np.random.default_rng(11)
    cases = ["c2", "c10", "c1"]
    store = tmp_path / "store.json"
    for k, algorithm_id in enumerate(IDS[:3]):
        leaderboard_add(store, write_metrics(tmp_path / f"m{k}.csv", rng, cases), algorithm_id)
    store.write_text(reformat(store.read_text(), how))
    before = json.loads(store.read_text())
    metrics = write_metrics(tmp_path / "new.csv", rng, cases)
    full_encodes.clear()
    leaderboard_add(store, metrics, "new")
    assert store.read_text() == canonical(expected_after_add(before, "new", metrics))
    assert full_encodes == ([] if spliced else [store])
    if how == "integer-scores":
        assert '"dice": 1,' in store.read_text()


# --------------------------------------------------------------------------
# tabulated load


def random_store(rng) -> dict:
    """A valid store: cases and regions in a different order in every
    submission, JSON ints and floats (with -0.0 and ints past 2**53), and
    special cases given or left to their default."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 11))
    cases = [f"c{j}" for j in range(m)]
    dice_values = [0, 1, 0.5, 0.25, -0.0, 1.0]
    hd95_values = [0, 2, 1.5, 373.13, 10**20, 2**63 + 2**11 + 1]
    submissions = []
    for i in range(n):
        metrics = {}
        for case in rng.permutation(cases):
            regions = {}
            for region in rng.permutation(REGIONS):
                entry = {
                    "dice": dice_values[rng.integers(len(dice_values))],
                    "hd95": hd95_values[rng.integers(len(hd95_values))],
                }
                if rng.random() < 0.7:
                    entry["special_case"] = SPECIALS[rng.integers(len(SPECIALS))]
                regions[str(region)] = entry
            metrics[str(case)] = regions
        submissions.append({"algorithm_id": IDS[i], "timestamp": "t", "metrics": metrics})
    return {"submissions": submissions, "ranking": None}


@pytest.mark.parametrize("seed", range(10))
def test_tabulated_load_matches_the_record_route(tmp_path, seed):
    doc = random_store(np.random.default_rng(seed))
    store = tmp_path / "store.json"
    store.write_text(canonical(doc))
    loaded, table = _load_store(store, store.read_bytes())
    want = records_route(doc["submissions"])
    assert loaded == doc
    assert table.algorithms == want.algorithms and table.cases == want.cases
    assert np.array_equal(table.dice, want.dice) and np.array_equal(table.hd95, want.hd95)
    assert np.array_equal(np.signbit(table.dice), np.signbit(want.dice))


def entry(doc, n=0, case="c0", region="WT"):
    return doc["submissions"][n]["metrics"][case][region]


#: Edits that make a valid store invalid; each must be rejected by the loader
#: and by both CLI actions, naming the store and the submission.
BREAKS = {
    "submission-not-object": lambda d: d["submissions"].__setitem__(1, ["x"]),
    "id-not-string": lambda d: d["submissions"][0].__setitem__("algorithm_id", 7),
    "metrics-missing": lambda d: d["submissions"][2].pop("metrics"),
    "regions-not-object": lambda d: d["submissions"][0]["metrics"].__setitem__("c1", [1]),
    "duplicate-id": lambda d: d["submissions"][2].__setitem__("algorithm_id", IDS[0]),
    "entry-not-object": lambda d: d["submissions"][1]["metrics"]["c2"].__setitem__("ET", 0.5),
    "dice-missing": lambda d: entry(d, 1).pop("dice"),
    "dice-string": lambda d: entry(d).__setitem__("dice", "0.5"),
    "dice-true": lambda d: entry(d, 2).__setitem__("dice", True),
    "hd95-null": lambda d: entry(d).__setitem__("hd95", None),
    "dice-above-one": lambda d: entry(d, 1, "c2", "ET").__setitem__("dice", 1.5),
    "dice-nan": lambda d: entry(d).__setitem__("dice", math.nan),
    "hd95-negative": lambda d: entry(d).__setitem__("hd95", -1),
    "hd95-inf": lambda d: entry(d, 2).__setitem__("hd95", math.inf),
    "hd95-int-overflow": lambda d: entry(d).__setitem__("hd95", 10**400),
    "special-unknown": lambda d: entry(d).__setitem__("special_case", "maybe"),
    "special-list": lambda d: entry(d).__setitem__("special_case", ["none"]),
    "special-null": lambda d: entry(d, 1).__setitem__("special_case", None),
    "unknown-region": lambda d: d["submissions"][0]["metrics"]["c1"].__setitem__(
        "XX", d["submissions"][0]["metrics"]["c1"].pop("ET")),
    "extra-region": lambda d: d["submissions"][0]["metrics"]["c1"].__setitem__("XX", entry(d)),
    "missing-region": lambda d: d["submissions"][1]["metrics"]["c0"].pop("TC"),
    "case-missing": lambda d: d["submissions"][1]["metrics"].pop("c2"),
    "case-extra": lambda d: d["submissions"][2]["metrics"].__setitem__("c9", {}),
    "no-cases": lambda d: [s["metrics"].clear() for s in d["submissions"]],
}


def three_by_three() -> dict:
    return {
        "submissions": [
            {
                "algorithm_id": algorithm_id,
                "metrics": {
                    f"c{j}": {r: {"dice": 0.5, "hd95": 1.0, "special_case": "none"} for r in REGIONS}
                    for j in range(3)
                },
            }
            for algorithm_id in IDS[:3]
        ],
        "ranking": None,
    }


@pytest.mark.parametrize("action", ["add", "recompute"])
@pytest.mark.parametrize("name", sorted(BREAKS))
def test_every_broken_store_is_rejected_by_both_routes(tmp_path, capsys, name, action):
    doc = three_by_three()
    store = tmp_path / "store.json"
    assert _tabulate(store, doc["submissions"]).algorithms == tuple(IDS[:3])
    BREAKS[name](doc)
    store.write_text(canonical(doc))
    with pytest.raises(FormatError, match="^" + re.escape(f"leaderboard store {store}: submission ")):
        _load_store(store, store.read_bytes())
    before = store.read_bytes()
    args = ["leaderboard", action, "--store", str(store)]
    if action == "add":
        args += ["--metrics", str(write_metrics(tmp_path / "m.csv", np.random.default_rng(0), ["c0", "c1", "c2"])),
                 "--algorithm", "new"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["category"] == "format"
    assert store.read_bytes() == before


def sub(algorithm_id, cases=("c1", "c2"), regions=REGIONS, **values):
    scores = {"dice": 1.0, "hd95": 0.0, **values}
    return {"algorithm_id": algorithm_id, "metrics": {c: {r: dict(scores) for r in regions} for c in cases}}


@pytest.mark.parametrize("action", ["add", "recompute"])
@pytest.mark.parametrize(
    "document, message",
    [
        ("{nope", "invalid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        ({"submissions": {}}, "expected a 'submissions' list"),
        ([1], "expected a 'submissions' list"),
        (
            {"submissions": [{"algorithm_id": "A", "timestamp": "t"}]},
            "submission 0 needs a string 'algorithm_id' and 'metrics' mapping "
            "case -> region -> {dice, hd95, special_case}",
        ),
        ({"submissions": [sub("A"), sub("A")]}, "submission 1: duplicate algorithm_id 'A'"),
        ({"submissions": [sub("A", dice="x")]}, "submission 0 case c1: region 'WT' needs numeric dice and hd95"),
        (
            {"submissions": [sub("A", regions=("WT", "XX", "ET"))]},
            "submission 0 case c1: unknown region 'XX', expected one of ('WT', 'TC', 'ET')",
        ),
        ({"submissions": [sub("A", special_case="bogus")]}, "submission 0 case c1: 'bogus' is not a valid SpecialCase"),
        ({"submissions": [sub("A", hd95=10**400)]}, "submission 0 case c1: int too large to convert to float"),
        (
            {"submissions": [sub("A"), sub("B", dice=-0.5)]},
            "submission 1 case c1: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice -0.5, hd95 0.0",
        ),
        # An entry error comes before a later submission's repeated id ...
        (
            {"submissions": [sub("A", cases=("c1",)), sub("B", cases=("c1", "c2"), hd95=True), sub("A")]},
            "submission 1 case c1: region 'WT' needs numeric dice and hd95",
        ),
        # ... and before an earlier submission's different case set.
        (
            {"submissions": [sub("A", cases=("c1",)), sub("B", cases=("c3",), dice=2)]},
            "submission 1 case c3: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 2.0, hd95 0.0",
        ),
    ],
)
def test_store_messages_are_unchanged(tmp_path, capsys, action, document, message):
    strong = write_metrics(tmp_path / "m.csv", np.random.default_rng(1), ["c1", "c2"])
    store = tmp_path / "store.json"
    store.write_text(document if isinstance(document, str) else json.dumps(document))
    args = ["leaderboard", action, "--store", str(store)]
    if action == "add":
        args += ["--metrics", str(strong), "--algorithm", "N"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"category": "format", "message": f"leaderboard store {store}: {message}"}


@pytest.mark.parametrize("action", ["add", "recompute"])
@pytest.mark.parametrize(
    "submissions, message",
    [
        ([sub("a", cases=("c1",)), sub("b", cases=("c2",))], "submission 1 case c1: missing, but in submission 0"),
        ([sub("a", cases=("c1",)), sub("b", cases=("c1", "c2"))], "submission 1 case c2: not in submission 0"),
        ([sub("a"), sub("b", regions=("WT", "ET"))], "submission 1 case c1: needs one entry per region ['WT', 'TC', 'ET'], got ['ET', 'WT']"),
        ([sub("a", cases=()), sub("b", cases=())], "submission 0 has no cases"),
    ],
    ids=["case-missing", "case-extra", "region-missing", "no-cases"],
)
def test_inconsistent_store_is_a_format_error(tmp_path, capsys, action, submissions, message):
    strong = write_metrics(tmp_path / "m.csv", np.random.default_rng(1), ["c1", "c2"])
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"submissions": submissions, "ranking": None}))
    before = store.read_bytes()
    args = ["leaderboard", action, "--store", str(store)]
    if action == "add":
        args += ["--metrics", str(strong), "--algorithm", "N"]
    assert main(args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["category"] == "format"
    assert error["message"].startswith(f"leaderboard store {store}: {message}")
    assert store.read_bytes() == before


@pytest.mark.parametrize(
    "submissions, message",
    [
        (
            [sub("A", regions=("WT", "ET")), sub("B", dice=2)],
            "submission 1 case c1: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 2.0, hd95 0.0",
        ),
        (
            [sub("A", hd95=-1), {"algorithm_id": "B"}],
            "submission 0 case c1: WT needs dice in [0, 1] and a finite nonnegative hd95, got dice 1.0, hd95 -1.0",
        ),
        ([sub("A"), sub("B", special_case="bogus"), sub("A")], "submission 1 case c1: 'bogus' is not a valid SpecialCase"),
        ([sub("A", cases=()), sub("B", dice="x")], "submission 1 case c1: region 'WT' needs numeric dice and hd95"),
    ],
    ids=["region-set-then-entry", "entry-then-no-metrics", "entry-then-repeated-id", "no-cases-then-entry"],
)
def test_an_entry_fault_is_named_before_the_other_faults(tmp_path, submissions, message):
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"submissions": submissions, "ranking": None}))
    with pytest.raises(FormatError) as exc:
        _load_store(store, store.read_bytes())
    assert str(exc.value) == f"leaderboard store {store}: {message}"


#: Values a mutation writes into a score or a special case; some are valid.
WILD_SCORES = [None, "0.5", [], {}, True, 10**400, math.nan, math.inf, -math.inf,
               -0.0, 2**60, 1e308, 0, 1, 0.5, 1.5, -1]
WILD_SPECIALS = [["none"], None, {}, 1, "bogus", "both_empty", "none"]


def pick(values, rng):
    """A fresh copy of a random element, so no edit shares a list or dict."""
    return copy.deepcopy(values[rng.integers(len(values))])


def mutate(doc, rng) -> None:
    """Make one random edit to a store document, if it still has the part the
    edit needs; many edits break the store, some leave it valid."""
    subs = doc["submissions"]
    n = int(rng.integers(len(subs)))
    kind = int(rng.integers(13))
    if kind == 0:
        subs[n] = pick([None, "x", 1, []], rng)
        return
    s = subs[n]
    if not isinstance(s, dict):
        return
    if kind == 1:
        s["algorithm_id"] = pick([7, None, "fresh", IDS[0]], rng)
        return
    if kind == 2:
        s.pop("metrics", None)
        if rng.random() < 0.5:
            s["metrics"] = []
        return
    metrics = s.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return
    case = sorted(metrics)[rng.integers(len(metrics))]
    if kind == 3:
        metrics.pop(case)
        return
    if kind == 4:
        metrics["c99"] = copy.deepcopy(metrics[case]) if rng.random() < 0.5 else {}
        return
    if kind == 5:
        metrics.clear()
        return
    regions = metrics[case]
    if not isinstance(regions, dict) or not regions:
        return
    region = sorted(regions)[rng.integers(len(regions))]
    if kind == 6:
        regions.pop(region)
    elif kind == 7:
        regions["XX"] = copy.deepcopy(regions[region])
    elif kind == 8:
        regions[region] = pick(WILD_SCORES, rng)
    elif not isinstance(regions[region], dict):
        return
    elif kind == 9:
        regions[region]["dice"] = pick(WILD_SCORES, rng)
    elif kind == 10:
        regions[region]["hd95"] = pick(WILD_SCORES, rng)
    elif kind == 11:
        regions[region]["special_case"] = pick(WILD_SPECIALS, rng)
    else:
        regions[region].pop(["dice", "hd95", "special_case"][rng.integers(3)], None)


@pytest.mark.parametrize("seed", range(10))
def test_mutated_stores_load_as_the_record_route_or_fail_in_one_line(tmp_path, capsys, seed):
    rng = np.random.default_rng(2000 + seed)
    store = tmp_path / "store.json"
    rejected = 0
    for _ in range(50):
        doc = random_store(rng)
        for _ in range(int(rng.integers(1, 4))):
            mutate(doc, rng)
        store.write_text(canonical(doc))
        before = store.read_bytes()
        try:
            table = _load_store(store, store.read_bytes())[1]
        except FormatError as exc:
            assert str(exc).startswith(f"leaderboard store {store}: ")
            rejected += 1
            assert main(["leaderboard", "recompute", "--store", str(store)]) == 4
            assert len(capsys.readouterr().err.splitlines()) == 1
            assert store.read_bytes() == before
            continue
        want = records_route(json.loads(before)["submissions"])
        assert table.algorithms == want.algorithms and table.cases == want.cases
        assert np.array_equal(table.dice, want.dice) and np.array_equal(table.hd95, want.hd95)
        assert np.array_equal(np.signbit(table.dice), np.signbit(want.dice))
    assert 0 < rejected < 50


# --------------------------------------------------------------------------
# store table


#: Case ids whose CSV and JSON forms quote, escape or hold non-ASCII.
ODD_CASES = ["c1", "ça", 'q"c', "b\\c", "n\nc", "c10", "模"]
#: How the table beside the store is left before an add.  Only "present" and
#: "recomputed" may take the table route; every state must give the bytes and
#: the error of "absent", the full route.
TABLE_STATES = ["absent", "stale", "truncated", "garbled", "foreign", "recomputed", "present"]


@pytest.mark.parametrize("how", ["extra-key", "reversed-keys", "list-before-ranking"])
def test_a_store_in_its_own_layout_is_added_to_by_the_full_route(tmp_path, full_encodes, how):
    # The full encoding keeps such a store's keys, so its submissions list
    # is not followed by the ranking alone; no table that recompute or an add
    # writes may then point the next add at a splice.
    rng = np.random.default_rng(5)
    store = tmp_path / "store.json"
    for k, algorithm_id in enumerate(IDS[:2]):
        leaderboard_add(store, write_metrics(tmp_path / f"m{k}.csv", rng, ["c1", "c2"]), algorithm_id)
    store.write_text(reformat(store.read_text(), how))
    assert main(["leaderboard", "recompute", "--store", str(store)]) == 0
    full_encodes.clear()
    for algorithm_id in ("new", "newer"):
        before = json.loads(store.read_text())
        metrics = write_metrics(tmp_path / f"{algorithm_id}.csv", rng, ["c1", "c2"])
        leaderboard_add(store, metrics, algorithm_id)
        assert store.read_text() == canonical(expected_after_add(before, algorithm_id, metrics))
    assert full_encodes == [store, store]


def resigned(table: bytes, **fields) -> bytes:
    """``table`` with header ``fields`` replaced and its own CRC-32 made valid
    again; its key still matches the store."""
    head, _, block = table[:-4].partition(b"\n")
    body = json.dumps({**json.loads(head), **fields}).encode() + b"\n" + block
    return body + zlib.crc32(body).to_bytes(4, "little")


@pytest.mark.parametrize(
    "fields, loaded",
    [
        # Older tables held the splice offset; the add finds it in the store.
        (lambda data, head: {"cut": 5}, False),
        (lambda data, head: {"algorithms": list(range(len(head["algorithms"])))}, True),
        (lambda data, head: {"cases": list(range(len(head["cases"])))}, True),
    ],
    ids=["cut-ignored", "integer-algorithms", "integer-cases"],
)
def test_a_table_with_a_bad_header_is_not_trusted(tmp_path, monkeypatch, fields, loaded):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    loads = []
    real_load = voxeval.cli._load_store
    monkeypatch.setattr(voxeval.cli, "_load_store", lambda path, data: loads.append(path) or real_load(path, data))
    rng = np.random.default_rng(9)
    store, table = tmp_path / "store.json", tmp_path / "store.json.table"
    for k, algorithm_id in enumerate(IDS[:2]):
        leaderboard_add(store, write_metrics(tmp_path / f"m{k}.csv", rng, ["c1", "c2"]), algorithm_id)
    data, good = store.read_bytes(), table.read_bytes()
    metrics = write_metrics(tmp_path / "new.csv", rng, ["c1", "c2"])
    table.unlink()
    leaderboard_add(store, metrics, "new")
    want = store.read_bytes(), table.read_bytes()
    store.write_bytes(data)
    table.write_bytes(resigned(good, **fields(data, json.loads(good.partition(b"\n")[0]))))
    loads.clear()
    leaderboard_add(store, metrics, "new")
    assert (store.read_bytes(), table.read_bytes()) == want
    assert loads == [store] * loaded


@pytest.mark.parametrize("how", ["compact", "reversed-keys"])
def test_a_table_keyed_to_a_store_without_the_splice_mark_is_not_used(tmp_path, full_encodes, how):
    rng = np.random.default_rng(19)
    store, table = tmp_path / "store.json", tmp_path / "store.json.table"
    for k, algorithm_id in enumerate(IDS[:2]):
        leaderboard_add(store, write_metrics(tmp_path / f"m{k}.csv", rng, ["c1", "c2"]), algorithm_id)
    store.write_text(reformat(store.read_text(), how))
    data = store.read_bytes()
    table.write_bytes(resigned(table.read_bytes(), bytes=len(data), crc32=zlib.crc32(data)))
    full_encodes.clear()
    before = json.loads(data)
    metrics = write_metrics(tmp_path / "new.csv", rng, ["c1", "c2"])
    leaderboard_add(store, metrics, "new")
    assert store.read_text() == canonical(expected_after_add(before, "new", metrics))
    assert full_encodes == [store]


def test_ids_holding_the_splice_mark_are_added_through_the_table(tmp_path, full_encodes):
    # JSON escapes their newlines, so the store's own mark stays the only one.
    # A metrics file's case ids are stripped, so the case id wraps the mark.
    mark = '\n  ],\n  "ranking": '
    cases = [f"c{mark}c", "c2"]
    rng = np.random.default_rng(21)
    store = tmp_path / "store.json"
    leaderboard_add(store, write_metrics(tmp_path / "m.csv", rng, cases), "first")
    full_encodes.clear()
    for algorithm_id in (mark, "last"):
        before = json.loads(store.read_text())
        metrics = write_metrics(tmp_path / "m.csv", rng, cases)
        leaderboard_add(store, metrics, algorithm_id)
        assert store.read_text() == canonical(expected_after_add(before, algorithm_id, metrics))
    assert full_encodes == []
    assert store.read_bytes().count(mark.encode()) == 1


@pytest.mark.parametrize("where", ["store.json", "x/a/store.json"])
def test_recompute_of_a_missing_store_creates_nothing(tmp_path, capsys, where):
    store = tmp_path / where
    assert main(["leaderboard", "recompute", "--store", str(store)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == {
        "category": "io", "message": f"[Errno 2] No such file or directory: {str(store)!r}"
    }
    assert list(tmp_path.iterdir()) == []


def test_recompute_of_an_empty_store_names_the_store(tmp_path, capsys):
    store = tmp_path / "store.json"
    store.write_text(canonical({"submissions": [], "ranking": None}))
    assert main(["leaderboard", "recompute", "--store", str(store)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == {
        "category": "validation", "message": f"leaderboard store {store} has no submissions"
    }


def test_adds_succeed_when_the_table_cannot_be_written(tmp_path, full_encodes):
    rng = np.random.default_rng(13)
    store, table = tmp_path / "store.json", tmp_path / "store.json.table"
    table.mkdir()
    (table / "keep").write_text("kept")
    before = {"submissions": [], "ranking": None}
    for k, algorithm_id in enumerate(IDS[:3]):
        metrics = write_metrics(tmp_path / f"m{k}.csv", rng, ["c1", "c2"])
        args = ["leaderboard", "add", "--store", str(store), "--metrics", str(metrics), "--algorithm", algorithm_id]
        assert main(args) == 0
        assert store.read_text() == canonical(expected_after_add(before, algorithm_id, metrics))
        before = json.loads(store.read_text())
    assert full_encodes == [store] * 3
    names = ["m0.csv", "m1.csv", "m2.csv", "store.json", "store.json.lock", "store.json.table"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert [p.name for p in table.iterdir()] == ["keep"] and (table / "keep").read_text() == "kept"


def write_odd_metrics(path, rng, cases):
    """A metrics.csv over ``cases`` in shuffled order, -0.0 scores included."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case_id", "region", "dice", "hd95", "special_case"])
        for case in rng.permutation(cases):
            for region in rng.permutation(REGIONS):
                writer.writerow([case, region, rng.choice(DICE_TEXT + ["-0.0", "0.1"]),
                                 rng.choice(HD95_TEXT + ["-0.0", "1e-7"]), rng.choice(SPECIALS)])
    return path


def add_in_every_table_state(store, metrics, algorithm_id, rng, stale, foreign, loads):
    """The outcome of one add for each state of the table: the new store and
    table bytes, or the error; the store and table are restored before each."""
    table = store.with_name(store.name + ".table")
    before, good = store.read_bytes(), table.read_bytes()
    outcomes = {}
    for state in TABLE_STATES:
        store.write_bytes(before)
        table.write_bytes({"stale": stale, "foreign": foreign}.get(state, good))
        if state == "absent":
            table.unlink()
        elif state == "truncated":
            table.write_bytes(good[: rng.integers(len(good))])
        elif state == "garbled":
            k = int(rng.integers(len(good)))
            table.write_bytes(good[:k] + bytes([good[k] ^ 1 << int(rng.integers(8))]) + good[k + 1:])
        elif state == "recomputed":
            assert main(["leaderboard", "recompute", "--store", str(store)]) == 0
            assert store.read_bytes() == before
        loads.clear()
        try:
            leaderboard_add(store, metrics, algorithm_id)
            outcomes[state] = store.read_bytes(), table.read_bytes()
        except (ValidationError, FormatError) as exc:
            outcomes[state] = type(exc), str(exc)
            assert store.read_bytes() == before
        assert bool(loads) == (state not in ("present", "recomputed")), state
    return outcomes


@pytest.mark.parametrize("seed", range(6))
def test_adds_through_the_table_match_the_full_route(tmp_path, monkeypatch, seed):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    loads = []
    real_load = voxeval.cli._load_store
    monkeypatch.setattr(voxeval.cli, "_load_store", lambda path, data: loads.append(path) or real_load(path, data))
    rng = np.random.default_rng(300 + seed)
    cases = [str(c) for c in rng.choice(ODD_CASES, size=int(rng.integers(1, 6)), replace=False)]
    other = tmp_path / "other" / "store.json"
    for k in range(2):
        leaderboard_add(other, write_odd_metrics(tmp_path / f"o{k}.csv", rng, ["x1", "x2"]), IDS[k])
    foreign = other.with_name("store.json.table").read_bytes()
    store = tmp_path / "store.json"
    leaderboard_add(store, write_odd_metrics(tmp_path / "m.csv", rng, cases), IDS[0])
    stale = store.with_name("store.json.table").read_bytes()
    leaderboard_add(store, write_odd_metrics(tmp_path / "m.csv", rng, cases), IDS[1])
    added, errors = 2, 0
    for k in range(8):
        choice = rng.random()
        if choice < 0.15:  # an id already in the store
            metrics, algorithm_id = write_odd_metrics(tmp_path / f"m{k}.csv", rng, cases), IDS[0]
        elif choice < 0.3:  # a case missing
            metrics, algorithm_id = write_odd_metrics(tmp_path / f"m{k}.csv", rng, cases[1:] or ["z"]), f"x{k}"
        else:
            metrics = write_odd_metrics(tmp_path / f"m{k}.csv", rng, cases)
            algorithm_id = IDS[added % len(IDS)] + str(k)
        table, doc = store.with_name("store.json.table").read_bytes(), json.loads(store.read_text())
        outcomes = add_in_every_table_state(store, metrics, algorithm_id, rng, stale, foreign, loads)
        assert all(outcome == outcomes["absent"] for outcome in outcomes.values()), outcomes
        if isinstance(outcomes["absent"][0], bytes):
            added, stale = added + 1, table
            assert store.read_text() == canonical(expected_after_add(doc, algorithm_id, metrics))
        else:
            errors += 1
    assert added > 3 and errors


SCORES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([5e-324, 1e16, 1e-7, 373.13, -0.0])
#: Any code point, control characters and lone surrogates included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
#: Submissions with their keys in the order an add builds them.
ENTRIES = st.builds(lambda d, h, s: {"dice": d, "hd95": h, "special_case": s}, SCORES, SCORES, TEXT)
SUBMISSIONS = st.builds(
    lambda a, t, m: {"algorithm_id": a, "timestamp": t, "metrics": m},
    TEXT, TEXT, st.dictionaries(TEXT, st.dictionaries(TEXT, ENTRIES, min_size=1, max_size=3), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(SUBMISSIONS)
def test_submission_template_matches_the_encoder(submission):
    assert voxeval.cli._encode_submission(submission) == voxeval.cli._encode(submission, 2)


def test_submission_template_covers_the_awkward_values():
    scores = [5e-324, 1e16, 1e-7, 373.13, -0.0, 1.0, 0.0, 2.0**70]
    submission = {
        "algorithm_id": "a\x00\x1f\u2028\ud800z",
        "timestamp": "t\n",
        "metrics": {
            case: {
                region: {"dice": d, "hd95": h, "special_case": "none\udfff"}
                for region, d, h in zip(REGIONS, scores, scores[::-1])
            }
            for case in ["\x7f", "é", 'q"\\', "\ud83d"]
        },
    }
    assert voxeval.cli._encode_submission(submission) == voxeval.cli._encode(submission, 2)


@pytest.mark.parametrize("seed", range(5))
def test_mutated_stores_beside_a_valid_table_fail_in_one_line(tmp_path, capsys, monkeypatch, seed):
    """A table keyed to the store before an edit does not let the edited
    store through: a rejected store exits 4 in one line and stays as it is,
    and an accepted one takes the full route's bytes."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    rng = np.random.default_rng(2000 + seed)
    store = tmp_path / "store.json"
    table = store.with_name("store.json.table")
    rejected = 0
    for _ in range(40):
        doc = random_store(rng)
        store.write_text(canonical(doc))
        assert main(["leaderboard", "recompute", "--store", str(store)]) == 0
        valid = table.read_bytes()
        doc = json.loads(store.read_text())
        metrics = write_metrics(tmp_path / "m.csv", rng, sorted(doc["submissions"][0]["metrics"]))
        for _ in range(int(rng.integers(1, 4))):
            mutate(doc, rng)
        store.write_text(canonical(doc))
        before = store.read_bytes()
        args = ["leaderboard", "add", "--store", str(store), "--metrics", str(metrics), "--algorithm", "new"]
        try:
            _load_store(store, store.read_bytes())
        except FormatError:
            rejected += 1
            assert main(args) == 4
            assert len(capsys.readouterr().err.splitlines()) == 1
            assert store.read_bytes() == before and table.read_bytes() == valid
            continue
        code, err = main(args), capsys.readouterr().err
        got = store.read_bytes()
        store.write_bytes(before)
        table.unlink()
        assert (main(args), capsys.readouterr().err, store.read_bytes()) == (code, err, got)
    assert 0 < rejected < 40


# --------------------------------------------------------------------------
# store lock


ADDER = textwrap.dedent(
    """
    import sys, time
    from pathlib import Path
    from voxeval.cli import main

    store, ready, go, metrics, *ids = sys.argv[1:]
    Path(ready).touch()
    while not Path(go).exists():
        time.sleep(0.001)
    args = ["leaderboard", "add", "--store", store, "--metrics", metrics, "--algorithm"]
    sys.exit(max(main(args + [i]) for i in ids))
    """
)


def test_concurrent_adds_keep_every_submission(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    env = dict(os.environ)
    src = str(Path(voxeval.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    rng = np.random.default_rng(7)
    cases = [f"c{j:02d}" for j in range(40)]
    store = tmp_path / "store" / "store.json"
    go = tmp_path / "go"
    ids = [[f"p{p}-{k}" for k in range(5)] for p in range(3)]
    procs = []
    for p, own in enumerate(ids):
        metrics = write_metrics(tmp_path / f"m{p}.csv", rng, cases)
        argv = [sys.executable, "-c", ADDER, str(store), str(tmp_path / f"ready{p}"), str(go), str(metrics), *own]
        procs.append(subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True))
    try:
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"ready{p}").exists() for p in range(len(procs))):
            assert time.monotonic() < deadline and all(proc.poll() is None for proc in procs)
            time.sleep(0.01)
        go.touch()
        errors = [proc.communicate(timeout=120)[1] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [proc.returncode for proc in procs] == [0] * len(procs), errors
    text = store.read_text()
    doc = json.loads(text)
    assert sorted(s["algorithm_id"] for s in doc["submissions"]) == sorted(sum(ids, []))
    assert doc["ranking"] == _rank_result_document(brats_ranking(records_route(doc["submissions"])))
    # Lists of lines: a failing comparison of two long strings takes minutes to explain.
    assert text.splitlines(keepends=True) == canonical(doc).splitlines(keepends=True)
    assert sorted(p.name for p in store.parent.iterdir()) == ["store.json", "store.json.lock", "store.json.table"]
