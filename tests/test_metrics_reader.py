"""The CSV inputs of the CLI against the record route and a DictReader oracle.

``rank``, ``stability`` and ``leaderboard add`` read each metrics file once,
column by column, and check all rows at once; only a file that fails is walked
row by row, to name its fault.  They must give the table that
``read_metrics_csv`` and ``MetricTable.from_records`` build from records, bit
for bit, and the same store bytes, or fail in one line naming the file.  The
record route's rows come from ``csv_rows_oracle``, so the CLI's one CSV
reader is checked against ``csv.DictReader``, for metrics files and manifests.
"""

import csv
import json
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import voxeval.cli
from voxeval.cli import (
    _named_metrics_table,
    _read_scores,
    leaderboard_add,
    main,
    parse_ensemble_manifest,
    parse_manifest,
    read_metrics_csv,
)
from voxeval.errors import FormatError, ValidationError
from voxeval.metrics import SpecialCase
from voxeval.ranking import MetricTable

from oracles import csv_rows_oracle
from test_leaderboard_store import EPOCH, canonical, expected_after_add

REGIONS = ("WT", "TC", "ET")
SPECIALS = [case.value for case in SpecialCase]
#: Integer-valued text, -0.0, a tiny value, padding, exponents and
#: underscores: all of it is Python float() syntax.
DICE_TEXT = ["0", "1", "-0.0", "1e-300", "0.5", " 0.25 ", "1.0", "0.8125", "1E-1"]
HD95_TEXT = ["0", "2", "-0.0", "1e-300", "373.13", "10", "1_000.5", "\t7.5", "1e300"]
#: Ids that need quoting, and ids with padding that the reader strips.
CASE_IDS = ["c0", "c1", "c10", "c2", "a,b", 'q"t', "line\nbreak", "zoë", "模型", "B", "b"]


def random_metrics_text(rng, cases) -> str:
    """A valid metrics.csv over ``cases``: rows shuffled across cases, columns
    in random order, perhaps with a decoy repeat of one required name before
    the real one (DictReader keeps the last), special_case given, empty or absent,
    random quoting, blank lines, CRLF or LF, and perhaps a byte-order mark."""
    columns = ["case_id", "region", "dice", "hd95", "note"]
    with_special = rng.random() < 0.7
    if with_special:
        columns.append("special_case")
    columns = [str(c) for c in rng.permutation(columns)]
    decoys = rng.random() < 0.5
    if decoys:
        columns.insert(0, str(rng.choice(["case_id", "region", "dice", "hd95"])))
    rows = []
    for case in cases:
        for region in REGIONS:
            values = {
                "case_id": case if rng.random() < 0.7 else f"  {case} ",
                "region": region,
                "dice": DICE_TEXT[rng.integers(len(DICE_TEXT))],
                "hd95": HD95_TEXT[rng.integers(len(HD95_TEXT))],
                "note": "x,y" if rng.random() < 0.5 else "",
                "special_case": (SPECIALS + [""])[rng.integers(len(SPECIALS) + 1)],
            }
            rows.append(["junk"] * decoys + [values[c] for c in columns[decoys:]])
    rows = [rows[i] for i in rng.permutation(len(rows))]
    text = StringIO()
    quoting = [csv.QUOTE_MINIMAL, csv.QUOTE_ALL][rng.integers(2)]
    terminator = ["\n", "\r\n"][rng.integers(2)]
    writer = csv.writer(text, quoting=quoting, lineterminator=terminator)
    writer.writerow(columns)
    for row in rows:
        if rng.random() < 0.15:
            text.write(terminator)
        writer.writerow(row)
    return ("\ufeff" if rng.random() < 0.3 else "") + text.getvalue()


def write_random_metrics(path, rng, cases):
    path.write_text(random_metrics_text(rng, cases), encoding="utf-8", newline="")
    return path


def assert_same_table(got: MetricTable, want: MetricTable) -> None:
    assert got.algorithms == want.algorithms and got.cases == want.cases
    for name in ("dice", "hd95"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.tobytes() == b.tobytes()  # equal values and signs, -0.0 included
        assert np.array_equal(np.signbit(a), np.signbit(b))


def through_oracle(parse, path):
    """``parse(path)`` with its CSV rows read by :func:`csv_rows_oracle`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(voxeval.cli, "_csv_rows", lambda *args: (None, csv_rows_oracle(*args)))
        return parse(path)


def both_routes(path):
    """``_read_scores`` and the record route's (cases, block, sorted rows) of
    one file, the record route's rows read by the oracle."""
    cases, block, rows = _read_scores(path)
    records = through_oracle(read_metrics_csv, path)
    table = MetricTable.from_records({"A": records})
    want = [(c, r.region, r.dice, r.hd95, r.special_case.value) for c in sorted(records) for r in records[c]]
    return [
        (cases, block.tobytes(), sorted(rows, key=lambda row: row[0])),
        (list(table.cases), np.stack([table.dice[0], table.hd95[0]]).tobytes(), want),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_columnar_reader_matches_the_record_route(tmp_path, seed):
    rng = np.random.default_rng(seed)
    cases = [str(c) for c in rng.choice(CASE_IDS, size=int(rng.integers(1, 8)), replace=False)]
    paths = {}
    for name in ("A", "B", "C")[: int(rng.integers(1, 4))]:
        paths[name] = write_random_metrics(tmp_path / f"{name}.csv", rng, cases)
        fast, slow = both_routes(paths[name])
        assert fast == slow
    got = _named_metrics_table([f"{name}={path}" for name, path in paths.items()])
    want = MetricTable.from_records({name: read_metrics_csv(path) for name, path in paths.items()})
    assert_same_table(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_leaderboard_add_writes_the_record_route_store(tmp_path, monkeypatch, seed):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    rng = np.random.default_rng(100 + seed)
    cases = [str(c) for c in rng.choice(CASE_IDS, size=int(rng.integers(1, 8)), replace=False)]
    store = tmp_path / "store.json"
    for k, algorithm_id in enumerate(["A", "zoë", "B"]):
        metrics = write_random_metrics(tmp_path / f"m{k}.csv", rng, cases)
        before = json.loads(store.read_text()) if k else {"submissions": [], "ranking": None}
        leaderboard_add(store, metrics, algorithm_id)
        assert store.read_text() == canonical(expected_after_add(before, algorithm_id, metrics))


HEADER = "case_id,region,dice,hd95,special_case\n"
#: Valid files with a long row and with a short one (no special_case).
ROW_SHAPES = [
    HEADER + "c1,WT,1,0,none,extra\nc1,TC,1,0,none\nc1,ET,-0.0,0,none\n",
    HEADER + "c1,WT,1,0\nc1,TC,1,0,none\nc1,ET,1,0,none\n",
]


@pytest.mark.parametrize("text", ROW_SHAPES, ids=["long-row", "short-row-without-special-case"])
def test_files_the_columnar_reader_declines_still_read(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    fast, slow = both_routes(path)
    assert fast == slow
    got = _named_metrics_table([f"A={path}", f"B={path}"])
    want = MetricTable.from_records({"A": read_metrics_csv(path), "B": read_metrics_csv(path)})
    assert_same_table(got, want)


def test_valid_files_build_no_records(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(EPOCH))
    built = []
    real = voxeval.cli.MetricRecord
    monkeypatch.setattr(voxeval.cli, "MetricRecord", lambda *args: built.append(args) or real(*args))
    rng = np.random.default_rng(7)
    cases = ["c0", "c1", "c2", "a,b"]
    groups = [[f"{n}={write_random_metrics(tmp_path / f'{n}.csv', rng, cases)}" for n in "ABC"]]
    for k, text in enumerate(ROW_SHAPES):
        (tmp_path / f"rows{k}.csv").write_text(text)
        groups.append([f"{n}={tmp_path / f'rows{k}.csv'}" for n in "ABC"])
    for k, pairs in enumerate(groups):
        assert main(["rank", *pairs, "--out", str(tmp_path / "rank.json")]) == 0
        assert main(["stability", *pairs, "--out", str(tmp_path / "flips.csv")]) == 0
        for pair in pairs:
            name, _, path = pair.partition("=")
            args = ["--store", str(tmp_path / f"store{k}.json"), "--metrics", path, "--algorithm", name]
            assert main(["leaderboard", "add", *args]) == 0
    assert built == []
    # The record route still builds them, so the wrapper sees its calls.
    read_metrics_csv(groups[0][0].partition("=")[2])
    assert len(built) == 3 * len(cases)


BAD_SCORES = ["high", "0,5", "1.0.0", "", "nan", "NaN", "inf", "-inf", "1.5", "-0.1", "-1", "1e400"]
EDITS = ["score", "case", "region", "special", "delete", "repeat", "truncate", "extra", "byte", "quote"]


def mutated_metrics(rng, cases) -> bytes:
    """A file of ``random_metrics_text`` with 1-3 random edits of ``EDITS``."""
    return mutated_csv(rng, random_metrics_text(rng, cases), EDITS)


def mutated_csv(rng, text, kinds) -> bytes:
    """CSV ``text`` with 1-3 random edits of ``kinds``: a bad, non-finite or
    out-of-range score, a blank case id, an unknown region or special_case,
    a deleted, repeated or truncated row, an extra field, an undecodable
    byte or a quote that opens a row."""
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    header, *rows = csv.reader(StringIO(text[len(bom):], newline=""))

    def put(row, name, value):  # into the column DictReader reads: the last of that name
        k = len(header) - 1 - header[::-1].index(name) if name in header else len(row)
        if k < len(row):
            row[k] = value

    edits = [str(edit) for edit in rng.choice(kinds, size=int(rng.integers(1, 4)))]
    for edit in edits:
        full = [i for i, row in enumerate(rows) if len(row) > 1]
        if not full:
            break
        i = int(rng.choice(full))
        row = rows[i]
        if edit == "score":
            put(row, str(rng.choice(["dice", "hd95"])), str(rng.choice(BAD_SCORES)))
        elif edit == "case":
            put(row, "case_id", str(rng.choice(["", "  "])))
        elif edit == "region":
            put(row, "region", str(rng.choice(["XX", "wt", " WT", ""])))
        elif edit == "special":
            put(row, "special_case", str(rng.choice(["odd", "None", " none"])))
        elif edit == "delete":
            del rows[i]
        elif edit == "repeat":
            rows.insert(int(rng.integers(len(rows) + 1)), list(row))
        elif edit == "truncate":
            del row[int(rng.integers(1, len(row))):]
        elif edit == "extra":
            row.append(str(rng.choice(["x", "", "1.0"])))
    out = StringIO()
    quoting = [csv.QUOTE_MINIMAL, csv.QUOTE_ALL][rng.integers(2)]
    csv.writer(out, quoting=quoting, lineterminator=["\n", "\r\n"][rng.integers(2)]).writerows([header, *rows])
    lines = out.getvalue().splitlines(keepends=True)
    if "quote" in edits:
        k = int(rng.integers(len(lines)))
        lines[k] = '"' + lines[k]
    data = (bom + "".join(lines)).encode()
    if "byte" in edits:
        k = int(rng.integers(len(data) + 1))
        data = data[:k] + b"\xff" + data[k:]
    return data


@pytest.mark.parametrize("seed", range(4))
def test_mutated_metrics_files_read_as_the_record_route_or_fail_in_one_line(tmp_path, capsys, seed):
    rng = np.random.default_rng(3000 + seed)
    path = tmp_path / "m.csv"
    rejected = 0
    for _ in range(50):
        cases = [str(c) for c in rng.choice(CASE_IDS, size=int(rng.integers(1, 5)), replace=False)]
        path.write_bytes(mutated_metrics(rng, cases))
        code = main(["rank", f"A={path}", f"B={path}", "--out", str(tmp_path / "rank.json")])
        lines = capsys.readouterr().err.splitlines()
        try:
            MetricTable.from_records({"A": through_oracle(read_metrics_csv, path)})
        except (ValidationError, FormatError) as exc:
            rejected += 1
            assert code == (4 if isinstance(exc, FormatError) else 3)
            assert len(lines) == 1
            message = json.loads(lines[0])["error"]["message"]
            assert message.startswith(f"metrics file {path}")
            if str(exc).startswith("metrics file"):  # a row fault: the record route's own message
                assert message == str(exc)
            continue
        assert code == 0 and lines == []
        fast, slow = both_routes(path)
        assert fast == slow
    assert 0 < rejected < 50


#: Each manifest kind's columns, its parser and the command that reads it.
MANIFESTS = {
    "manifest": (("case_id", "reference_path", "prediction_path"), parse_manifest, "evaluate"),
    "ensemble manifest": (("case_id", "configuration", "wt_path", "tc_path", "et_path"), parse_ensemble_manifest, "ensemble"),
}
#: The edits of ``mutated_csv`` that apply to a manifest.
MANIFEST_EDITS = ["case", "repeat", "truncate", "extra", "byte", "quote"]


def random_manifest_text(rng, what, files) -> str:
    """A valid manifest of kind ``what`` whose paths name ``files``: columns
    in random order with a "note" column, perhaps a decoy repeat of one
    required name first, padded ids, one or two members per case in an
    ensemble manifest, random quoting, blank lines, CRLF or LF, and perhaps
    a byte-order mark."""
    required = MANIFESTS[what][0]
    columns = [str(c) for c in rng.permutation([*required, "note"])]
    decoys = rng.random() < 0.5
    if decoys:
        columns.insert(0, str(rng.choice(required)))
    rows = []
    for case in rng.choice(CASE_IDS, size=int(rng.integers(1, 5)), replace=False):
        for _ in range(1 if what == "manifest" else int(rng.integers(1, 3))):
            values = {column: str(rng.choice(files)) for column in required}
            values["case_id"] = str(case) if rng.random() < 0.7 else f"  {case} "
            values["configuration"] = str(rng.choice(["2d", "3d_fullres", " 3d "]))
            values["note"] = "x,y" if rng.random() < 0.5 else ""
            rows.append(["junk"] * decoys + [values[c] for c in columns[decoys:]])
    text = StringIO()
    terminator = ["\n", "\r\n"][rng.integers(2)]
    writer = csv.writer(text, quoting=[csv.QUOTE_MINIMAL, csv.QUOTE_ALL][rng.integers(2)], lineterminator=terminator)
    writer.writerow(columns)
    for row in rows:
        if rng.random() < 0.15:
            text.write(terminator)
        writer.writerow(row)
    return ("\ufeff" if rng.random() < 0.3 else "") + text.getvalue()


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("what", list(MANIFESTS))
def test_mutated_manifests_parse_as_the_oracle_or_fail_in_one_line(tmp_path, capsys, what, seed):
    rng = np.random.default_rng(4000 + seed)
    for name in ("ref.nii", "pred.nii", "p.nii.gz"):
        (tmp_path / name).write_bytes(b"")  # the parsers only check that each file exists
    files = ["ref.nii", "pred.nii", "p.nii.gz", str(tmp_path / "ref.nii")]
    _, parse, command = MANIFESTS[what]
    path = tmp_path / "manifest.csv"
    rejected = 0
    for _ in range(50):
        path.write_bytes(mutated_csv(rng, random_manifest_text(rng, what, files), MANIFEST_EDITS))
        try:
            want = through_oracle(parse, path)
        except (ValidationError, FormatError) as exc:
            rejected += 1
            out = ["--out-metrics", str(tmp_path / "m.csv")] if command == "evaluate" else ["--out-dir", str(tmp_path / "out")]
            code = main([command, "--manifest", str(path), *out])
            lines = capsys.readouterr().err.splitlines()
            assert code == (4 if isinstance(exc, FormatError) else 3)
            assert len(lines) == 1
            message = json.loads(lines[0])["error"]["message"]
            assert message.startswith(f"{what} {path}")
            if " row " in str(exc):  # a row fault names its row, as the oracle does
                assert message == str(exc)
            continue
        assert parse(path) == want
    assert 0 < rejected < 50


@pytest.mark.parametrize(
    "text",
    [HEADER + "c1,WT,1,0,none\nc1,TC,1,0,none\nc1,ET,1,0,none\n", HEADER + "c1,WT,1,0,none\nc1,TC,high,0,none\n"],
    ids=["valid", "bad-row"],
)
def test_a_metrics_file_is_opened_once(tmp_path, monkeypatch, capsys, text):
    path = tmp_path / "m.csv"
    path.write_text(text)
    opened = []
    monkeypatch.setattr(voxeval.cli, "open", lambda file, *args, **kwargs: opened.append(Path(file)) or open(file, *args, **kwargs), raising=False)
    main(["leaderboard", "add", "--store", str(tmp_path / "store.json"), "--metrics", str(path), "--algorithm", "A"])
    assert opened.count(path) == 1
