import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlelcs.cli import BENCH_COLUMNS, build_parser, main
from rlelcs.reference import plant_instance
from rlelcs.walk import WALK_RUN_BOUND


def run(args):
    return main(args)


def test_encode_decode_roundtrip(tmp_path, capsys):
    raw = tmp_path / "in.raw"
    raw.write_bytes(b"aaabcccdd")
    rle = tmp_path / "out.rle"
    assert run(["encode", str(raw), "-o", str(rle)]) == 0
    assert rle.read_text().strip() == "a:3,b:1,c:3,d:2"
    back = tmp_path / "back.raw"
    assert run(["decode", str(rle), "-o", str(back)]) == 0
    assert back.read_bytes() == b"aaabcccdd"


def test_encode_empty_file(tmp_path):
    raw = tmp_path / "empty.raw"
    raw.write_bytes(b"")
    rle = tmp_path / "empty.rle"
    assert run(["encode", str(raw), "-o", str(rle)]) == 0
    back = tmp_path / "empty.back"
    assert run(["decode", str(rle), "-o", str(back)]) == 0
    assert back.read_bytes() == b""


def test_decode_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.rle"
    bad.write_text("a:3\nnot-a-token\n")
    assert run(["decode", str(bad)]) == 1
    err = capsys.readouterr().err
    assert ":2:" in err


def test_solve_worked_pair(tmp_path, capsys):
    a = tmp_path / "a.raw"
    b = tmp_path / "b.raw"
    a.write_bytes(b"abcdbbbbccccc")
    b.write_bytes(b"abcd@bbbbcc")
    out = tmp_path / "res.json"
    code = run(["solve", str(a), str(b), "--format", "raw", "--json-out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["d_tilde"] == 6
    assert set(payload["ledger"]) == {"run_queries", "prefix_queries", "charged_cost"}


def test_solve_disjoint_null_result(tmp_path, capsys):
    a = tmp_path / "a.rle"
    b = tmp_path / "b.rle"
    a.write_text("a:3,b:1\n")
    b.write_text("c:2\n")
    assert run(["solve", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["result"] is None


def test_solve_costonly_ledger_only(tmp_path, capsys):
    a = tmp_path / "a.rle"
    b = tmp_path / "b.rle"
    a.write_text("a:3,b:4\n")
    b.write_text("b:2,a:1\n")
    assert run(["solve", str(a), str(b), "--mode", "costonly"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["result"] is None
    assert payload["ledger"]["charged_cost"] > 0


def test_solve_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.rle"
    bad.write_text("zz:@:3\n")
    good = tmp_path / "good.rle"
    good.write_text("a:1\n")
    assert run(["solve", str(bad), str(good)]) == 1


def test_solve_json_schema_stable(tmp_path):
    a = tmp_path / "a.rle"
    b = tmp_path / "b.rle"
    a.write_text("a:2,b:3\n")
    b.write_text("b:3,c:1\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["solve", str(a), str(b), "--seed", "7", "--json-out", str(out1)]) == 0
    assert run(["solve", str(a), str(b), "--seed", "7", "--json-out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    golden = {
        "ledger": {"charged_cost": 0.0, "prefix_queries": 0, "run_queries": 0},
        "result": {
            "d_tilde": 0,
            "decoded_start_A": 0,
            "decoded_start_B": 0,
            "ell": 0,
            "i_A": 0,
            "i_B": 0,
        },
    }

    def shape(node):
        if isinstance(node, dict):
            return {k: shape(v) for k, v in sorted(node.items())}
        return type(node).__name__

    assert shape(json.loads(out1.read_text())) == shape(golden)


def test_solve_lrs_flag(tmp_path, capsys):
    a = tmp_path / "a.rle"
    a.write_text("a:1,b:1,c:1,a:1,b:1,c:1\n")
    assert run(["solve", str(a), "--lrs"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["result"]["d_tilde"] == 3


def test_solve_lrs_rejects_second_input(tmp_path, capsys):
    a = tmp_path / "a.rle"
    a.write_text("a:1,b:1,a:1\n")
    assert run(["solve", str(a), str(a), "--lrs"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--lrs" in err


@pytest.mark.parametrize("command", [["encode"], ["decode"], ["solve", "--lrs"]])
def test_missing_input_file_exit_code(tmp_path, capsys, command):
    missing = tmp_path / "missing.rle"
    assert run(command[:1] + [str(missing)] + command[1:]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "missing.rle" in err


@pytest.mark.parametrize("command", [["decode"], ["solve", "--lrs"]])
def test_non_utf8_rle_text_exit_code(tmp_path, capsys, command):
    bad = tmp_path / "bad.rle"
    bad.write_bytes(b"\xff\xfea:3\n")
    assert run(command[:1] + [str(bad)] + command[1:]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "bad.rle" in err


@pytest.mark.parametrize(
    "text",
    [
        "bogus_key = 1\n",
        "desk_bound = 5\n",  # a removed key is an unknown key
        "grover_factor = abc\n",
        "grover_factor = 0\n",
        "grover_factor = nan\n",
        "step_budget_factor = inf\n",
    ],
)
def test_bad_config_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(text)
    a = tmp_path / "a.rle"
    a.write_text("a:1,b:1,a:1\n")
    assert run(["solve", str(a), "--lrs", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "model.cfg" in err


@pytest.mark.parametrize(
    "texts",
    [
        ["a:9223372036854775808,b:2", "a:3,b:2"],  # A alone overflows int64
        ["a:9223372036854775808,b:2"],  # the same string, solved with --lrs
        ["a:9223372036854775000,b:2"] * 2,  # each fits int64, A $ B does not
    ],
)
def test_solve_decoded_length_bound_exit_code(tmp_path, capsys, texts):
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"in{i}.rle")
        paths[-1].write_text(text + "\n")
    extra = ["--lrs"] if len(paths) == 1 else []
    assert run(["solve", *map(str, paths), *extra]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "2**62" in err


def test_solve_input_with_dollar(tmp_path, capsys):
    a, b = tmp_path / "a.rle", tmp_path / "b.rle"
    a.write_text("a:2,$:1,b:3\n")
    b.write_text("a:2,b:3\n")
    assert run(["solve", str(a), str(b)]) == 0
    assert "d_tilde=3" in capsys.readouterr().out


def test_solve_no_free_separator_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.raw", tmp_path / "b.raw"
    a.write_bytes(bytes(range(0, 256, 2)))
    b.write_bytes(bytes(range(1, 256, 2)))
    assert run(["solve", str(a), str(b), "--format", "raw"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "256 byte values" in err


def test_bad_d_min_exit_code(capsys):
    assert run(["validate-anchors", "--scheme", "exhaustive", "--d-min", "0"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "d_min" in err


_BAD_ARGUMENTS = [
    (["bench", "--n-list", "x"], 1),
    (["bench", "--n-list", "8", "--d-list", "0", "--trials", "1"], 1),
    (["validate-anchors", "--d", "0"], 1),
    (["validate-anchors", "--n-runs", "2", "--d", "8"], 1),
    (["reductions", "--bits", "012"], 1),
    (["reductions", "--bits", ""], 1),
    (["validate-anchors", "--trials", "-1"], 1),
    (["bench", "--n-list", "8", "--d-list", "4", "--trials", "-1"], 1),
    (["reductions", "--exhaustive-upto", "-1"], 1),
    (["bench", "--trials", "x"], 1),
    (["solve", "A", "B", "--mode", "bogus"], 1),
    (["bench", "--bogus"], 1),
    (["reductions", "--bits", "1", "--exhaustive-upto", "2"], 1),
    (["reductions"], 1),
    ([], 1),
    # a 2 001-run walk search, past WALK_RUN_BOUND: a resource limit
    (["bench", "--n-list", "1000", "--d-list", "32", "--mode", "walk", "--trials", "1"], 2),
]


@pytest.mark.parametrize(
    "args, code", _BAD_ARGUMENTS, ids=[f"args{i}" for i in range(len(_BAD_ARGUMENTS))]
)
def test_bad_argument_values_exit_code(capsys, args, code):
    # each value once ended in a traceback, in an empty table and exit 0 (a
    # negative count), in argparse's usage block and exit 2, or in a walk
    # search past the run bound and exit 0; now exit 1 (2 for the resource
    # limit) with a one-line message
    assert run(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    assert "usage:" not in err


def test_bench_columns_and_determinism(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = ["bench", "--n-list", "64,128", "--d-list", "16", "--trials", "2", "--seed", "3"]
    assert run(args + ["--csv-out", str(out1)]) == 0
    assert run(args + ["--csv-out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    rows = list(csv.DictReader(out1.open()))
    assert len(rows) == 4
    assert list(rows[0]) == BENCH_COLUMNS
    assert float(rows[0]["charged_cost"]) > 0


def test_bench_single_cell(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["bench", "--n-list", "64", "--d-list", "8", "--trials", "1", "--csv-out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1


def test_bench_runs_column_counts_merged_runs(tmp_path):
    # seed 0 plants a B side whose junction run merges with its neighbour:
    # 63 runs where 64 were asked for, so A $ B has 128 runs, not 129
    inst = plant_instance(64, 8, 24, 0, verify=False)
    assert (inst.a.n, inst.b.n) == (64, 63)
    out = tmp_path / "runs.csv"
    args = ["bench", "--n-list", "64", "--d-list", "8", "--trials", "2", "--seed", "0"]
    assert run(args + ["--csv-out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["n"], r["runs"]) for r in rows] == [("64", "128"), ("64", "129")]


def test_reductions_exhaustive(capsys):
    assert run(["reductions", "--exhaustive-upto", "6"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out


def test_reductions_single_bits(capsys):
    assert run(["reductions", "--bits", "101"]) == 0
    assert run(["reductions", "--bits", "1"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out


def test_validate_anchors_exhaustive(capsys):
    assert run(["validate-anchors", "--scheme", "exhaustive", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "2/2 valid" in out


def test_validate_anchors_fallback_note(capsys):
    assert run(["validate-anchors", "--scheme", "minimizer", "--d", "4", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "falling back" in out


def test_bench_doubling_ratio(tmp_path):
    # doubling n at fixed d moves the walk charge by roughly 2^(2/3)
    out = tmp_path / "ratio.csv"
    assert run(
        ["bench", "--n-list", "1024,2048", "--d-list", "32", "--trials", "3",
         "--csv-out", str(out)]
    ) == 0
    rows = list(csv.DictReader(out.open()))
    lo = [float(r["charged_cost"]) for r in rows if r["n"] == "1024"]
    hi = [float(r["charged_cost"]) for r in rows if r["n"] == "2048"]
    ratio = (sum(hi) / len(hi)) / (sum(lo) / len(lo))
    assert 1.35 <= ratio <= 1.9  # 2^(2/3) is about 1.59


def test_walk_bench_past_bound_computes_no_cell(monkeypatch, capsys):
    # the grid is checked before any search: the first oversize cell (here
    # n = 800, seed 0, whose planted A $ B has 1 601 runs) ends the command
    # with one line that names it, and no cell is computed
    import rlelcs.cli as cli

    computed = []
    monkeypatch.setattr(cli, "_bench_cell", lambda *cell: computed.append(cell) or {})
    assert run(["bench", "--n-list", "64,800,1024", "--d-list", "32", "--mode", "walk"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "n=800" in err and str(WALK_RUN_BOUND) in err
    assert computed == []
    assert run(["bench", "--n-list", "64,800", "--d-list", "32", "--trials", "1"]) == 0
    assert len(computed) == 2


def test_walk_bench_plants_each_cell_once(monkeypatch, tmp_path):
    # a walk bench computes every cell, and its bound check and search share one planted pair
    import rlelcs.cli as cli

    planted = []
    plant = cli.plant_instance
    monkeypatch.setattr(cli, "plant_instance", lambda *a, **kw: planted.append(a) or plant(*a, **kw))
    out = tmp_path / "walk.csv"
    args = ["bench", "--n-list", "32,64", "--d-list", "8", "--trials", "2", "--mode", "walk"]
    assert run(args + ["--csv-out", str(out)]) == 0
    assert len(planted) == 4 == len(list(csv.DictReader(out.open())))


def test_solve_walk_mode_run_bound_exit_code(tmp_path, capsys):
    # A $ B has WALK_RUN_BOUND + 1 runs: walk mode exits 2, full-set mode solves
    a, b = tmp_path / "a.rle", tmp_path / "b.rle"
    half = WALK_RUN_BOUND // 2
    a.write_text(",".join("ab"[i % 2] + ":1" for i in range(half)) + "\n")
    b.write_text(",".join("ab"[i % 2] + ":2" for i in range(WALK_RUN_BOUND - half)) + "\n")
    assert run(["solve", str(a), str(b), "--mode", "walk"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(WALK_RUN_BOUND) in err
    assert run(["solve", str(a), str(b)]) == 0


# malformed RLE text: tokens with odd chars, escapes and counts, joined by
# odd separators into lines, and non-UTF-8 bytes spliced into the encoding
_COUNTS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", "0", "-0", "+5", " 7", "1_0", "0x1f", "1e3", "3.0", "\u0663", "nan"]),
    st.sampled_from([str(2**62), str(2**63), str(2**64), "9" * 30, "9" * 5000]),
)
_CHARS = st.one_of(
    st.sampled_from(["a", "b", "$", ":", ",", "\\", " ", "\u00e9", "\u4e2d", "ab", ""]),
    st.text(alphabet="\\x0123456789abfgz", max_size=5),
)
# the plain-char tokens and the second kind of line are there so that
# some inputs parse and reach decoding and solving
_TOKENS = st.one_of(
    st.builds(lambda c, n: f"{c}:{n}", st.sampled_from("abc"), _COUNTS),
    st.builds(lambda c, n: f"{c}:{n}", _CHARS, _COUNTS),
    st.text(max_size=6),
)
_LINES = st.lists(
    st.one_of(
        st.builds(
            lambda tokens, sep: sep.join(tokens),
            st.lists(_TOKENS, max_size=8),
            st.sampled_from([",", ",,", ", ", ";", " ", ":", ""]),
        ),
        st.lists(
            st.builds(lambda c, n: f"{c}:{n}", st.sampled_from("ab$\u00e9"), st.integers(1, 9)),
            max_size=8,
        ).map(",".join),
    ),
    max_size=3,
)
_RLE_BYTES = st.one_of(
    st.builds(
        lambda lines, newline: newline.join(lines).encode(),
        _LINES,
        st.sampled_from(["\n", "\r\n", "\n\n", "\r", "\x0b"]),
    ),
    st.builds(
        lambda data, junk, at: data[:at] + junk + data[at:],
        _LINES.map(lambda lines: "\n".join(lines).encode()),
        st.binary(min_size=1, max_size=4),
        st.integers(0, 200),
    ),
)


@settings(max_examples=200, deadline=None)
@given(data=_RLE_BYTES, command=st.sampled_from(["encode", "decode", "solve", "solve --lrs"]))
@example(data=b"a:4611686018427387904\n", command="decode")
@example(data=b"a:99999999999999999999\n", command="decode")
@example(data=b"a:2,b:3\n\nb:2,c:1\n", command="decode")
def test_cli_malformed_rle_exits_cleanly(data, command):
    # every input exits 0, 1 or 2 with at most a one-line message, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.rle", Path(tmp) / "out"
        src.write_bytes(data)
        name, *extra = command.split()
        if name == "solve":
            args = [name, str(src), *([] if extra else [str(src)]), *extra]
            args += ["--json-out", str(out)]
        else:
            args = [name, str(src), "-o", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0), err


# each command's own flags, with the path that flags naming a file always
# take: "@rle" is a tiny valid RLE file, "@cfg" a valid cost-model file and
# "@out" a path in a temporary directory
_HEADS_AND_FLAGS = {
    "encode": ([["@rle"]], ["-h"], [["-o", "@out"]]),
    "decode": ([["@rle"]], ["-h"], [["-o", "@out"]]),
    "solve": (
        [["@rle"], ["@rle", "@rle"]],
        ["-h", "--format", "--mode", "--anchors", "--seed", "--lrs", "--d-min"],
        [["--json-out", "@out"], ["--config", "@cfg"]],
    ),
    # the default n grid takes seconds: every bench vector starts with a small one
    "bench": (
        [["--n-list", "8,16"]],
        ["-h", "--n-list", "--d-list", "--trials", "--seed", "--mode", "--anchors", "--d-min"],
        [["--csv-out", "@out"], ["--config", "@cfg"]],
    ),
    "reductions": ([[]], ["-h", "--bits", "--exhaustive-upto"], [["--config", "@cfg"]]),
    "validate-anchors": (
        [[]],
        ["-h", "--n-runs", "--d", "--scheme", "--seed", "--trials", "--d-min"],
        [["--config", "@cfg"]],
    ),
}
_UNKNOWN_FLAGS = ["--bogus", "-z", "--tri", "--seed=x", "--mode=", "--lrs=1"]
_JUNK_WORDS = ["x", "", "1,2", "-1,a", "a:1", "walk", "minimizer", "raw", "101", "-", "--", "@rle"]


def _argv(command):
    heads, flags, path_flags = _HEADS_AND_FLAGS[command]
    token = st.one_of(
        st.sampled_from(flags + _UNKNOWN_FLAGS + _JUNK_WORDS).map(lambda t: [t]),
        st.integers(-2, 6).map(lambda i: [str(i)]),
        st.sampled_from(path_flags),
    )
    return st.builds(
        lambda head, tokens: [command, *head, *sum(tokens, [])],
        st.sampled_from(heads),
        st.lists(token, max_size=6),
    )


@settings(max_examples=150, deadline=None)
@given(argv=st.sampled_from(sorted(_HEADS_AND_FLAGS)).flatmap(_argv))
def test_cli_argument_vectors_exit_cleanly(argv):
    # every argument vector exits 0-3 with one stderr line on failure, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"@rle": Path(tmp) / "in.rle", "@cfg": Path(tmp) / "model.cfg", "@out": Path(tmp) / "out"}
        paths["@rle"].write_text("a:2,b:1,a:2\n")
        paths["@cfg"].write_text("grover_factor = 2\n")
        args = [str(paths.get(token, token)) for token in argv]
        stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(args)
            except SystemExit as exc:  # -h prints the help and exits 0
                code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (args, code, err)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0), (args, err)


def test_entry_point_process_exit_status():
    # the in-process tests see main's return value; this sees the process's exit status
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def cli(*args):
        cmd = [sys.executable, "-m", "rlelcs.cli", *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    bad = cli("bench", "--trials", "x")
    assert bad.returncode == 1 and len(bad.stderr.splitlines()) == 1, bad.stderr
    assert "--trials" in bad.stderr
    help_ = cli("--help")
    assert help_.returncode == 0 and help_.stdout.startswith("usage: rlelcs"), help_.stderr


def _readme_synopsis() -> dict[str, str]:
    """The README's CLI synopsis, per command: its lines and their continuations, comments cut."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    synopsis, command = {}, None
    for line in block.splitlines():
        if line.startswith("rlelcs "):
            command = line.split()[1]
        if command is not None:
            synopsis[command] = synopsis.get(command, "") + " " + line.split("#")[0]
    return synopsis


def test_readme_synopsis_names_every_option():
    # every option a subcommand defines, in either spelling, and every
    # subcommand appear in the README's CLI synopsis
    synopsis = _readme_synopsis()
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(synopsis) == set(commands.choices)
    missing = [
        (command, action.option_strings)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
        and not set(action.option_strings) & set(re.findall(r"--?\w[\w-]*", synopsis[command]))
    ]
    assert not missing, missing
