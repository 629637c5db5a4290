import csv
import json

import pytest

from rlelcs.cli import BENCH_COLUMNS, main


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


def test_bad_d_min_exit_code(capsys):
    assert run(["validate-anchors", "--scheme", "exhaustive", "--d-min", "0"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "d_min" in err


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
