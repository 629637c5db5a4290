"""Command-line surface: instance I/O, solving, benchmarks, reductions.

Exit codes: 0 success (including a null result), 1 parse or input error
(a malformed flag too), 2 resource limit, 3 internal inconsistency or
reduction mismatch.  Only :func:`main` turns an error into its exit code
and one stderr line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .anchors import AnchorScheme, validate_anchor_set
from .qmodel import CostModel, OracleHandle, QueryLedger, WalkMode
from .reductions import gadget_dl, parity_via_dl, parity_via_el
from .reference import ParameterError, ResourceLimitError, brute_lcs, plant_instance
from .rle import (
    NoSeparatorError,
    ParseError,
    RleString,
    concat_sep,
    decode,
    encode,
    format_rle,
    parse_rle,
)
from .walk import (
    DecodedLengthError,
    InternalInconsistencyError,
    SolverConfig,
    WalkSizeError,
    check_walk_size,
    inner_search,
    make_context,
    scale_anchors,
    solve_lcs_rle_p,
    solve_lrs,
)

EXIT_OK = 0
EXIT_PARSE = 1  # also unreadable input files and unusable argument combinations
EXIT_RESOURCE = 2
EXIT_INCONSISTENT = 3

# decode writes at most this many bytes; it materializes its whole output
DECODE_BOUND = 1 << 30


def _load_model(args) -> CostModel:
    model = CostModel()
    if args.config:
        try:
            model = CostModel.from_file(args.config)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{args.config}: {exc.args[0]}") from exc
    if args.d_min is not None:
        try:
            model = dataclasses.replace(model, d_min=args.d_min)
        except ValueError as exc:
            raise ParseError(f"--d-min: {exc}") from exc
    return model


def _read_text(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _read_rle_file(path: str, raw: bool) -> RleString:
    if raw:
        return encode(Path(path).read_bytes())
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if len(lines) > 1:
        raise ParseError(f"{path}: expected one RLE string per file, found {len(lines)} lines")
    return parse_rle(lines[0]) if lines else RleString(())


def cmd_encode(args) -> int:
    data = Path(args.input).read_bytes()
    line = format_rle(encode(data))
    if args.output:
        Path(args.output).write_text(line + "\n")
    else:
        sys.stdout.write(line + "\n")
    return EXIT_OK


def cmd_decode(args) -> int:
    text = _read_text(args.input)
    strings = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            strings.append(parse_rle(line))
        except ParseError as exc:
            raise ParseError(f"{args.input}:{lineno}: {exc}") from exc
    total = sum(s.total for s in strings)
    if total > DECODE_BOUND:
        raise ResourceLimitError(f"decoding gives {total} bytes, over {DECODE_BOUND}")
    blob = b"".join(decode(s) for s in strings)
    if args.output:
        Path(args.output).write_bytes(blob)
    else:
        sys.stdout.buffer.write(blob)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.lrs and args.b:
        raise ParseError("solve --lrs takes one input, got two")
    if not args.lrs and not args.b:
        raise ParseError("solve needs two inputs unless --lrs is given")
    model = _load_model(args)
    ledger = QueryLedger()
    a = OracleHandle(_read_rle_file(args.a, args.format == "raw"), ledger)
    config = SolverConfig(
        mode=WalkMode(args.mode),
        anchors=AnchorScheme(args.anchors),
        seed=args.seed,
        model=model,
    )
    if args.lrs:
        ans = solve_lrs(a, config)
    else:
        b = OracleHandle(_read_rle_file(args.b, args.format == "raw"), ledger)
        ans = solve_lcs_rle_p(a, b, config)
    payload = {
        "result": ans.as_json() if ans is not None else None,
        "ledger": ledger.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.json_out:
        Path(args.json_out).write_text(blob)
    if args.mode == "costonly":
        print(f"cost-only run: charged {ledger.charged_cost:.3f}")
    elif ans is None:
        print("no common substring")
    else:
        print(
            f"d_tilde={ans.d_tilde} ell={ans.ell} i_A={ans.i_A} i_B={ans.i_B} "
            f"start_A={ans.decoded_start_A} start_B={ans.decoded_start_B}"
        )
    if not args.json_out:
        sys.stdout.write(blob)
    return EXIT_OK


def _plant_cell(n: int, d: int, seed: int, mode: WalkMode) -> tuple:
    """A bench cell with its planted length and A $ B, checked against the walk-mode run bound."""
    inst = plant_instance(n, d, 3 * d, seed, verify=False)
    s, sep = concat_sep(inst.a, inst.b)
    try:
        check_walk_size(mode, s.n)
    except WalkSizeError as exc:
        raise WalkSizeError(f"bench cell n={n} d={d} seed={seed}: {exc}") from None
    return n, d, seed, inst.d_tilde, s, sep


def _bench_cell(cell: tuple, mode: WalkMode, scheme: AnchorScheme, model: CostModel):
    n, d, seed, d_tilde, s, sep = cell  # as _plant_cell returns it
    ledger = QueryLedger()
    anchors = scale_anchors(s, d, scheme, seed, model)
    inner_search(make_context(OracleHandle(s, ledger), anchors, sep, model), d_tilde, mode=mode)
    return {
        "n": n,
        "runs": s.n,
        "d": d,
        "d_tilde": d_tilde,
        "mode": mode.value,
        "charged_cost": ledger.charged_cost,
        "run_q": ledger.run_queries,
        "prefix_q": ledger.prefix_queries,
        "seed": seed,
    }


BENCH_COLUMNS = ["n", "runs", "d", "d_tilde", "mode", "charged_cost", "run_q", "prefix_q", "seed"]


def cmd_bench(args) -> int:
    model = _load_model(args)
    mode = WalkMode(args.mode)
    scheme = AnchorScheme(args.anchors)
    grid = [(n, d) for n in args.n_list for d in args.d_list if d <= n]
    # every cell is planted and checked before any search: an oversize one fails at once
    cells = [_plant_cell(n, d, args.seed + t, mode) for n, d in grid for t in range(args.trials)]
    rows = [_bench_cell(cell, mode, scheme, model) for cell in cells]
    with (
        open(args.csv_out, "w", newline="") if args.csv_out else contextlib.nullcontext(sys.stdout)
    ) as out:
        writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    if args.csv_out:
        print(f"wrote {len(rows)} rows to {args.csv_out}")
    return EXIT_OK


def cmd_reductions(args) -> int:
    def dl_solver(x, y):
        return brute_lcs(x, y).length

    def el_solver(x, y):
        return brute_lcs(x, y).encoded_length

    if args.bits is not None:
        if not args.bits or set(args.bits) - {"0", "1"}:
            raise ParseError(f"--bits: expected a non-empty string of 0s and 1s, got {args.bits!r}")
        cases = [[int(c) for c in args.bits]]
    else:
        cases = []
        for n in range(1, args.exhaustive_upto + 1):
            for mask in range(2**n):
                cases.append([(mask >> i) & 1 for i in range(n)])
    mismatches = 0
    rows = []
    for bits in cases:
        expected = sum(bits) % 2
        via_dl = parity_via_dl(bits, dl_solver)
        via_el = parity_via_el(bits, el_solver)
        ok = via_dl == expected and via_el.parity == expected
        mismatches += not ok
        rows.append((bits, via_dl, via_el, expected, ok))
    if args.bits is not None or len(rows) <= 32:
        print("bits            gadget decoded  dl  el  k'  calls verdict")
        for bits, via_dl, via_el, expected, ok in rows:
            gadget = gadget_dl(bits)
            print(
                f"{''.join(map(str, bits)):<15} {gadget.total:<15} {via_dl:<3} "
                f"{via_el.parity:<3} {via_el.k_prime:<3} {via_el.solver_calls:<5} "
                f"{'ok' if ok else 'MISMATCH'}"
            )
    print(f"{len(rows)} cases, {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_INCONSISTENT


def cmd_validate_anchors(args) -> int:
    model = _load_model(args)
    scheme = AnchorScheme(args.scheme)
    valid, noted = 0, False
    for t in range(args.trials):
        seed = args.seed + t
        inst = plant_instance(args.n_runs, args.d, args.d * 2, seed)
        s, sep = concat_sep(inst.a, inst.b)
        anchors = scale_anchors(s, args.d, scheme, seed, model)
        if anchors.scheme is not scheme and not noted:
            print(f"d={args.d} below d_min={model.d_min}: falling back to exhaustive anchors")
            noted = True
        ok, witness = validate_anchor_set(anchors, s, sep)
        valid += ok
        verdict = "valid" if ok else f"INVALID witness={witness}"
        print(f"seed={seed} m={anchors.m} d={args.d} scheme={anchors.scheme.value}: {verdict}")
    print(f"{valid}/{args.trials} valid")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    """Value of a count flag: an integer >= 0."""
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")


def _int_list(text: str) -> list[int]:
    """Value of a list flag: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        msg = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def build_parser() -> argparse.ArgumentParser:
    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--config", help="key=value cost-model file")
    model_flags.add_argument("--d-min", type=int)
    parser = _Parser(
        prog="rlelcs",
        description="Longest common substring between run-length encoded strings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="raw bytes to RLE text")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="RLE text to raw bytes")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser(
        "solve", parents=[model_flags], help="solve an LCS (or repeated-substring) instance"
    )
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--format", choices=["rle", "raw"], default="rle")
    p.add_argument("--mode", choices=[m.value for m in WalkMode], default="fullset")
    p.add_argument("--anchors", choices=[s.value for s in AnchorScheme], default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lrs", action="store_true", help="longest repeated substring of one input")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "bench", parents=[model_flags], help="ledger-scaling grid over planted instances"
    )
    p.add_argument("--n-list", type=_int_list, default="256,512,1024,2048,4096,8192,16384")
    p.add_argument("--d-list", type=_int_list, default="32")
    p.add_argument("--trials", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[m.value for m in WalkMode], default="costonly")
    p.add_argument("--anchors", choices=[s.value for s in AnchorScheme], default="minimizer")
    p.add_argument("--csv-out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("reductions", help="parity reductions against brute oracles")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bits")
    group.add_argument("--exhaustive-upto", type=_count)
    p.set_defaults(func=cmd_reductions)

    p = sub.add_parser(
        "validate-anchors",
        parents=[model_flags],
        help="check the anchoring property on planted instances",
    )
    p.add_argument("--n-runs", type=int, default=24)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--scheme", choices=[s.value for s in AnchorScheme], default="minimizer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_count, default=1)
    p.set_defaults(func=cmd_validate_anchors)

    return parser


def main(argv=None) -> int:
    """Run one command; the only place an error becomes an exit code and a stderr line."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DecodedLengthError, NoSeparatorError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimitError, WalkSizeError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
