"""Command-line front end.

Exit codes: 0 success/valid, 2 false-incorrect graph detected,
3 invalid input or arguments, 4 closed-form/oracle mismatch found by
``verify-theorem``, 5 internal invariant failure (a bug in wrpg, e.g.
the oracle exceeding the closed form; reported as ``internal error:``
on stderr, without a traceback).  All output is deterministic: same
inputs and flags produce the same bytes.
"""

import argparse
import json
import sys
from pathlib import Path

from .errors import InternalInvariantError
from .integrity import CHECK_NAMES, apply_edge_edits, classify_graph, parse_edits
from .resilience import (
    DEFAULT_CAP,
    ResilienceReport,
    _survey,
    analyze_watermark,
    verify_theorem,
)
from .rpg import (
    encode_sip_to_rpg,
    graph_distance,
    graph_to_dot,
    load_graph,
    save_graph,
)
from .sip import encode_w_to_sip

EXIT_OK = 0
EXIT_FALSE_INCORRECT = 2
EXIT_BAD_INPUT = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 instead of argparse's default 2
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="wrpg",
        description="Encode, attack and analyze watermark flow-graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="encode a watermark as a graph file")
    encode.add_argument("w", type=int, help="watermark integer (>= 2)")
    encode.add_argument("--out", help="graph file path (default f<w>.json)")
    encode.add_argument("--dot", help="also write a DOT rendering here")
    encode.add_argument("--show-sip", action="store_true", help="print the permutation")

    decode = sub.add_parser("decode", help="extract and validate a graph file")
    decode.add_argument("file")

    classify = sub.add_parser("classify", help="per-check validity report of a graph file")
    classify.add_argument("file")

    attack = sub.add_parser("attack", help="retarget back edges of a graph file")
    attack.add_argument("file")
    attack.add_argument("--edits", default="", help="comma list of source:new_target pairs")
    attack.add_argument("--out", help="output path (default <input>.attacked.json)")

    analyze = sub.add_parser("analyze", help="resilience report for one watermark")
    analyze.add_argument("w", type=int)
    analyze.add_argument("--cap-override", type=int, default=DEFAULT_CAP, metavar="BITS",
                         help=f"raise the enumeration cap (default {DEFAULT_CAP})")

    survey = sub.add_parser("survey", help="resilience table for a whole bit-length")
    survey.add_argument("--bits", type=int, required=True)
    survey.add_argument("--format", choices=("csv", "json"), default="csv")
    survey.add_argument("--out", help="write the table here instead of stdout")
    survey.add_argument("--cap-override", type=int, default=DEFAULT_CAP, metavar="BITS")

    verify = sub.add_parser(
        "verify-theorem",
        help="sweep a bit-length range, comparing closed form with the oracle",
    )
    verify.add_argument("--bits-min", type=int, required=True)
    verify.add_argument("--bits-max", type=int, required=True)
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument("--out", help="write the per-watermark rows here")
    verify.add_argument("--cap-override", type=int, default=DEFAULT_CAP, metavar="BITS")

    return parser


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


REPORT_COLUMNS = (
    "n",
    "w",
    "shape_case",
    "ell",
    "r",
    "b_n",
    "minvm_closed",
    "minvm_oracle",
    "agree",
    "nearest_count",
    "strength",
)

# Per table format: how a value is written, one row in REPORT_COLUMNS
# order, the text between rows, and the text before and after them.
# A shape fills in every column but _ROW_FIELDS, which become "%s".
_FORMATS = {
    "csv": (
        _cell,
        ",".join(f"{{{column}}}" for column in REPORT_COLUMNS) + "\n",
        "",
        ",".join(REPORT_COLUMNS) + "\n",
        "",
    ),
    "json": (
        json.dumps,
        "  {{\n" + ",\n".join(f'    "{column}": {{{column}}}' for column in REPORT_COLUMNS)
        + "\n  }}",
        ",\n",
        "[\n",
        "\n]\n",
    ),
}
_ROW_FIELDS = ("w", "minvm_oracle", "agree", "nearest_count")


def _table(sweeps, table_format: str):
    """The rows of every watermark of ``sweeps`` as CSV or JSON text, a
    chunk per bit-length, straight from the arrays: each distinct shape
    fills in its columns once, from the report of the row that
    represents it, and each row only its own.  The bytes are those of
    one record per report, ``REPORT_COLUMNS`` to its values, written by
    ``csv.writer`` or ``json.dumps(..., indent=2)``."""
    cell, row, between, head, foot = _FORMATS[table_format]
    agree_cell = {value: cell(value) for value in (None, True, False)}
    yield head
    for i, sweep in enumerate(sweeps):
        shape_rows = []
        for report in map(sweep.report, sweep.representatives.tolist()):
            shape = report.shape
            shape_rows.append(row.format(
                n=sweep.n, shape_case=cell(shape.case), ell=cell(shape.ell), r=cell(shape.r),
                b_n=cell(shape.last_bit), minvm_closed=cell(report.minvm_closed),
                strength=cell(report.strength), **dict.fromkeys(_ROW_FIELDS, "%s"),
            ))
        lo, minima = 1 << (sweep.n - 1), sweep.minima
        agree = [None] * lo if sweep.agreement is None else sweep.agreement.tolist()
        rows = [
            shape_rows[s] % (w, oracle, agree_cell[a], count)
            for w, s, oracle, a, count in zip(
                range(lo, 2 * lo),
                sweep.shape_id.tolist(),
                minima.minvm.tolist(),
                agree,
                minima.nearest_count.tolist(),
            )
        ]
        yield (between if i else "") + between.join(rows)
    yield foot


def _emit(chunks, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as file:
            file.writelines(chunks)


def _cmd_encode(args) -> int:
    permutation, _ = encode_w_to_sip(args.w)
    graph = encode_sip_to_rpg(permutation)
    out_path = args.out if args.out is not None else f"f{args.w}.json"
    save_graph(graph, out_path)
    if args.dot:
        Path(args.dot).write_text(graph_to_dot(graph), encoding="ascii")
    if args.show_sip:
        print(permutation.one_line())
    return EXIT_OK


def _cmd_decode(args) -> int:
    report = classify_graph(load_graph(args.file))
    if report.valid:
        print(f"VALID w={report.watermark}")
        return EXIT_OK
    print(f"FALSE-INCORRECT failed={','.join(report.failed_checks())}")
    return EXIT_FALSE_INCORRECT


def _cmd_classify(args) -> int:
    report = classify_graph(load_graph(args.file))
    for name in CHECK_NAMES:
        state = report.checks[name]
        word = "pass" if state else "skipped" if state is None else "fail"
        print(f"{name}: {word}")
    if report.valid:
        print(f"verdict: VALID w={report.watermark}")
        return EXIT_OK
    print("verdict: FALSE-INCORRECT")
    for reason in report.reasons:
        print(f"reason: {reason}")
    return EXIT_FALSE_INCORRECT


def _cmd_attack(args) -> int:
    graph = load_graph(args.file)
    edits = parse_edits(args.edits)
    attacked = apply_edge_edits(graph, edits)
    source = Path(args.file)
    out_path = args.out if args.out is not None else str(
        source.with_name(source.stem + ".attacked.json")
    )
    save_graph(attacked, out_path)
    print(f"distance {graph_distance(graph, attacked)}")
    return EXIT_OK


def _print_report(report: ResilienceReport) -> None:
    shape = report.shape
    print(
        f"w={report.w} n={report.n} case={shape.case} "
        f"ell={_cell(shape.ell)} r={_cell(shape.r)} last_bit={_cell(shape.last_bit)}"
    )
    print(f"minvm_closed={_cell(report.minvm_closed)}")
    print(f"minvm_oracle={report.minvm_oracle}")
    print(f"agreement={_cell(report.agreement)}")
    print(f"nearest={','.join(str(w) for w in report.nearest)}")
    print(f"nearest_count={len(report.nearest)}")
    print(f"strength={_cell(report.strength)}")
    if report.minvm_closed is None:
        print("note=closed-form analysis requires bit-length >= 4")


def _cmd_analyze(args) -> int:
    _print_report(analyze_watermark(args.w, cap=args.cap_override))
    return EXIT_OK


def _cmd_survey(args) -> int:
    _emit(_table([_survey(args.bits, args.cap_override)], args.format), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = verify_theorem(args.bits_min, args.bits_max, cap=args.cap_override)
    if args.out:
        _emit(_table(result._sweeps, args.format), args.out)
    for s in result.summaries:
        print(
            f"n={s.n} watermarks={s.count} max_minvm={s.max_minvm} "
            f"argmax_count={len(s.argmax)} strong={s.strong} "
            f"strong_in_argmax={_cell(s.strong_in_argmax)} "
            f"strong_min_nearest={_cell(s.strong_has_min_nearest)} "
            f"argmax_unique={_cell(s.argmax_unique)} mismatches={s.mismatches}"
        )
    for report in result.mismatches:
        print(
            f"MISMATCH n={report.n} w={report.w} closed={report.minvm_closed} "
            f"oracle={report.minvm_oracle} "
            f"nearest={','.join(str(w) for w in report.nearest)}"
        )
    total = sum(s.count for s in result.summaries)
    if result.ok:
        print(f"verified {total} watermarks: OK")
        return EXIT_OK
    print(f"verified {total} watermarks: {len(result.mismatches)} mismatches")
    return EXIT_MISMATCH


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "classify": _cmd_classify,
    "attack": _cmd_attack,
    "analyze": _cmd_analyze,
    "survey": _cmd_survey,
    "verify-theorem": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())
