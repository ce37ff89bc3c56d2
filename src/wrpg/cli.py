"""Command-line front end.

Exit codes: 0 success/valid, 2 false-incorrect graph detected,
3 invalid input or arguments, 4 closed-form/oracle mismatch found by
``verify-theorem``.  All output is deterministic: same inputs and flags
produce the same bytes.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .errors import GraphFormatError
from .integrity import CHECK_NAMES, apply_edge_edits, classify_graph, parse_edits
from .resilience import (
    DEFAULT_CAP,
    REPORT_COLUMNS,
    ResilienceReport,
    analyze_watermark,
    report_record,
    survey_range,
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


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 instead of argparse's default 2
        raise _CliInputError(message)


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
    analyze.add_argument("--cap-override", type=int, default=None, metavar="BITS",
                         help=f"raise the enumeration cap (default {DEFAULT_CAP})")

    survey = sub.add_parser("survey", help="resilience table for a whole bit-length")
    survey.add_argument("--bits", type=int, required=True)
    survey.add_argument("--format", choices=("csv", "json"), default="csv")
    survey.add_argument("--out", help="write the table here instead of stdout")
    survey.add_argument("--cap-override", type=int, default=None, metavar="BITS")

    verify = sub.add_parser(
        "verify-theorem",
        help="sweep a bit-length range, comparing closed form with the oracle",
    )
    verify.add_argument("--bits-min", type=int, required=True)
    verify.add_argument("--bits-max", type=int, required=True)
    verify.add_argument("--format", choices=("csv", "json"), default="csv")
    verify.add_argument("--out", help="write the per-watermark rows here")
    verify.add_argument("--cap-override", type=int, default=None, metavar="BITS")

    return parser


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _rows_csv(reports) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for report in reports:
        record = report_record(report)
        writer.writerow([_cell(record[column]) for column in REPORT_COLUMNS])
    return buffer.getvalue()


def _rows_json(reports) -> str:
    return json.dumps([report_record(r) for r in reports], indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cap(args) -> int:
    return args.cap_override if args.cap_override is not None else DEFAULT_CAP


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
    _print_report(analyze_watermark(args.w, cap=_cap(args)))
    return EXIT_OK


def _cmd_survey(args) -> int:
    reports = survey_range(args.bits, cap=_cap(args))
    text = _rows_csv(reports) if args.format == "csv" else _rows_json(reports)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = verify_theorem(args.bits_min, args.bits_max, cap=_cap(args))
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
    if args.out:
        text = _rows_csv(result.reports) if args.format == "csv" else _rows_json(result.reports)
        _emit(text, args.out)
    total = len(result.reports)
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
    except (_CliInputError, GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:
    sys.exit(main())
