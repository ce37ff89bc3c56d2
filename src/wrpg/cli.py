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
import os
import sys
from contextlib import contextmanager, nullcontext
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
# A shape and an agreement fill in every column but _ROW_FIELDS, which
# become "%d".
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
_ROW_FIELDS = ("w", "minvm_oracle", "nearest_count")
_TABLE_CHUNK = 1 << 12  # rows per chunk of a table's text


def _table(sweeps, table_format: str):
    """The rows of every watermark of ``sweeps`` as CSV or JSON text,
    ``_TABLE_CHUNK`` rows per chunk, straight from the arrays.  Each
    distinct shape and agreement fills in a template once, from the
    report of the row that represents the shape, and one ``%`` over a
    chunk's templates writes each row's own cells.  The bytes are those
    of one record per report, ``REPORT_COLUMNS`` to its values, written
    by ``csv.writer`` or ``json.dumps(..., indent=2)``."""
    import numpy as np

    cell, row, between, head, foot = _FORMATS[table_format]
    yield head
    sep = ""
    for sweep in sweeps:
        agrees = (None,) if sweep.agreement is None else (False, True)
        templates = []
        for report in map(sweep.report, sweep.representatives.tolist()):
            shape = report.shape
            templates += [
                row.format(
                    n=sweep.n, shape_case=cell(shape.case), ell=cell(shape.ell),
                    r=cell(shape.r), b_n=cell(shape.last_bit),
                    minvm_closed=cell(report.minvm_closed), agree=cell(agree),
                    strength=cell(report.strength), **dict.fromkeys(_ROW_FIELDS, "%d"),
                )
                for agree in agrees
            ]
        lo, minima = 1 << (sweep.n - 1), sweep.minima
        key = sweep.shape_id.astype(np.intp) * len(agrees)
        if sweep.agreement is not None:
            key += sweep.agreement
        cells = np.stack((np.arange(lo, 2 * lo), minima.minvm, minima.nearest_count), axis=1)
        for start in range(0, lo, _TABLE_CHUNK):
            part = slice(start, start + _TABLE_CHUNK)
            text = between.join([templates[k] for k in key[part].tolist()])
            yield sep + text % tuple(cells[part].ravel().tolist())
            sep = between
    yield foot


@contextmanager
def _outputs(*paths: str):
    """A function ``write(path, chunks)`` that writes text chunks to one
    of ``paths``.  Every path is opened for appending first, so that an
    unwritable one is refused before any is written, and each file is
    truncated only when it is written.  Two paths that name one file are
    refused once both are open, as the later write would replace the
    earlier.  When the work fails, or a later path cannot be opened or
    is refused, each file that this created is removed again, and a file
    that was there before keeps its bytes."""
    created = []

    def write(path: str, chunks) -> None:
        with open(path, "w", encoding="utf-8") as file:
            file.writelines(chunks)

    try:
        for i, path in enumerate(paths):
            new = not os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if new:
                created.append(path)
            for other in paths[:i]:
                if os.path.samefile(other, path):
                    raise ValueError(f"'{other}' and '{path}' are one file")
        yield write
    except BaseException:
        for path in created:
            os.remove(path)
        raise


@contextmanager
def _table_out(out: str | None):
    """A function that writes a sweep's table, given as text chunks, to
    stdout or, through :func:`_outputs`, to the file ``out``, which is
    opened before the sweep and written after it has succeeded."""
    if out is None:
        yield sys.stdout.writelines
        return
    with _outputs(out) as write:
        yield lambda chunks: write(out, chunks)


def _cmd_encode(args) -> int:
    permutation, _ = encode_w_to_sip(args.w)
    graph = encode_sip_to_rpg(permutation)
    out_path = args.out if args.out is not None else f"f{args.w}.json"
    dot = () if args.dot is None else (args.dot,)
    with _outputs(out_path, *dot) as write:
        save_graph(graph, out_path)
        for path in dot:
            write(path, [graph_to_dot(graph)])
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
    with _table_out(args.out) as write:
        write(_table([_survey(args.bits, args.cap_override)], args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _table_out(args.out) if args.out is not None else nullcontext() as write:
        result = verify_theorem(args.bits_min, args.bits_max, cap=args.cap_override)
        if write is not None:
            write(_table(result._sweeps, args.format))
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
