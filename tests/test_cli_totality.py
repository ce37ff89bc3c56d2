"""Every command of the CLI ends with exit 0, 2, 3 or 4, whatever its
input: an exit 5 or an exception that escapes ``main`` is a bug in wrpg.
``derandomize=True`` makes every run draw the same examples."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from wrpg.cli import main
from wrpg.rpg import encode_sip_to_rpg, graph_to_json
from wrpg.sip import encode_w_to_sip

# Far past any table: a sweep of these bit-lengths is refused before any
# work, and analyze answers them by its bounded search or refuses them.
# Sweeps draw other bit-lengths only up to 12, so each example is quick.
HUGE = (2**14 + 1, 2**20 + 1, 2**40 + 1, 2**70 + 1, 2**200 + 1, 10**5)


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# argparse reads a word that starts with "-" as an option, and "-h" as a
# request for help, which exits through SystemExit; every option below
# is passed as "--name=value", so only positionals avoid that prefix.
WORDS = st.text(max_size=12).filter(lambda text: not _is_int(text))
POSITIONAL_WORDS = WORDS.filter(lambda text: not text.startswith("-"))


def integers(top: int):
    return st.one_of(st.integers(-2, top), st.sampled_from(HUGE)).map(str)


WATERMARKS = integers(40) | POSITIONAL_WORDS


def numbers(top: int):
    return integers(top) | WORDS


CODEWORD_27 = graph_to_json(encode_sip_to_rpg(encode_w_to_sip(27)[0]))
ODD_VALUES = st.one_of(
    st.booleans(), st.none(), st.floats(), st.integers(-3, 40), st.sampled_from(HUGE)
)


def payloads(back_edges):
    """27's graph file with other back edges."""
    header = {"version": 1, "n": 5, "nstar": 11}
    return back_edges.map(lambda edges: json.dumps({**header, "back_edges": edges}))


GRAPH_TEXTS = st.one_of(
    st.just(CODEWORD_27),
    payloads(st.lists(st.integers(0, 13), min_size=11, max_size=11)),
    payloads(st.lists(ODD_VALUES, max_size=13)),
    st.text(max_size=40),
)
EDITS = st.one_of(
    st.lists(st.tuples(integers(40), integers(40)).map(":".join), max_size=3).map(",".join),
    st.text(max_size=20),
)
PATHS = st.sampled_from(["out.json", "missing/out.json", ".", "graph.json"])
FILES = st.sampled_from(["graph.json", "missing.json", "."])
FORMATS = st.sampled_from(["csv", "json"]) | WORDS


def _flags(options: dict) -> list[str]:
    return [f"--{key}" if value is None else f"--{key}={value}" for key, value in options.items()]


def command(name: str, positionals=(), required=None, optional=None):
    """``[name, *positionals, --option=value ...]``; a None value is a flag."""
    options = st.fixed_dictionaries(required or {}, optional=optional or {})
    return st.tuples(st.tuples(*positionals), options).map(
        lambda drawn: [name, *drawn[0], *_flags(drawn[1])]
    )


SWEEP_OPTIONS = {"format": FORMATS, "out": PATHS, "cap-override": numbers(40)}
# (argv, text of graph.json); only the commands that read it draw the text
RUNS = st.one_of(
    st.tuples(
        st.one_of(
            command("decode", [FILES]),
            command("classify", [FILES]),
            command("attack", [FILES], optional={"edits": EDITS, "out": PATHS}),
        ),
        GRAPH_TEXTS,
    ),
    st.tuples(
        st.one_of(
            command(
                "encode",
                [WATERMARKS],
                optional={"out": PATHS, "dot": PATHS, "show-sip": st.none()},
            ),
            command("analyze", [WATERMARKS], optional={"cap-override": numbers(40)}),
            command("survey", required={"bits": numbers(12)}, optional=SWEEP_OPTIONS),
            command(
                "verify-theorem",
                required={"bits-min": numbers(12), "bits-max": numbers(12)},
                optional=SWEEP_OPTIONS,
            ),
        ),
        st.just(CODEWORD_27),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(RUNS)
def test_every_command_exits_with_a_documented_code(run):
    argv, graph_text = run
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with open("graph.json", "w", encoding="utf-8") as file:
                file.write(graph_text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(home)
    assert code in {0, 2, 3, 4}, (argv, graph_text, err.getvalue())
