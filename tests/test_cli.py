import hashlib
import json
import re
import subprocess
import sys

import pytest
import reference_sweep

import wrpg.resilience as resilience
from wrpg.cli import main
from wrpg.errors import (
    GraphFormatError,
    InternalInvariantError,
    ResourceBoundError,
    SipInvariantError,
)
from wrpg.integrity import EdgeEdit, apply_edge_edits
from wrpg.rpg import ReduciblePermutationGraph, graph_to_json, load_graph
from wrpg.sip import SelfInvertingPermutation, bit_shape

ENCODED_12 = (
    '{"version": 1, "n": 4, "nstar": 9, '
    '"back_edges": [8, 8, 4, 7, 10, 10, 8, 9, 10]}\n'
)
ENCODED_7 = '{"version": 1, "n": 3, "nstar": 7, "back_edges": [6, 6, 6, 8, 8, 8, 8]}\n'


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_encode_show_sip(workdir, capsys):
    assert main(["encode", "12", "--show-sip"]) == 0
    assert capsys.readouterr().out == "5 6 9 8 1 2 7 4 3\n"
    assert (workdir / "f12.json").read_text() == ENCODED_12


def test_encode_seven_graph_file(workdir):
    assert main(["encode", "7"]) == 0
    assert (workdir / "f7.json").read_text() == ENCODED_7


def test_encode_rejects_below_domain(workdir, capsys):
    assert main(["encode", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_encode_rejects_non_integer(workdir, capsys):
    assert main(["encode", "twelve"]) == 3


def test_encode_dot_export(workdir):
    assert main(["encode", "7", "--dot", "f7.dot"]) == 0
    dot = (workdir / "f7.dot").read_text()
    assert dot.startswith("digraph")
    assert "u4 -> s [style=dashed];" in dot


@pytest.mark.parametrize("dot", ["", "missing/f27.dot"])
def test_encode_writes_no_file_when_an_output_cannot_be_opened(workdir, capsys, dot):
    assert main(["encode", "27", "--dot", dot]) == 3
    assert not (workdir / "f27.json").exists()
    (workdir / "f27.json").write_text("earlier")
    assert main(["encode", "27", "--dot", dot]) == 3
    assert (workdir / "f27.json").read_text() == "earlier"
    assert capsys.readouterr().err.count(f"'{dot}'") == 2


@pytest.mark.parametrize("dot", ["same.json", "./same.json"])
def test_encode_refuses_a_dot_file_that_is_its_graph_file(workdir, capsys, dot):
    assert main(["encode", "12", "--out", "same.json", "--dot", dot]) == 3
    assert capsys.readouterr().err == f"error: 'same.json' and '{dot}' are one file\n"
    assert not (workdir / "same.json").exists()
    (workdir / "same.json").write_text("earlier")
    assert main(["encode", "12", "--out", "same.json", "--dot", dot]) == 3
    assert (workdir / "same.json").read_text() == "earlier"


@pytest.mark.parametrize(
    "argv", [["encode", "27", "--out", ""], ["attack", "f27.json", "--out", ""]],
    ids=["encode", "attack"],
)
def test_an_empty_out_is_named_as_given(workdir, capsys, argv):
    main(["encode", "27"])
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"


def test_decode_valid_file(workdir, capsys):
    main(["encode", "12"])
    assert main(["decode", "f12.json"]) == 0
    assert capsys.readouterr().out == "VALID w=12\n"


def test_decode_attacked_file(workdir, capsys):
    main(["encode", "12"])
    assert main(["attack", "f12.json", "--edits", "3:5"]) == 0
    assert capsys.readouterr().out == "distance 1\n"
    assert main(["decode", "f12.attacked.json"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FALSE-INCORRECT failed=")
    assert "involution" in out


def test_decode_malformed_file(workdir, capsys):
    (workdir / "bad.json").write_text('{"version": 1, "n": 4')
    assert main(["decode", "bad.json"]) == 3
    assert main(["decode", "missing.json"]) == 3


def test_attack_reproduces_another_codeword(workdir):
    main(["encode", "5"])
    main(["encode", "4"])
    assert main(["attack", "f5.json", "--edits", "6:7,1:6,5:6,2:3", "--out", "g.json"]) == 0
    assert (workdir / "g.json").read_bytes() == (workdir / "f4.json").read_bytes()


def test_attack_with_no_edits_copies_the_graph(workdir, capsys):
    main(["encode", "12"])
    assert main(["attack", "f12.json", "--edits", ""]) == 0
    assert capsys.readouterr().out == "distance 0\n"
    assert (workdir / "f12.attacked.json").read_text() == ENCODED_12


def test_attack_prints_the_distance_for_more_edits_than_nodes(workdir, capsys):
    main(["encode", "12"])
    capsys.readouterr()
    edits = "3:5,3:6,3:7,3:8,3:9,3:10,3:4,3:3,3:2,3:8"  # ten edits, nine nodes
    assert main(["attack", "f12.json", "--edits", edits]) == 0
    assert capsys.readouterr().out == "distance 1\n"


def test_attack_rejects_out_of_range_source(workdir, capsys):
    main(["encode", "12"])
    assert main(["attack", "f12.json", "--edits", "10:11"]) == 3
    assert main(["attack", "f12.json", "--edits", "0:4"]) == 3
    assert main(["attack", "f12.json", "--edits", "nonsense"]) == 3


def test_classify_valid_and_tampered(workdir, capsys):
    main(["encode", "12"])
    assert main(["classify", "f12.json"]) == 0
    out = capsys.readouterr().out
    assert "involution: pass" in out
    assert out.rstrip().endswith("verdict: VALID w=12")
    main(["attack", "f12.json", "--edits", "3:2"])
    capsys.readouterr()
    assert main(["classify", "f12.attacked.json"]) == 2
    out = capsys.readouterr().out
    assert "range_odd_length: fail" in out
    assert "involution: skipped" in out
    assert "verdict: FALSE-INCORRECT" in out


def test_analyze_strong_watermark(workdir, capsys):
    assert main(["analyze", "27"]) == 0
    out = capsys.readouterr().out
    assert "w=27 n=5 case=Case2 ell=1 r=1 last_bit=1" in out
    assert "minvm_closed=5" in out
    assert "minvm_oracle=5" in out
    assert "agreement=true" in out
    assert "strength=Strong" in out


def test_analyze_below_theorem_range(workdir, capsys):
    assert main(["analyze", "5"]) == 0
    out = capsys.readouterr().out
    assert "minvm_closed=\n" in out
    assert "nearest=4,6,7" in out
    assert "note=closed-form analysis requires bit-length >= 4" in out


def test_analyze_beyond_cap(workdir, capsys):
    assert main(["analyze", str(1 << 20)]) == 3
    assert main(["analyze", str(1 << 20), "--cap-override", "15"]) == 3


def test_analyze_rejects_a_table_beyond_physical_memory(workdir, capsys):
    # the 41-bit table has 2^40 rows of 83 one-byte targets
    assert main(["analyze", str(1 << 40), "--cap-override", "64"]) == 3
    err = capsys.readouterr().err
    assert f"error: the 41-bit table needs {(1 << 40) * 83} bytes" in err
    assert "bytes of physical memory" in err


def decode_a_binary_file(workdir, monkeypatch):
    (workdir / "binary.json").write_bytes(b"\xff\xfe{}")
    return main(["decode", "binary.json"])


def analyze_without_a_memory_figure(workdir, monkeypatch):
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: None)
    code = main(["analyze", str(STRONG_14)])
    assert resilience._encoded_range.cache_info().currsize == 1  # the table was built
    return code


def without_a_memory_figure(call):
    """``call`` with no memory figure, so only the 64-bit bound checks a
    table.  A table the allocator accepts lazily fails the test at its
    first chunk instead of being filled."""

    def run(workdir, monkeypatch):
        monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: None)
        monkeypatch.setattr(resilience, "_domination_maps", table_was_allocated)
        return call()

    return run


def table_was_allocated(n, idx):
    pytest.fail(f"the {n}-bit table was allocated")


def with_an_unopenable_out(*argv):
    """``argv``, a sweep whose ``--out`` cannot be opened, such as an empty
    path or one in a directory that does not exist: refused before the
    sweep joins any table."""

    def run(workdir, monkeypatch):
        monkeypatch.setattr(resilience, "_minima_by_row", table_was_joined)
        return main(list(argv))

    return run


def table_was_joined(n):
    pytest.fail(f"the {n}-bit table was joined")


# The strong watermarks leave the bounded search more codewords to
# build than it may, so analyzing them scans the table.
STRONG_14, STRONG_40 = resilience.strong_watermark_of(14), resilience.strong_watermark_of(40)
ANALYZE_STRONG_14 = (
    "w=16255 n=14 case=Case2 ell=5 r=6 last_bit=1\nminvm_closed=9\nminvm_oracle=9\n"
    "agreement=true\nnearest=16254\nnearest_count=1\nstrength=Strong\n"
)
# A weak 40-bit watermark needs no table, so it gets its exact report
# even where that table could not be allocated: its nearest rewrites
# each set one more bit, any of bits 0..36.
ANALYZE_2_39 = (
    "w=549755813888 n=40 case=Case1 ell= r= last_bit=\nminvm_closed=3\nminvm_oracle=3\n"
    "agreement=true\n"
    f"nearest={','.join(str((1 << 39) + (1 << k)) for k in range(37))}\n"
    "nearest_count=37\nstrength=Weak\n"
)


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda *_: apply_edge_edits(ReduciblePermutationGraph((4, 4, 4)), [EdgeEdit(1, 2.5)]),
         GraphFormatError),
        (lambda *_: ReduciblePermutationGraph(()), GraphFormatError),
        (lambda *_: graph_to_json(ReduciblePermutationGraph((2, 3))), GraphFormatError),
        (lambda *_: SelfInvertingPermutation.from_one_line("1 x 3"), SipInvariantError),
        (decode_a_binary_file, (3, "", r"error: binary\.json is not a text file: [^\n]*\n")),
        (analyze_without_a_memory_figure, (0, ANALYZE_STRONG_14, "")),
        (without_a_memory_figure(lambda: main(["survey", "--bits", "64", "--cap-override", "64"])),
         (3, "", r"error: the 64-bit table needs 2\^63 rows, more than a 64-bit address space\n")),
        (without_a_memory_figure(lambda: main(["survey", "--bits", "50", "--cap-override", "50"])),
         (3, "", r"error: the 50-bit table could not be allocated\n")),
        (without_a_memory_figure(lambda: main(["analyze", str(STRONG_40), "--cap-override", "40"])),
         (3, "", r"error: the 40-bit table could not be allocated\n")),
        (without_a_memory_figure(lambda: main(["analyze", str(1 << 39), "--cap-override", "40"])),
         (0, ANALYZE_2_39, "")),
        (without_a_memory_figure(lambda: resilience.survey_range(50, cap=50)),
         ResourceBoundError),
        (with_an_unopenable_out(
            "verify-theorem", "--bits-min", "4", "--bits-max", "5", "--out", "missing/rows.csv"),
         (3, "", r"error: \[Errno 2\] [^\n]*'missing/rows\.csv'\n")),
        (with_an_unopenable_out("survey", "--bits", "4", "--out", "missing/t.csv"),
         (3, "", r"error: \[Errno 2\] [^\n]*'missing/t\.csv'\n")),
        (with_an_unopenable_out(
            "verify-theorem", "--bits-min", "4", "--bits-max", "5", "--out", ""),
         (3, "", r"error: \[Errno 2\] No such file or directory: ''\n")),
        # an empty path is named as given, as for the sweeps' --out ""
        (lambda *_: main(["encode", "27", "--dot", ""]),
         (3, "", r"error: \[Errno 2\] No such file or directory: ''\n")),
        (lambda *_: resilience.survey_range(10**5, cap=10**5), ResourceBoundError),
        (lambda *_: resilience.verify_theorem(4, 10**5, cap=10**5), ResourceBoundError),
        (lambda *_: resilience.minvm_oracle(1 << 20000, cap=20001), ResourceBoundError),
    ],
    ids=["float-target", "no-nodes", "even-node-count", "non-integer-element",
         "non-text-file", "unknown-physical-memory", "huge-table-unknown-memory",
         "unallocatable-survey", "unallocatable-analyze", "analyze-without-a-table",
         "unallocatable-survey-range",
         "verify-theorem-out-in-a-missing-directory", "survey-out-in-a-missing-directory",
         "verify-theorem-empty-out", "encode-empty-dot",
         "huge-survey", "huge-verify-theorem", "huge-oracle"],
)
def test_rarely_reached_branches(workdir, capsys, monkeypatch, call, outcome):
    """Branches no other test reaches: a library call raises its
    documented error; a command exits with its code, its stdout, and a
    stderr that matches the pattern, so never a traceback."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call(workdir, monkeypatch)
        return
    code, out, err = outcome
    assert call(workdir, monkeypatch) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert re.fullmatch(err, captured.err)


def test_oracle_above_the_closed_form_is_an_internal_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(resilience, "_closed_form", lambda shape: 2)
    assert main(["analyze", "27"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: oracle minimum 5 exceeds closed form 2 for w=27; "
        "the witness constructions are wrong\n"
    )


def test_oracle_above_the_closed_form_in_a_sweep_is_an_internal_error(
    workdir, capsys, monkeypatch
):
    monkeypatch.setattr(resilience, "_closed_form", lambda shape: 2)
    assert main([
        "verify-theorem", "--bits-min", "4", "--bits-max", "5", "--out", "rows.csv",
    ]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: oracle minimum 3 exceeds closed form 2 for w=8; "
        "the witness constructions are wrong\n"
    )
    assert not (workdir / "rows.csv").exists()


def planted_failure(*args):
    raise InternalInvariantError("planted")


@pytest.mark.parametrize(
    "argv,stage",
    [
        (["verify-theorem", "--bits-min", "4", "--bits-max", "5"], "_check_witnesses"),
        (["survey", "--bits", "4"], "_minima_by_row"),
    ],
    ids=["verify-theorem", "survey"],
)
def test_a_failed_sweep_keeps_an_out_file_it_did_not_create(
    workdir, capsys, monkeypatch, argv, stage
):
    # the file is opened before the sweep but truncated only to write the
    # table, so a failed sweep leaves an earlier file's bytes as they were
    earlier = b"earlier rows\nand more rows than a table of 4 bits\n" * 20
    (workdir / "rows.csv").write_bytes(earlier)
    with monkeypatch.context() as patched:
        patched.setattr(resilience, stage, planted_failure)
        assert main(argv + ["--out", "rows.csv"]) == 5
    assert capsys.readouterr() == ("", "internal error: planted\n")
    assert (workdir / "rows.csv").read_bytes() == earlier
    assert main(argv + ["--out", "rows.csv"]) == 0  # a sweep that succeeds replaces them
    table = (workdir / "rows.csv").read_text(encoding="utf-8")
    assert table.startswith("n,w,shape_case,") and "earlier" not in table


@pytest.mark.parametrize(
    "mispriced,message",
    [
        (lambda flip, cost: (flip, cost + 1), "predicted cost"),
        (lambda flip, cost: (0, cost), "leaves the bit-length range"),
    ],
)
def test_a_broken_witness_is_an_internal_error(workdir, capsys, monkeypatch, mispriced, message):
    witness_flips = resilience._witness_flips

    def broken(shape):
        return [(*mispriced(flip, cost), rule) for flip, cost, rule in witness_flips(shape)]

    monkeypatch.setattr(resilience, "_witness_flips", broken)
    with pytest.raises(InternalInvariantError) as expected:
        reference_sweep.verify_theorem(4, 5)
    assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "5"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {expected.value}\n"
    assert message in captured.err


def test_survey_csv_contents_and_stability(workdir, capsys):
    assert main(["survey", "--bits", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["survey", "--bits", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-stable
    lines = first.splitlines()
    assert lines[0] == "n,w,shape_case,ell,r,b_n,minvm_closed,minvm_oracle,agree,nearest_count,strength"
    assert len(lines) == 9
    row8 = lines[1].split(",")
    assert row8[:3] == ["4", "8", "Case1"]
    assert row8[6] == "3" and row8[10] == "Weak"
    row9 = lines[2].split(",")
    assert row9[1] == "9" and row9[10] == "Weak"
    row11 = lines[4].split(",")
    assert row11[1] == "11" and row11[10] == "Strong"


def test_survey_json_and_file_output(workdir):
    assert main(["survey", "--bits", "4", "--format", "json", "--out", "table.json"]) == 0
    import json

    rows = json.loads((workdir / "table.json").read_text())
    assert len(rows) == 8
    assert rows[0]["w"] == 8 and rows[0]["minvm_closed"] == 3


def test_survey_below_theorem_range_leaves_closed_columns_blank(workdir, capsys):
    assert main(["survey", "--bits", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    row5 = lines[2].split(",")
    assert row5[1] == "5"
    assert row5[6] == "" and row5[8] == "" and row5[10] == ""
    assert row5[7] == "4"  # oracle still runs


# Bit-lengths whose tables could never be built: their byte counts are
# too long to print, or too large to compute at all.
HUGE_BITS = ("100000", "100000000000")


def assert_refused_huge_table(capsys, bits: str) -> None:
    """Refused with the table's row count, never a traceback or a figure."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        rf"error: the {bits}-bit table needs 2\^{int(bits) - 1} rows, more than [^\n]*\n",
        captured.err,
    )


def test_survey_rejects_bad_bits(workdir, capsys):
    assert main(["survey", "--bits", "1"]) == 3
    assert main(["survey", "--bits", "15"]) == 3
    for bits in HUGE_BITS:
        capsys.readouterr()
        assert main(["survey", "--bits", bits, "--cap-override", bits]) == 3
        assert_refused_huge_table(capsys, bits)


def test_verify_theorem_ok(workdir, capsys):
    assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "n=4 watermarks=8 max_minvm=4" in out
    assert "n=5 watermarks=16 max_minvm=5" in out
    assert "strong=27 strong_in_argmax=true strong_min_nearest=true argmax_unique=true" in out
    assert out.rstrip().endswith("verified 24 watermarks: OK")


def test_verify_theorem_writes_rows(workdir):
    assert main([
        "verify-theorem", "--bits-min", "4", "--bits-max", "4", "--out", "rows.csv",
    ]) == 0
    lines = (workdir / "rows.csv").read_text().splitlines()
    assert len(lines) == 9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sweep_output_bytes_are_pinned(workdir, capsys):
    # Output is byte-stable across versions: a change to the table or
    # the join must leave these digests as they are.
    assert main([
        "verify-theorem", "--bits-min", "4", "--bits-max", "12", "--out", "rows.csv",
    ]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "21720e7051a91fab7d454c7d87306e0fb08990594d25bdcf3d9360750e144c85"
    )
    assert sha256((workdir / "rows.csv").read_bytes()) == (
        "cf91275d77e08700be36aeaa0946bce6f8c56e1c39e4e165603d754f0b5a8754"
    )
    assert main(["survey", "--bits", "12", "--format", "json"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "4e8189a4dfd8db9a01b249f9aca0793d912d5d24a5f2dfe0e4cb91d45e578229"
    )
    # The json table of the same sweep; its stdout equals the csv run's.
    assert main([
        "verify-theorem", "--bits-min", "4", "--bits-max", "12", "--format", "json",
        "--out", "rows.json",
    ]) == 0
    capsys.readouterr()
    assert sha256((workdir / "rows.json").read_bytes()) == (
        "93efff9113b0f562d143a1807464cd92366a9587823307ca6233bf47913c4a6b"
    )
    # Below bit-length 4 the closed-form and strength cells are blank.
    assert main(["survey", "--bits", "3"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "4c039d7057182639d9f9a141b696b638d8cfb56873122fe744b6e4615ab206bc"
    )
    # Reports of watermarks below 4 bits, of each case, and of the strong
    # 14-bit watermark, which falls back to the table.
    for w in (2, 3, 7, 8, 27, 45, 1000, 2015, 12345, 16255):
        assert main(["analyze", str(w)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "18878a9df1362142eb3d24b57fc4eba167348fb2b3109bb74978834a2c2bf427"
    )


def test_verify_theorem_rejects_bad_ranges(workdir, capsys):
    assert main(["verify-theorem", "--bits-min", "3", "--bits-max", "5"]) == 3
    assert main(["verify-theorem", "--bits-min", "6", "--bits-max", "5"]) == 3
    assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "20"]) == 3
    for bits in HUGE_BITS:
        argv = ["verify-theorem", "--bits-min", "4", "--bits-max", bits, "--cap-override", bits]
        capsys.readouterr()
        assert main(argv) == 3
        assert_refused_huge_table(capsys, bits)


def test_verify_theorem_reports_mismatches_with_exit_4(workdir, capsys, monkeypatch):
    # Force a disagreement to exercise the counterexample path: pretend
    # the closed form prices the shape of w=13, which no other 4-bit
    # watermark has, one higher than it does.
    real = resilience._closed_form

    def skewed(shape):
        return real(shape) + (1 if shape == bit_shape(13) else 0)

    monkeypatch.setattr(resilience, "_closed_form", skewed)
    assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "4"]) == 4
    out = capsys.readouterr().out
    assert "MISMATCH n=4 w=13 closed=5 oracle=4" in out
    assert "mismatches=1" in out
    assert out.rstrip().endswith("verified 8 watermarks: 1 mismatches")


def test_missing_subcommand_is_exit_3(capsys):
    assert main([]) == 3


def test_loaded_graph_matches_library_object(workdir):
    main(["encode", "44"])
    from wrpg.rpg import encode_sip_to_rpg
    from wrpg.sip import encode_w_to_sip

    assert load_graph(workdir / "f44.json") == encode_sip_to_rpg(encode_w_to_sip(44)[0])


def test_module_invocation_smoke(workdir, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "wrpg", "encode", "12", "--show-sip"],
        capture_output=True,
        text=True,
        env=subprocess_env,
        cwd=workdir,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5 6 9 8 1 2 7 4 3\n"


# Runs the codec commands in one process and reports, after the import
# and after each command, which of the modules named in argv[1:] that
# import or command has loaded; modules loaded before ``import wrpg``
# (by ``site``, say) do not count.
NUMPY_PROBE = """
import json, sys
preloaded = set(sys.modules)
import wrpg
from wrpg.cli import main

def loaded():
    return sorted(set(sys.argv[1:]) & set(sys.modules) - preloaded)

results = {"import": loaded()}
for argv in (
    ["encode", "12"],
    ["attack", "f12.json", "--edits", "3:9"],
    ["decode", "f12.json"],
    ["decode", "f12.attacked.json"],
    ["classify", "f12.attacked.json"],
    ["analyze", "27"],
    ["analyze", "16255"],
):
    results[argv[0] + " " + argv[1]] = [main(argv), loaded()]
print(json.dumps(results))
"""


def test_codec_commands_never_load_numpy(workdir, subprocess_env):
    # dataclasses and inspect (which dataclasses imports) cost more start-up
    # than the codec commands' own work
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, "numpy", "dataclasses", "inspect"],
        capture_output=True,
        text=True,
        env=subprocess_env,
        cwd=workdir,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    analyze = loaded.pop("analyze 16255")
    assert loaded == {
        "import": [],
        "encode 12": [0, []],
        "attack f12.json": [0, []],
        "decode f12.json": [0, []],
        "decode f12.attacked.json": [2, []],
        "classify f12.attacked.json": [2, []],
        "analyze 27": [0, []],
    }
    # the 14-bit strong watermark falls back to the table, whose build
    # loads numpy, and with it whatever numpy imports
    assert analyze[0] == 0 and "numpy" in analyze[1]
