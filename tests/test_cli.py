import hashlib
import json
import subprocess
import sys

import pytest

import wrpg.resilience as resilience
from wrpg.cli import main
from wrpg.rpg import load_graph
from wrpg.sip import bit_shape

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


def test_oracle_above_the_closed_form_is_an_internal_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(resilience, "_closed_form", lambda shape: 2)
    assert main(["analyze", "27"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: oracle minimum 5 exceeds closed form 2 for w=27; "
        "the witness constructions are wrong\n"
    )


@pytest.mark.parametrize(
    "mispriced,message",
    [
        (lambda w, neighbor, cost: (neighbor, cost + 1), "predicted cost"),
        (lambda w, neighbor, cost: (w, cost), "leaves the bit-length range"),
    ],
)
def test_a_broken_witness_is_an_internal_error(workdir, capsys, monkeypatch, mispriced, message):
    proof_neighbors = resilience._proof_neighbors

    def broken(w, n, shape):
        return [
            (*mispriced(w, neighbor, cost), rule)
            for neighbor, cost, rule in proof_neighbors(w, n, shape)
        ]

    monkeypatch.setattr(resilience, "_proof_neighbors", broken)
    assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "5"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: witness ")
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


def test_survey_rejects_bad_bits(workdir, capsys):
    assert main(["survey", "--bits", "1"]) == 3
    assert main(["survey", "--bits", "15"]) == 3


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


def test_verify_theorem_rejects_bad_ranges(workdir):
    assert main(["verify-theorem", "--bits-min", "3", "--bits-max", "5"]) == 3
    assert main(["verify-theorem", "--bits-min", "6", "--bits-max", "5"]) == 3
    assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "20"]) == 3


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


NUMPY_PROBE = """
import json, sys
import wrpg
from wrpg.cli import main
loaded = {"import": "numpy" in sys.modules}
for argv in (
    ["encode", "12"],
    ["attack", "f12.json", "--edits", "3:9"],
    ["decode", "f12.json"],
    ["decode", "f12.attacked.json"],
    ["classify", "f12.attacked.json"],
    ["analyze", "27"],
):
    loaded[argv[0] + " " + argv[1]] = [main(argv), "numpy" in sys.modules]
print(json.dumps(loaded))
"""


def test_codec_commands_never_load_numpy(workdir, subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=subprocess_env,
        cwd=workdir,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": False,
        "encode 12": [0, False],
        "attack f12.json": [0, False],
        "decode f12.json": [0, False],
        "decode f12.attacked.json": [2, False],
        "classify f12.attacked.json": [2, False],
        "analyze 27": [0, True],  # the oracle's table build loads it
    }
