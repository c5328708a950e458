import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gcladder import cli, polytope
from gcladder.cli import main
from gcladder.genfunc import f_vector
from gcladder.ladder import FaceSet, brute_force_faces
from gcladder.words import all_words, child_composition

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = str(ROOT / "golden" / "fvectors_n6.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fvector_known(capsys):
    code, out = run(capsys, "fvector", "--k", "1,1,1")
    assert code == 0
    assert "f = (7, 11, 6, 1)" in out
    assert "t^3 + 6 t^2 + 11 t + 7" in out


def test_fvector_single_part(capsys):
    code, out = run(capsys, "fvector", "--k", "5")
    assert code == 0 and "f = (1)" in out


def test_fvector_json(capsys):
    code, out = run(capsys, "fvector", "--k", "2,1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["coefficients"] == ["3", "3", "1"]


def test_fvector_golden_check(capsys):
    code, out = run(capsys, "fvector", "--k", "1,1,1", "--golden", GOLDEN)
    assert code == 0 and "golden: ok" in out


def test_fvector_golden_missing_entry(capsys):
    code, out = run(capsys, "fvector", "--k", "7", "--golden", GOLDEN)
    assert code == 1 and "no entry" in out


def test_fvector_golden_mismatch(tmp_path, capsys):
    payload = json.loads(Path(GOLDEN).read_text())
    assert payload["entries"][3]["composition"] == [1, 1, 1]
    payload["entries"][3]["coefficients"] = ["7", "11", "6", "2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "fvector", "--k", "1,1,1", "--golden", str(bad))
    assert code == 1
    assert "golden: MISMATCH recorded ('7', '11', '6', '2')" in out


def test_fvector_at_its_bound(capsys):
    code, out = run(capsys, "fvector", "--k", "5,0,7")
    assert code == 0 and "composition: (5, 0, 7)" in out


def test_malformed_composition_exits_nonzero(capsys):
    for k, reason in (
        ("1,x", "must be comma-separated integers"),
        ("1,-1", "composition parts must be non-negative"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["fvector", "--k", k])
        assert exc.value.code == 2
        assert f"{reason}, got '{k}'" in capsys.readouterr().err


def test_faces_listing(capsys):
    code, out = run(capsys, "faces", "--k", "1,1")
    assert code == 0
    assert "faces: 3" in out


def test_faces_count_111(capsys):
    code, out = run(capsys, "faces", "--k", "1,1,1", "--format", "json")
    rec = json.loads(out)
    assert code == 0 and len(rec["faces"]) == 25


def test_faces_refusal_suggests_fvector(capsys):
    code = main(["faces", "--k", "3,3"])
    err = capsys.readouterr().err
    assert code == 2 and "fvector" in err


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["faces", "--k", "2,1", "--format", "json"], "faces_k2_1.json"),
        (
            ["faces", "--k", "1,1,1", "--decompose", "--format", "json"],
            "faces_k1_1_1_decompose.json",
        ),
    ],
)
def test_faces_json_bytes_pinned(argv, pinned, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (ROOT / "tests" / "data" / pinned).read_bytes()


def test_faces_decompose_json_words(capsys):
    code, out = run(capsys, "faces", "--k", "1,2,1", "--decompose", "--format", "json")
    assert code == 0
    records = json.loads(out)["faces"]
    words = Counter()
    for rec in records:
        word = tuple(tuple(letter) for letter in rec["word"])
        assert tuple(rec["child_composition"]) == child_composition((1, 2, 1), word)
        words[word] += 1
    # each word's faces are the faces of its child diagram
    assert words == {
        w: sum(f_vector(child_composition((1, 2, 1), w))) for w in all_words(2)
    }


def test_faces_decompose(capsys):
    code, out = run(capsys, "faces", "--k", "1,1", "--decompose")
    assert code == 0
    assert "word R" in out and "word U" in out and "word B" in out


def test_verify_iso(capsys):
    code, out = run(capsys, "verify", "iso", "--lambda", "2,1,0")
    assert code == 0 and "25 faces" in out and "PASS" in out


def test_verify_iso_requires_lambda(capsys):
    code = main(["verify", "iso"])
    assert code == 2


def test_verify_pde(capsys):
    code, out = run(capsys, "verify", "pde", "--s", "2", "--degree", "6")
    assert code == 0 and "residual-terms=0" in out


def test_verify_gkt(capsys):
    code, out = run(capsys, "verify", "gkt", "--s", "2", "--degree", "5")
    assert code == 0 and "vertex-egf" in out


def test_verify_pde_at_the_work_bound(capsys):
    code, out = run(capsys, "verify", "gkt", "--s", "5", "--degree", "6")
    assert code == 0 and "PASS vertex-egf s=5 truncation=6" in out
    code, out = run(capsys, "verify", "pde", "--s", "1", "--degree", "12")
    assert code == 0 and "PASS fpolynomial-egf s=1 truncation=12" in out


def test_verify_oracle_small(capsys):
    code, out = run(capsys, "verify", "oracle", "--max-n", "3")
    assert code == 0 and "result: PASS" in out


def test_verify_oracle_golden(capsys):
    code, out = run(capsys, "verify", "oracle", "--max-n", "2", "--golden", GOLDEN)
    assert code == 0 and "golden" in out


def test_verify_oracle_golden_mismatch(tmp_path, capsys):
    payload = json.loads(Path(GOLDEN).read_text())
    payload["entries"][3]["coefficients"] = ["123"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "verify", "oracle", "--max-n", "1", "--golden", str(bad))
    assert code == 1 and "mismatch" in out


def test_verify_iso_reports_a_non_face_image(monkeypatch, capsys):
    # Swapped edge bits map face #1 outside the diagram's faces: the run
    # ends in a failing report, not a traceback.
    original = polytope.edge_bits

    def swapped(sys):
        bits = list(original(sys))
        bits[0], bits[1] = bits[1], bits[0]
        return tuple(bits)

    monkeypatch.setattr(polytope, "edge_bits", swapped)
    code = main(["verify", "iso", "--lambda", "2,1,0", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["pass"] is False
    (check,) = report["checks"]
    assert check["pass"] is False and check["bijection"] is False
    assert check["counterexample"] == "face #1 maps to 0x5fd, not a diagram face"


def test_verify_oracle_compares_dimensions(monkeypatch, capsys):
    def shifted_dims(diagram):
        faces = brute_force_faces(diagram)
        return FaceSet(diagram, faces.masks, faces.dims + 1)

    monkeypatch.setattr(cli, "brute_force_faces", shifted_dims)
    code, out = run(capsys, "verify", "oracle", "--max-n", "2", "--format", "json")
    assert code == 1
    assert [c["edge_sets_match"] for c in json.loads(out)["checks"]] == [False] * 3


NOT_GOLDEN = str(ROOT / "README.md")
WRONG_FORMAT = str(ROOT / "perfbench" / "expected" / "verify_all.json")
# A golden file whose entry 1 has n = 20, which `check_golden` would recompute.
GOLDEN_N20 = str(ROOT / "tests" / "data" / "golden_entry_n20.json")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify", "pde", "--s", "0", "--degree", "4"], "s must be positive"),
        (["verify", "gkt", "--s", "0", "--degree", "4"], "s must be positive"),
        (["verify", "oracle", "--max-n", "0"], "--max-n must be positive"),
        (["verify", "iso", "--lambda", "2,1,0", "--max-n", "0"], "--max-n"),
        (["verify", "all", "--max-n", "0"], "--max-n must be positive"),
        (["verify", "oracle", "--max-n", "9"], "brute-force bound 22"),
        (["verify", "all", "--max-n", "9"], "brute-force bound 22"),
        (["verify", "iso", "--lambda", "1/0"], "zero denominator in '1/0'"),
        (["verify", "iso"], "requires --lambda"),
        (["fvector", "--k", "1,1", "--golden", "missing.json"], "missing.json"),
        # the message names the file by its path: explicit ids keep the
        # test ids the same in every checkout
        pytest.param(
            ["fvector", "--k", "1,1", "--golden", NOT_GOLDEN], NOT_GOLDEN,
            id="fvector-golden-not-json",
        ),
        pytest.param(
            ["fvector", "--k", "1,1", "--golden", WRONG_FORMAT], WRONG_FORMAT,
            id="fvector-golden-wrong-format",
        ),
        (["verify", "oracle", "--golden", "missing.json"], "missing.json"),
        pytest.param(
            ["verify", "oracle", "--golden", NOT_GOLDEN], NOT_GOLDEN,
            id="oracle-golden-not-json",
        ),
        pytest.param(
            ["verify", "oracle", "--golden", WRONG_FORMAT], WRONG_FORMAT,
            id="oracle-golden-wrong-format",
        ),
        (["verify", "all", "--s", "0"], "s must be positive"),
        (["verify", "all", "--degree", "0"], "truncation degree must be at least s"),
        (["verify", "gkt", "--s", "3", "--degree", "2"], "truncation degree"),
        (["faces", "--k", "3,3"], "(bound 22); use `gcladder fvector`"),
        (["fvector", "--k", ",".join(["1"] * 13)], "n = 13 exceeds the bound n <= 12"),
        (["fvector", "--k", "6,7", "--golden", GOLDEN], "n <= 12"),
        (["verify", "iso", "--lambda", "6,5,4,3,2,1", "--max-n", "6"], "n <= 4; got n = 6"),
        (["verify", "iso", "--lambda", "4,3,2,1,0"], "n <= 4; got n = 5"),
        (["verify", "iso", "--lambda", "3,2,1,0", "--max-n", "3"], "n <= 3; got n = 4"),
        (["verify", "pde", "--s", "12", "--degree", "12"], "bound s <= 5, degree <= 12"),
        (["verify", "gkt", "--s", "6", "--degree", "8"], "bound s <= 5, degree <= 12"),
        (["verify", "pde", "--degree", "13"], "--s 1 --degree 13 exceeds the bound"),
        (["verify", "gkt", "--s", "2", "--degree", "13"], "degree <= 12"),
        (["verify", "all", "--degree", "13"], "degree <= 12"),
        (["verify", "all", "--s", "6", "--degree", "6"], "s <= 5"),
        (["verify", "all", "--s", "1", "--degree", "1"], "verify all needs --degree >= 2, got 1"),
        (["verify", "iso", "--lambda", "1,2"], "spectrum must be weakly decreasing, got 1, 2"),
        (["faces", "--k", "10000000"], "diagram has 20000000 edges (bound 22)"),
        (["verify", "oracle", "--golden", GOLDEN_N20],
         "golden_entry_n20.json: entry 1 has n = 20, above the bound n <= 12"),
        (["verify", "all", "--golden", GOLDEN_N20],
         "golden_entry_n20.json: entry 1 has n = 20, above the bound n <= 12"),
        (["verify", "iso", "--lambda", "1,1e-999999999"], "exponent in '1e-999999999'"),
        (["verify", "iso", "--lambda", "1e99999,0"], "exponent in '1e99999'"),
    ],
)
def test_refusal_contract(argv, reason, monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before the refusal")

    monkeypatch.setattr(cli, "verify_isomorphism", no_check)
    monkeypatch.setattr(cli, "brute_force_faces", no_check)
    monkeypatch.setattr(cli, "f_polynomial", no_check)
    monkeypatch.setattr(cli, "verify_generating_pde", no_check)
    monkeypatch.setattr(cli, "verify_vertex_pde", no_check)
    monkeypatch.setattr(cli, "check_word_action", no_check)
    monkeypatch.setattr(cli, "build_diagram", no_check)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("refusal: ")
    assert reason in lines[0]


@pytest.mark.parametrize(
    "payload, reason",
    [
        ({}, "'entries' is not a list"),
        ({"entries": {}}, "'entries' is not a list"),
        ({"entries": [{"composition": [1, 1]}]}, "entry 0 has no 'coefficients'"),
        ({"entries": [{"composition": [1], "coefficients": ["1"]}, {"coefficients": ["1"]}]},
         "entry 1 has no 'composition'"),
        ({"entries": [{"composition": [1, -1], "coefficients": ["1"]}]}, "entry 0"),
        ({"entries": [{"composition": [1, 1], "coefficients": [2, 1]}]}, "entry 0"),
        ({"entries": [{"composition": [1, 1], "coefficients": ["2", "-1"]}]}, "entry 0"),
        ({"entries": ["(1, 1)"]}, "entry 0"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["fvector", "--k", "1,1", "--golden"], ["verify", "oracle", "--max-n", "1", "--golden"]],
)
def test_golden_structure_refusal(argv, payload, reason, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "gcladder/golden-fvectors", "version": 1, **payload}))
    code = main([*argv, str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("refusal: ")
    assert str(bad) in lines[0] and reason in lines[0]


def test_json_output_byte_identical(capsys):
    _, first = run(capsys, "verify", "pde", "--s", "1", "--degree", "5", "--format", "json")
    _, second = run(capsys, "verify", "pde", "--s", "1", "--degree", "5", "--format", "json")
    assert first == second
    rec = json.loads(first)
    assert rec["pass"] is True


def test_faces_json_deterministic(capsys):
    _, first = run(capsys, "faces", "--k", "2,1", "--format", "json")
    _, second = run(capsys, "faces", "--k", "2,1", "--format", "json")
    assert first == second


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "all", "--format", "json"], "verify_all.json"),
        (
            ["verify", "pde", "--s", "3", "--degree", "8", "--format", "json"],
            "verify_pde_s3_d8.json",
        ),
    ],
    ids=["all", "pde"],
)
def test_verify_report_bytes_pinned(argv, expected, capsys):
    # the benchmark's expected outputs, read and never written here
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (ROOT / "perfbench" / "expected" / expected).read_text()


def test_verify_all_json_deterministic(capsys):
    args = ("verify", "all", "--max-n", "2", "--degree", "4", "--format", "json")
    code1, first = run(capsys, *args)
    code2, second = run(capsys, *args)
    assert code1 == code2 == 0
    assert first == second
    assert json.loads(first)["pass"] is True


# Runs cli.main on each argv of a JSON list in turn, in one process, and
# prints each call's exit code, stdout and stderr as JSON.
CALLS_IN_TURN = """
import contextlib, io, json, sys
from gcladder.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def calls_in_one_process(*argvs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_IN_TURN, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_shared_parser_keeps_calls_independent():
    # main parses with one parser built at import: each call made after
    # others in one process prints what it prints as a process's first call
    calls = [
        ["verify", "iso", "--lambda", "2,1,0", "--max-n", "3"],
        ["verify", "all", "--format", "json"],
        ["faces", "--k", "2,1", "--decompose"],
        ["faces", "--k", "2,1"],
        ["fvector", "--k", "3,2", "--golden", NOT_GOLDEN],
        ["fvector", "--k", "3,2"],
    ]
    in_turn = calls_in_one_process(*calls)
    assert [code for code, _, _ in in_turn] == [0, 0, 0, 0, 2, 0]
    expected = (ROOT / "perfbench" / "expected" / "verify_all.json").read_text()
    assert in_turn[1] == [0, expected, ""]
    for argv, result in zip(calls, in_turn):
        if argv[:2] != ["verify", "all"]:
            assert calls_in_one_process(argv) == [result], argv
