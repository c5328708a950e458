import json
import random
from pathlib import Path

import numpy as np
import pytest

from gcladder import records
from gcladder.genfunc import verify_generating_pde
from gcladder.ladder import DiagramFace, build_diagram, compositions_of, enumerate_faces
from gcladder.polytope import Spectrum, verify_isomorphism

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "fvectors_n6.json"


def test_face_record_round_trip():
    d = build_diagram((2, 1))
    for face in enumerate_faces(d):
        rec = records.face_record(face)
        assert rec["format"] == records.FACE_FORMAT
        back = records.face_from_record(rec)
        assert back == face and back.dim == face.dim


def test_face_record_rejects_non_face():
    d = build_diagram((1, 1))
    rec = {
        "format": records.FACE_FORMAT,
        "version": records.VERSION,
        "composition": [1, 1],
        "edges_hex": "00",
    }
    with pytest.raises(ValueError):
        records.face_from_record(rec)


def test_face_records_round_trip_up_to_n5():
    # 78,845 faces, most in diagrams whose record order differs from the library's
    for n in range(1, 6):
        for comp in compositions_of(n):
            for face in enumerate_faces(build_diagram(comp)):
                back = records.face_from_record(records.face_record(face))
                assert back == face and back.dim == face.dim


@pytest.mark.parametrize("comp", [(1, 1), (2, 1, 2), (1, 1, 1, 1), (1, 2, 1, 1, 1)])
def test_moved_int_matches_the_array_path(comp):
    # an int walks the sparser of its set bits and its complement's; the
    # array path moves every bit column
    d = build_diagram(comp)
    rng = random.Random(0)
    edges = list(range(d.num_edges))
    masks = [
        sum(1 << e for e in rng.sample(edges, size))
        for size in range(d.num_edges + 1)
        for _ in range(3)
    ]
    for moves in (d.record_position, records._library_positions(d)):
        by_array = records._moved(np.array(masks, dtype=np.int64), moves).tolist()
        assert [records._moved(m, moves) for m in masks] == by_array


@pytest.mark.parametrize("comp", [(1, 1), (2, 1, 2), (1, 1, 1, 1)])
def test_face_list_record_goes_by_increasing_record_mask(comp):
    faces = enumerate_faces(build_diagram(comp))
    listed = records.face_list_record(faces)["faces"]
    hexes = [int(rec["edges_hex"], 16) for rec in listed]
    assert all(a < b for a, b in zip(hexes, hexes[1:]))
    assert len(listed) == len(faces)
    assert sorted(map(records.face_record, faces), key=lambda r: r["edges_hex"]) == listed


@pytest.mark.parametrize("comp", [(1, 1), (1, 2, 1)])
def test_face_record_refuses_non_faces_and_stray_bits(comp):
    d = build_diagram(comp)
    base = {"format": records.FACE_FORMAT, "version": records.VERSION, "composition": list(comp)}
    # every single edge is no face of a diagram with n >= 2
    for p in range(d.num_edges):
        with pytest.raises(ValueError, match="does not describe a face"):
            records.face_from_record({**base, "edges_hex": f"{1 << p:x}"})
    top = int(records.face_record(DiagramFace(d, d.full_mask))["edges_hex"], 16)
    for stray in (1 << d.num_edges, 1 << d.num_edges + 5):
        with pytest.raises(ValueError, match="outside the diagram"):
            records.face_from_record({**base, "edges_hex": f"{top | stray:x}"})


def test_face_record_checks_dimension():
    d = build_diagram((1, 1))
    rec = records.face_record(DiagramFace(d, d.full_mask))
    rec["dim"] = 7
    with pytest.raises(ValueError, match="dimension"):
        records.face_from_record(rec)


def test_fvector_record_uses_decimal_strings():
    rec = records.fvector_record((1, 1, 1))
    assert rec["coefficients"] == ["7", "11", "6", "1"]


def test_dumps_deterministic():
    rec = records.fvector_record((2, 1))
    assert records.dumps(rec) == records.dumps(json.loads(records.dumps(rec)))
    assert records.dumps(rec).endswith("\n")


def test_pde_report_record():
    report = verify_generating_pde(2, 4)
    rec = records.pde_report_record(report)
    assert rec["pass"] is True and rec["residual_terms"] == 0
    assert rec["s"] == 2 and rec["degree"] == 4


def test_iso_report_record():
    rec = records.iso_report_record(verify_isomorphism(Spectrum((1, 1, 0))))
    assert rec["pass"] is True and rec["face_count"] == 7


def test_golden_file_regression():
    payload = records.load_golden(GOLDEN_PATH)
    assert payload["format"] == records.GOLDEN_FORMAT
    assert payload["max_n"] == 6
    assert len(payload["entries"]) == 63
    assert records.check_golden(payload) == []


# The README's regenerate command writes this payload over the golden file.
def test_golden_payload_regenerates_golden_file():
    assert records.dumps(records.golden_payload(6)).encode() == GOLDEN_PATH.read_bytes()


def test_golden_check_flags_mismatch():
    payload = json.loads(GOLDEN_PATH.read_text())
    payload["entries"][0]["coefficients"] = ["999"]
    bad = records.check_golden(payload)
    assert len(bad) == 1
