"""Versioned structured records for faces, f-vectors, and reports.

Every record carries a ``format`` tag and integer ``version`` so files can
be validated on the way back in.  Faces serialize as hexadecimal strings of
their edge bit vector together with their composition; coefficient lists
are decimal strings (lowest degree first) so arbitrary-precision values
survive JSON.  ``dumps`` produces byte-deterministic output.

The library numbers edges band-major (see ``ladder``).  A record numbers
them in the record order instead: horizontal edges first, then vertical,
each block by head coordinate (``_record_key``).  ``_record_maps`` sorts a
diagram's edges by it once; ``hex_mask`` writes a library mask in that order
and ``face_from_record`` reads it back.  Face lists (``face_list_record``,
``gcladder faces``) go by increasing record mask.  Failure messages name an
offending face by its index in library order, with its mask in record form.
"""

import functools
import json

import numpy as np

from .genfunc import f_polynomial
from .ladder import FACE_CHUNK, DiagramFace, build_diagram, compositions_of

FACE_FORMAT = "gcladder/face"
FACE_LIST_FORMAT = "gcladder/faces"
FVECTOR_FORMAT = "gcladder/fvector"
PDE_REPORT_FORMAT = "gcladder/pde-report"
ISO_REPORT_FORMAT = "gcladder/iso-report"
GOLDEN_FORMAT = "gcladder/golden-fvectors"
VERSION = 1


def dumps(obj):
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _moved(masks, moves):
    """``masks`` (an int or an int64 array) with bit i moved to bit moves[i],
    where ``moves`` permutes the diagram's edges.

    An int walks only the set bits of itself or of its complement, whichever
    has fewer: a permutation moves the complement onto the complement of
    the image.  An array moves every edge's bit column.
    """
    if isinstance(masks, int):
        flip = (1 << len(moves)) - 1 if 2 * masks.bit_count() > len(moves) else 0
        masks ^= flip
        out = 0
        while masks:
            low = masks & -masks
            out |= 1 << moves[low.bit_length() - 1]
            masks ^= low
        return out ^ flip
    out = masks & 0
    for i, j in enumerate(moves):
        out |= (masks >> i & 1) << j
    return out


def _record_key(edge):
    # Record order: horizontals sorted by head, then verticals likewise.
    (ta, _), head = edge
    return ta == head[0], head


@functools.lru_cache(maxsize=None)
def _record_maps(diagram):
    """The two bit maps between the library and record orders, made once per
    interned diagram: library edge e is record bit position[e], and record
    bit i is library edge library[i].  Returns (position, library)."""
    edges = diagram.edges
    library = tuple(sorted(range(len(edges)), key=lambda e: _record_key(edges[e])))
    position = tuple(sorted(range(len(edges)), key=library.__getitem__))
    return position, library


def _record_hex(diagram, record_mask):
    width = max(1, (diagram.num_edges + 3) // 4)
    return f"{record_mask:0{width}x}"


def hex_mask(diagram, mask):
    """A library face mask in the record order, as hexadecimal digits
    zero-padded to the diagram's edges.  Bits past the edges, which a
    failure message may name, stay where they are."""
    stray = mask & ~diagram.full_mask
    return _record_hex(diagram, _moved(mask ^ stray, _record_maps(diagram)[0]) | stray)


def _face_dict(diagram, edges_hex, dim):
    return {
        "format": FACE_FORMAT,
        "version": VERSION,
        "composition": list(diagram.composition),
        "edges_hex": edges_hex,
        "dim": dim,
    }


def face_record(face):
    return _face_dict(face.diagram, hex_mask(face.diagram, face.mask), face.dim)


def face_from_record(record):
    if record.get("format") != FACE_FORMAT or record.get("version") != VERSION:
        raise ValueError(f"not a version-{VERSION} face record")
    diagram = build_diagram(tuple(record["composition"]))
    record_mask = int(record["edges_hex"], 16)
    if record_mask >> diagram.num_edges:
        raise ValueError("edge subset uses bits outside the diagram")
    face = DiagramFace(diagram, _moved(record_mask, _record_maps(diagram)[1]))
    # One recognizer pass per record: ``face_dimension`` checks the face
    # before it counts, and ``face.dim`` keeps the count.
    try:
        dim = face.dim
    except ValueError:
        raise ValueError("record does not describe a face") from None
    if "dim" in record and dim != record["dim"]:
        raise ValueError(
            f"recorded dimension {record['dim']} disagrees with {dim}"
        )
    return face


def listed_faces(faces):
    """(edges_hex, face) for each face of a ``FaceSet``, by increasing record
    mask: the order of ``face_list_record`` and ``gcladder faces``.  The
    faces are built ``FACE_CHUNK`` at a time."""
    diagram, masks, dims = faces.diagram, faces.masks, faces.dims
    record_masks = _moved(masks, _record_maps(diagram)[0])
    order = np.argsort(record_masks)
    for lo in range(0, len(order), FACE_CHUNK):
        at = order[lo : lo + FACE_CHUNK]
        for record_mask, mask, dim in zip(
            record_masks[at].tolist(), masks[at].tolist(), dims[at].tolist()
        ):
            yield _record_hex(diagram, record_mask), DiagramFace(diagram, mask, dim)


def face_list_record(faces):
    """The record of a ``FaceSet``, its faces by increasing record mask."""
    diagram = faces.diagram
    return {
        "format": FACE_LIST_FORMAT,
        "version": VERSION,
        "composition": list(diagram.composition),
        "edge_count": diagram.num_edges,
        "faces": [
            _face_dict(diagram, edges_hex, face.dim) for edges_hex, face in listed_faces(faces)
        ],
    }


def fvector_record(k):
    poly = f_polynomial(k)
    return {
        "format": FVECTOR_FORMAT,
        "version": VERSION,
        "composition": list(k),
        "coefficients": [str(c) for c in poly.coeffs],
    }


def pde_report_record(report):
    return {
        "format": PDE_REPORT_FORMAT,
        "version": VERSION,
        "identity": report.identity,
        "s": report.s,
        "degree": report.degree,
        "validity_degree": report.validity_degree,
        "residual_terms": len(report.residual),
        "residual": [
            {"exponents": list(exps), "poly": poly} for exps, poly in report.residual
        ],
        "pass": report.passed,
    }


def iso_report_record(report):
    return {
        "format": ISO_REPORT_FORMAT,
        "version": VERSION,
        "spectrum": list(report.spectrum),
        "composition": list(report.composition),
        "diagram_counts": {str(d): c for d, c in report.diagram_counts},
        "polytope_counts": {str(d): c for d, c in report.polytope_counts},
        "face_count": report.face_count,
        "bijection": report.bijection_ok,
        "order": report.order_ok,
        "dimension": report.dimension_ok,
        "roundtrip": report.roundtrip_ok,
        "counterexample": report.counterexample,
        "pass": report.passed,
    }


def golden_payload(max_n):
    """f-vectors of every composition with total at most max_n."""
    entries = [
        {"composition": list(k), "coefficients": [str(c) for c in f_polynomial(k).coeffs]}
        for n in range(1, max_n + 1)
        for k in compositions_of(n)
    ]
    return {
        "format": GOLDEN_FORMAT,
        "version": VERSION,
        "max_n": max_n,
        "entries": entries,
    }


def load_golden(path):
    """Read a golden f-vector file and check its tag and structure.

    Raises ``ValueError`` naming the file when it cannot be read, is not
    JSON, is not a version-1 golden f-vector file, or has an entry without
    a composition of non-negative integers or coefficients as decimal
    strings (naming the entry's index).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read golden file {path}: {exc}") from None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != GOLDEN_FORMAT
        or payload.get("version") != VERSION
    ):
        raise ValueError(f"{path} is not a version-{VERSION} golden f-vector file")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' is not a list")
    for i, entry in enumerate(entries):
        comp = entry.get("composition") if isinstance(entry, dict) else None
        coeffs = entry.get("coefficients") if isinstance(entry, dict) else None
        if not isinstance(comp, list) or not all(
            type(p) is int and p >= 0 for p in comp
        ):
            raise ValueError(
                f"{path}: entry {i} has no 'composition' list of non-negative integers"
            )
        if not isinstance(coeffs, list) or not all(
            isinstance(c, str) and c.isascii() and c.isdigit() for c in coeffs
        ):
            raise ValueError(
                f"{path}: entry {i} has no 'coefficients' list of decimal strings"
            )
    return payload


def check_golden(payload):
    """Recompute every entry of a golden payload; returns mismatches."""
    bad = []
    for entry in payload["entries"]:
        comp = tuple(entry["composition"])
        want = tuple(entry["coefficients"])
        got = tuple(str(c) for c in f_polynomial(comp).coeffs)
        if got != want:
            bad.append((comp, want, got))
    return bad
