"""Write the benchmark's expected results, each confirmed by a second method.

    python3 perfbench/make_expected.py

It imports the program from ``src/`` and writes three files under
``perfbench/expected/``:

* ``fvectors.json``: the f-vector and diagram edge count of every
  composition the workload generators can draw (all compositions with
  n <= 9, plus every composition within the brute-force edge bound).
  Before an entry is written it must satisfy F(-1) = 1, have degree
  (n^2 - sum k_i^2) / 2 with leading coefficient 1, equal the f-vector of
  the reversed composition, agree with ``golden/fvectors_n6.json`` where
  that file has it, and agree with the face census of the array
  enumerator wherever the census has at most ``CENSUS_FACE_CAP`` faces.
  Within the brute-force bound the brute-force face masks must also equal
  the recursive ones.
* ``verify_all.json`` and ``verify_pde_s3_d8.json``: the stdout bytes of
  ``gcladder verify all --format json`` and
  ``gcladder verify pde --s 3 --degree 8 --format json``.  Each must report
  a pass, and every isomorphism check in the first must report the same
  counts on both sides as the f-vector above.

Any disagreement aborts without writing.
"""

import contextlib
import io
import json
from pathlib import Path

from worker import clear_caches, import_program
from workloads import compositions

gcladder = import_program()
cli, ladder = gcladder.cli, gcladder.ladder

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "expected"
MAX_N = 9
BRUTE_FORCE_EDGES = 22
CENSUS_FACE_CAP = 2_000_000
FORMAT = "perfbench/expected-fvectors"


def structural_errors(comp, coeffs):
    n = sum(comp)
    errors = []
    if sum((-1) ** i * c for i, c in enumerate(coeffs)) != 1:
        errors.append("F(-1) != 1")
    if len(coeffs) - 1 != (n * n - sum(k * k for k in comp)) // 2:
        errors.append(f"degree {len(coeffs) - 1}")
    if coeffs[-1] != 1:
        errors.append("leading coefficient != 1")
    if tuple(gcladder.f_vector(tuple(reversed(comp)))) != tuple(coeffs):
        errors.append("reversal symmetry")
    return errors


def run_cli(argv):
    clear_caches()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def main():
    golden = json.loads((ROOT / "golden" / "fvectors_n6.json").read_text())
    golden = {
        tuple(e["composition"]): [int(c) for c in e["coefficients"]]
        for e in golden["entries"]
    }
    comps = [c for n in range(1, MAX_N + 1) for c in compositions(n)]
    comps += [
        c for c in ladder.compositions_with_edge_bound(BRUTE_FORCE_EDGES)
        if sum(c) > MAX_N
    ]
    entries = []
    census_checked = golden_checked = brute_checked = 0
    for comp in comps:
        coeffs = list(gcladder.f_vector(comp))
        errors = structural_errors(comp, coeffs)
        if comp in golden:
            golden_checked += 1
            if golden[comp] != coeffs:
                errors.append("golden file disagrees")
        diagram = gcladder.build_diagram(comp)
        edges = diagram.num_edges
        if edges != ladder.diagram_edge_count(comp):
            errors.append("edge count formula disagrees")
        if sum(coeffs) <= CENSUS_FACE_CAP:
            clear_caches()
            census_checked += 1
            census = gcladder.face_census(comp)
            if [census.get(i, 0) for i in range(len(coeffs))] != coeffs:
                errors.append("face census disagrees")
        if edges <= BRUTE_FORCE_EDGES:
            brute_checked += 1
            brute = [f.mask for f in gcladder.brute_force_faces(diagram)]
            if brute != [f.mask for f in gcladder.enumerate_faces(diagram)]:
                errors.append("brute force disagrees")
        clear_caches()
        if errors:
            raise SystemExit(f"{comp}: {', '.join(errors)}")
        entries.append(
            {
                "composition": list(comp),
                "coefficients": [str(c) for c in coeffs],
                "edges": edges,
            }
        )
    fvectors = {tuple(e["composition"]): e["coefficients"] for e in entries}

    verify_all = run_cli(["verify", "all", "--format", "json"])
    report = json.loads(verify_all)
    if not report["pass"] or not all(c.get("pass", True) for c in report["checks"]):
        raise SystemExit("verify all does not pass")
    iso_checks = 0
    for check in report["checks"]:
        if check.get("format") != "gcladder/iso-report":
            continue
        want = {str(i): int(c) for i, c in enumerate(fvectors[tuple(check["composition"])])}
        if check["diagram_counts"] != want or check["polytope_counts"] != want:
            raise SystemExit(f"iso counts disagree for {check['composition']}")
        iso_checks += 1
    verify_pde = run_cli(["verify", "pde", "--s", "3", "--degree", "8", "--format", "json"])
    pde = json.loads(verify_pde)
    if not pde["pass"] or pde["checks"][0]["residual_terms"] != 0:
        raise SystemExit("verify pde does not pass")

    payload = {
        "format": FORMAT,
        "version": 1,
        "max_n": MAX_N,
        "checked": {
            "structural_identities": len(entries),
            "golden_file": golden_checked,
            "face_census": census_checked,
            "face_census_cap": CENSUS_FACE_CAP,
            "brute_force_masks": brute_checked,
            "verify_all_iso_counts": iso_checks,
        },
        "entries": entries,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "fvectors.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    (OUT / "verify_all.json").write_text(verify_all)
    (OUT / "verify_pde_s3_d8.json").write_text(verify_pde)
    print(json.dumps(payload["checked"]))


if __name__ == "__main__":
    main()
