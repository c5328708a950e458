"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public entry points of each ``gcladder``
module in every ``gcladder`` namespace that binds them (for example the
``enumerate_faces`` that ``polytope`` imports), and ``uninstall`` puts the
originals back.  A timed entry point records a span: layer, start, end,
parent span and the serial number of the operation's execution.
Sub-microsecond helpers are only counted; their time stays with the
caller.  Spans stay in memory until the run ends.

``reduce_spans`` turns spans into per-layer self time (a span's length minus
the part of it its child spans cover) and per-layer entry counts.
``layer_metrics`` maps those, with the counters, onto the metric names in
``BENCHMARK.json``.
"""

import sys
from math import comb
from time import perf_counter

ROOT_LAYER = "bench.op"

# (layer, module, attribute path, timed).  Entries whose target does not
# exist in the program under test are skipped.
TARGETS = (
    ("genfunc.fpoly", "gcladder.genfunc", "f_polynomial", True),
    ("genfunc.fpoly", "gcladder.genfunc", "f_vector", True),
    ("genfunc.series.egf", "gcladder.genfunc", "fpolynomial_egf", True),
    ("genfunc.series.egf", "gcladder.genfunc", "vertex_count_egf", True),
    ("genfunc.series.apply", "gcladder.genfunc", "DiffOperator.apply", True),
    ("genfunc.series.pde", "gcladder.genfunc", "verify_generating_pde", True),
    ("genfunc.series.pde", "gcladder.genfunc", "verify_vertex_pde", True),
    ("genfunc.identities", "gcladder.genfunc", "check_operator_expansion", True),
    ("genfunc.identities", "gcladder.genfunc", "check_word_action", True),
    ("genfunc.identities", "gcladder.genfunc", "check_transform_round_trip", True),
    ("words", "gcladder.words", "reduce_composition", False),
    ("words", "gcladder.words", "all_words", False),
    ("words", "gcladder.words", "word_weight", False),
    ("words", "gcladder.words", "word_tilde", False),
    ("words", "gcladder.words", "r_transform", False),
    ("words", "gcladder.words", "d_transform", False),
    ("words", "gcladder.words", "interleave", False),
    ("words", "gcladder.words", "word_transforms", False),
    ("ladder.diagram", "gcladder.ladder", "build_diagram", True),
    ("ladder.recognizer", "gcladder.ladder", "is_face", False),
    ("ladder.recognizer", "gcladder.ladder", "is_face_local", False),
    ("ladder.enumerate", "gcladder.ladder", "enumerate_faces", True),
    ("ladder.enumerate", "gcladder.ladder", "face_census", True),
    ("ladder.brute_force", "gcladder.ladder", "brute_force_faces", True),
    ("kernels.scan", "gcladder.kernels", "accepted_face_masks", True),
    ("polytope.vertices", "gcladder.polytope", "polytope_vertices", True),
    ("polytope.lattice", "gcladder.polytope", "face_lattice", True),
    ("polytope.iso", "gcladder.polytope", "verify_isomorphism", True),
    ("polytope.maps", "gcladder.polytope", "phi", True),
    ("polytope.maps", "gcladder.polytope", "psi", True),
    ("records", "gcladder.records", "dumps", True),
    ("records", "gcladder.records", "face_record", True),
    ("records", "gcladder.records", "face_list_record", True),
    ("records", "gcladder.records", "fvector_record", True),
    ("records", "gcladder.records", "pde_report_record", True),
    ("records", "gcladder.records", "iso_report_record", True),
    ("records", "gcladder.records", "golden_payload", True),
    ("records", "gcladder.records", "check_golden", True),
    ("cli", "gcladder.cli", "main", True),
)


def program_modules():
    """Every loaded gcladder module, the package included."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gcladder" or name.startswith("gcladder."))
    ]


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


class Tracer:
    """Wraps program entry points, records spans, and counts work."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, execution tag]
        self.stack = []
        self.op = -1
        self.counts = {}  # counter name -> [value]
        self.missing = []  # TARGETS entries absent from the program
        self._patches = []  # (owner, attribute, original)
        self._seen = {}  # (kind, id) -> object already counted in this op

    # -- counters ---------------------------------------------------------

    def cell(self, name):
        return self.counts.setdefault(name, [0])

    def add(self, name, amount):
        self.cell(name)[0] += amount

    def value(self, name):
        return self.counts.get(name, [0])[0]

    def _first_use(self, kind, obj):
        key = (kind, id(obj))
        if key in self._seen:
            return False
        self._seen[key] = obj  # keep it alive so its id is not reused
        return True

    # Counters computed from the inputs and outputs of a call, outside
    # the span.

    def _after(self, attr, args, kwargs, result):
        if attr == "enumerate_faces":
            self.add("ladder.enumerate.faces", len(result))
        elif attr == "brute_force_faces":
            diagram = _first_arg(args, kwargs, "diagram")
            self.add("ladder.brute_force.subsets", 1 << diagram.num_edges)
            self.add("ladder.brute_force.accepted", len(result))
        elif attr == "fpolynomial_egf":
            num_vars = _first_arg(args, kwargs, "num_vars")
            degree = args[1] if len(args) > 1 else kwargs["degree"]
            self.add("genfunc.series.egf_terms", comb(num_vars + degree, degree))
        elif attr == "polytope_vertices":
            system = _first_arg(args, kwargs, "sys")
            if self._first_use(attr, system):
                self.add(
                    "polytope.vertices.subsystems",
                    comb(len(system.constraints), system.d),
                )
                self.add("polytope.vertices.found", len(result))
        elif attr == "face_lattice":
            system = _first_arg(args, kwargs, "sys")
            if self._first_use(attr, system):
                self.add("polytope.lattice.faces", len(result))
        elif attr == "verify_isomorphism":
            self.add("polytope.iso.pairs", result.face_count ** 2)
        elif attr == "dumps":
            self.add("records.bytes", len(result))

    # -- wrapping ---------------------------------------------------------

    def _timed(self, layer, attr, fn):
        spans, stack, after = self.spans, self.stack, self._after
        tracer = self
        pairs = attr == "apply"

        def wrapper(*args, **kwargs):
            if pairs:
                tracer.add(
                    "genfunc.series.apply_pairs",
                    len(args[0].terms) * len(args[1].terms),
                )
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            after(attr, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, layer, fn):
        cell = self.cell(layer + ".calls")

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every gcladder namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        namespaces = program_modules()
        for layer, modname, path, timed in TARGETS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None)
            if target is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = (
                self._timed(layer, attr, target) if timed else self._counted(layer, target)
            )
            if outer:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapper)
                continue
            for mod in namespaces:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of one operation."""
        self.op = op_id
        self._seen = {}
        self.stack.append(len(self.spans))
        self.spans.append([ROOT_LAYER, perf_counter(), 0.0, -1, op_id])

    def end_op(self):
        self.spans[self.stack.pop()][2] = perf_counter()
        if self.stack:
            raise RuntimeError("unbalanced spans at the end of an operation")
        self._seen = {}
        self.op = -1


def self_times(spans):
    """Self time of every span: its length minus the union of its children's
    intervals, each clipped to the parent."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(max(0.0, (end - start) - covered))
    return out


def reduce_spans(spans):
    """Per layer: total self time and number of entries into the layer
    (spans whose parent belongs to another layer)."""
    selfs = self_times(spans)
    self_s, entries = {}, {}
    for idx, span in enumerate(spans):
        layer, parent = span[0], span[3]
        self_s[layer] = self_s.get(layer, 0.0) + selfs[idx]
        if parent < 0 or spans[parent][0] != layer:
            entries[layer] = entries.get(layer, 0) + 1
    return self_s, entries


RATIOS = {
    "genfunc.memo.hit_ratio",
    "ladder.brute_force.accept_ratio",
    "polytope.vertices.yield",
    "trace.overhead_frac",
}


def unit_of(name):
    """Unit of a per-layer metric."""
    if name in RATIOS:
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, memo, overhead_frac):
    """Per-layer metric values keyed by their BENCHMARK.json names.

    ``memo`` is (hits, misses) of the f-polynomial memo, or None when the
    program exposes no such counter; metrics whose source is missing from
    the program are left out.
    """
    self_s, entries = reduce_spans(tracer.spans)
    value = tracer.value

    def s(layer):
        return self_s.get(layer, 0.0)

    out = {
        "genfunc.fpoly.calls": entries.get("genfunc.fpoly", 0),
        "genfunc.fpoly.self_s": s("genfunc.fpoly"),
        "genfunc.series.egf_s": s("genfunc.series.egf"),
        "genfunc.series.egf_terms": value("genfunc.series.egf_terms"),
        "genfunc.series.apply_s": s("genfunc.series.apply"),
        "genfunc.series.apply_pairs": value("genfunc.series.apply_pairs"),
        "genfunc.series.pde_s": s("genfunc.series.pde"),
        "genfunc.identities.self_s": s("genfunc.identities"),
        "words.calls": value("words.calls"),
        "ladder.diagram.builds": entries.get("ladder.diagram", 0),
        "ladder.diagram.self_s": s("ladder.diagram"),
        "ladder.recognizer.calls": value("ladder.recognizer.calls"),
        "ladder.enumerate.self_s": s("ladder.enumerate"),
        "ladder.enumerate.faces": value("ladder.enumerate.faces"),
        "ladder.enumerate.faces_per_s": _ratio(
            value("ladder.enumerate.faces"), s("ladder.enumerate")
        ),
        "ladder.brute_force.self_s": s("ladder.brute_force"),
        "ladder.brute_force.subsets": value("ladder.brute_force.subsets"),
        "ladder.brute_force.accept_ratio": _ratio(
            value("ladder.brute_force.accepted"), value("ladder.brute_force.subsets")
        ),
        "polytope.vertices.self_s": s("polytope.vertices"),
        "polytope.vertices.subsystems": value("polytope.vertices.subsystems"),
        "polytope.vertices.found": value("polytope.vertices.found"),
        "polytope.vertices.yield": _ratio(
            value("polytope.vertices.found"), value("polytope.vertices.subsystems")
        ),
        "polytope.lattice.self_s": s("polytope.lattice"),
        "polytope.lattice.faces": value("polytope.lattice.faces"),
        "polytope.iso.self_s": s("polytope.iso"),
        "polytope.iso.pairs": value("polytope.iso.pairs"),
        "polytope.maps.calls": entries.get("polytope.maps", 0),
        "polytope.maps.self_s": s("polytope.maps"),
        "records.self_s": s("records"),
        "records.bytes": value("records.bytes"),
        "cli.self_s": s("cli"),
        "bench.unattributed_s": s(ROOT_LAYER),
        "trace.overhead_frac": overhead_frac,
    }
    if "gcladder.kernels.accepted_face_masks" not in tracer.missing:
        out["kernels.scan.self_s"] = s("kernels.scan")
    if memo is not None:
        hits, misses = memo
        out["genfunc.memo.hits"] = hits
        out["genfunc.memo.misses"] = misses
        out["genfunc.memo.hit_ratio"] = _ratio(hits, hits + misses)
    return out
