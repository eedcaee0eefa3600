"""Span tracing of nok's public functions, installed from outside.

`Tracer.install` replaces every public function of each layer module with
a wrapper that records one span per call: name, start, end, parent span
and query id.  The wrapper is put into every nok module namespace that
holds the function, so calls through `from ... import` names are traced
too.  Spans live in flat arrays until the run ends; `summarize` turns
them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "fileio", "ideal", "linalg", "polyhedron", "bodies",
          "invariants", "simis", "families")

# functions whose argument and result sizes are recorded with the span
COUNT_IN = {"ideal.minimal_vectors"}
COUNT_OUT = {"ideal.minimal_vectors", "polyhedron.cone_extreme_rays",
             "polyhedron.minimal_lattice_points"}
# spans under these produce Hilbert-basis candidates
HILBERT_ROOTS = {"simis.hilbert_basis", "simis.normal_rees_generator_degrees"}
PARSE = {"fileio.parse_ideal_text", "fileio.parse_family_text"}
PAYLOAD = {"fileio.polyhedron_payload", "fileio.ideal_payload",
           "fileio.point_payload", "fileio.format_monomial",
           "fileio.format_point", "fileio.format_halfspace",
           "fileio.frac_to_str"}
SOLVE = {"linalg.solve_square", "linalg.solve_linear"}
CACHED = ("newton_polyhedron", "symbolic_polyhedron")


def public_functions(module):
    """(name, function) for each public function defined in the module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.n_in = array("q")
        self.n_out = array("q")
        self.stack: list[int] = []
        self.query_id = -1
        self.accepted = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count_in = name in COUNT_IN
        count_out = name in COUNT_OUT
        stack = self.stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, query, n_in, n_out = (self.parent, self.query, self.n_in,
                                      self.n_out)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_in:
                args = (list(args[0]),) + args[1:]
            idx = len(end)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            query.append(self.query_id)
            n_in.append(len(args[0]) if count_in else 0)
            n_out.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count_out:
                n_out[idx] = len(result)
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def count_accepted(self, fn):
        """Count the basis elements a private reduction returns, without
        a span, so its time stays with the public caller."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.accepted += len(result)
            return result
        return counted

    def install(self, package: str = "nok"):
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, fn in public_functions(module):
                replacements[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        simis = sys.modules[f"{package}.simis"]
        basis = simis._cone_basis
        replacements[id(basis)] = (basis, self.count_accepted(basis))
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def spans(self):
        """Spans as tuples (name, start, end, parent, query)."""
        return [(self.names[n], s, e, p, q) for n, s, e, p, q in
                zip(self.name_of, self.start, self.end, self.parent,
                    self.query)]


def self_times(starts, ends, parents) -> list[float]:
    """A span's duration minus the time its child spans cover.  Children
    of one span run one after another, so their durations add up."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def summarize(tracer: Tracer, traced_queries: int, cache_stats: dict) -> dict:
    """Per-layer metrics from the recorded spans: {name: (value, unit)}."""
    names = [tracer.names[n] for n in tracer.name_of]
    self_s = self_times(tracer.start, tracer.end, tracer.parent)
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    n_in: dict[str, int] = {}
    n_out: dict[str, int] = {}
    under = [False] * len(names)
    candidates = 0
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s[i]
        n_in[name] = n_in.get(name, 0) + tracer.n_in[i]
        n_out[name] = n_out.get(name, 0) + tracer.n_out[i]
        p = tracer.parent[i]
        under[i] = p >= 0 and (under[p] or names[p] in HILBERT_ROOTS)
        if under[i] and name == "polyhedron.minimal_lattice_points":
            candidates += tracer.n_out[i]

    def total(group):
        return sum(own.get(n, 0.0) for n in group)

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(name):
        hits, misses = cache_stats.get(name, (0, 0))
        return ratio(hits, hits + misses)

    mv = "ideal.minimal_vectors"
    metrics = {
        f"{mv}.self_s": (own.get(mv, 0.0), "s"),
        f"{mv}.calls": (calls.get(mv, 0), "count"),
        f"{mv}.in_vectors": (n_in.get(mv, 0), "count"),
        f"{mv}.out_vectors": (n_out.get(mv, 0), "count"),
        f"{mv}.kept_ratio": (ratio(n_out.get(mv, 0), n_in.get(mv, 0)),
                             "ratio"),
        "ideal.multiply.self_s": (own.get("ideal.multiply", 0.0), "s"),
        "ideal.power.calls": (calls.get("ideal.power", 0), "count"),
        "ideal.intersect.self_s": (own.get("ideal.intersect", 0.0), "s"),
        "ideal.minimal_primes.self_s": (own.get("ideal.minimal_primes", 0.0),
                                        "s"),
        "linalg.rank.self_s": (own.get("linalg.rank", 0.0), "s"),
        "linalg.rank.calls": (calls.get("linalg.rank", 0), "count"),
        "linalg.solve.self_s": (total(SOLVE), "s"),
    }
    cer = "polyhedron.cone_extreme_rays"
    mlp = "polyhedron.minimal_lattice_points"
    accepted = tracer.accepted
    metrics.update({
        f"{cer}.self_s": (own.get(cer, 0.0), "s"),
        f"{cer}.calls": (calls.get(cer, 0), "count"),
        f"{cer}.rays_out": (n_out.get(cer, 0), "count"),
        "polyhedron.faces.self_s": (own.get("polyhedron.faces", 0.0), "s"),
        "polyhedron.faces.calls_per_query": (
            ratio(calls.get("polyhedron.faces", 0), traced_queries), "count"),
        f"{mlp}.self_s": (own.get(mlp, 0.0), "s"),
        f"{mlp}.points_out": (n_out.get(mlp, 0), "count"),
        "simis.hilbert.candidates": (candidates, "count"),
        "simis.hilbert.accepted": (accepted, "count"),
        "simis.hilbert.accept_ratio": (ratio(accepted, candidates), "ratio"),
        "simis.hilbert_basis.self_s": (own.get("simis.hilbert_basis", 0.0),
                                       "s"),
        "bodies.newton_polyhedron.hit_ratio": (
            hit_ratio("newton_polyhedron"), "ratio"),
        "bodies.symbolic_polyhedron.hit_ratio": (
            hit_ratio("symbolic_polyhedron"), "ratio"),
        "bodies.membership_certificate.self_s": (
            own.get("bodies.membership_certificate", 0.0), "s"),
        "invariants.invariant_report.self_s": (
            own.get("invariants.invariant_report", 0.0), "s"),
        "families.stabilization_check.self_s": (
            own.get("families.stabilization_check", 0.0), "s"),
        "families.member_ideal.calls": (calls.get("families.member_ideal", 0),
                                        "count"),
        "fileio.parse.self_s": (total(PARSE), "s"),
        "fileio.payload.self_s": (total(PAYLOAD), "s"),
        "cli.main.self_s": (own.get("cli.main", 0.0), "s"),
    })
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(v for k, v in own.items() if k.startswith(layer + ".")), "s")
    metrics["trace.spans"] = (len(names), "count")
    return metrics


def hot_spots(tracer: Tracer, top: int = 8) -> list[tuple[str, float, int]]:
    """The functions with the largest self time: (name, self_s, calls)."""
    self_s = self_times(tracer.start, tracer.end, tracer.parent)
    own: dict[str, list] = {}
    for n, s in zip(tracer.name_of, self_s):
        entry = own.setdefault(tracer.names[n], [0.0, 0])
        entry[0] += s
        entry[1] += 1
    ranked = sorted(own.items(), key=lambda kv: -kv[1][0])[:top]
    return [(name, s, c) for name, (s, c) in ranked]
