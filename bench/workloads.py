"""The benchmark's query lists, one per workload.

A CLI query is an argv for `nok.cli.main` (the runner adds `--json`); a
library query is a function of the imported `nok` package.  Queries on
fixture files are checked against recorded references; queries on
generated inputs carry a checker from `checks` and the name of the input
whose other results the checker may consult.

Each workload stresses a different layer, so that a change to one layer
shows on one workload and not on another:

- survey: polyhedron construction (`cone_extreme_rays`, `faces`/`mdc`,
  `linalg.rank`) plus parsing and formatting, cold.  Computing derived
  data such as `mdc` once per polyhedron moves `latency_p50_ms` here.
- hilbert: lattice enumeration (`minimal_lattice_points`) and candidate
  reduction in the Simis cone, no ideal arithmetic to speak of.  A
  triangulated Hilbert basis moves `wall_s` here and not on powers or
  survey; lean ideal arithmetic leaves it unchanged.
- powers: ideal arithmetic (`minimal_vectors` through `multiply`, `power`
  and the `MonomialIdeal` constructor).  Lean ideal arithmetic moves
  `wall_s` here and not on hilbert.
- library: one warm process with its polyhedron caches kept; caching
  derived data moves its latencies, bounding the caches shows here in
  latency or `peak_rss_mb`, and neither shows on the cold survey.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import gen

IDEALS = ("triangle", "weighted", "c5", "c5cone", "gt2sharp", "mprimary",
          "principal", "star42", "star43", "star44")
FAMILIES = ("ceiling", "intersection", "power_mprimary", "symbolic_triangle")
WORKLOADS = ("survey", "hilbert", "powers", "library")
# seconds one pass takes on a 2-core 2.1 GHz Xeon, host calibration
# included; sets the pass count
PASS_SECONDS = {"survey": 4.9, "hilbert": 3.1, "powers": 4.6, "library": 2.0}

# c5cone Hilbert basis truncated at this degree: long enough that lattice
# enumeration dominates, short enough to repeat (the exhaustive run, bound
# 24, takes about a minute)
HILBERT_BOUND = 12
REAL_POWER = Fraction(3, 2)


@dataclass
class Query:
    key: str
    argv: list | None = None
    call: Callable | None = None
    group: str | None = None
    label: str | None = None
    subject: object = None
    check: Callable | None = None


def ideal_path(name: str) -> str:
    return f"ideals/{name}.nok"


def family_path(name: str) -> str:
    return f"families/{name}.nok"


def vector_text(a) -> str:
    return "[" + ",".join(str(x) for x in a) + "]"


def light_verbs(path: str, monomial: str, k: int):
    """(label, argv) for every light verb on one ideal file."""
    out = [("np", ["np", path]), ("sp", ["sp", path]),
           ("spread", ["spread", path]), ("constants", ["constants", path]),
           ("np-eq-sp", ["np-eq-sp", path])]
    out += [(f"symbolic-power:{k_}", ["symbolic-power", path, "-k", str(k_)])
            for k_ in (1, 2, 3)]
    out.append(("real-power", ["real-power", path, "-r", str(REAL_POWER)]))
    out.append(("member", ["member", path, "-m", monomial, "-k", str(k),
                           "--certificate"]))
    out.append(("member-closure", ["member", path, "-m", monomial, "-k",
                                   str(k), "--closure", "--certificate"]))
    out.append(("normal-rees", ["normal-rees", path]))
    return out


def ideal_checks(a, k):
    return {"np": checks.check_np, "sp": checks.check_sp,
            "spread": checks.check_spread,
            "constants": checks.check_constants,
            "np-eq-sp": checks.check_np_eq_sp,
            "symbolic-power:1": checks.check_symbolic_power(1),
            "symbolic-power:2": checks.check_symbolic_power(2),
            "symbolic-power:3": checks.check_symbolic_power(3),
            "real-power": checks.check_real_power(REAL_POWER),
            "member": checks.check_member(a, k, closure=False),
            "member-closure": checks.check_member(a, k, closure=True),
            "normal-rees": checks.check_normal_rees}


def write_input(directory: Path, name: str, text: str) -> str:
    path = directory / f"{name}.nok"
    path.write_text(text)
    return path.as_posix()


def survey(seed: int, inputs: Path, fixtures: dict) -> list[Query]:
    queries = []
    for name in IDEALS:
        ones = vector_text([1] * fixtures[name].classified.ideal.nvars)
        for _, argv in light_verbs(ideal_path(name), ones, 2):
            queries.append(Query(" ".join(argv), argv))
    for name in FAMILIES:
        for verb in ("family-body", "stabilize"):
            argv = [verb, family_path(name)]
            queries.append(Query(" ".join(argv), argv))
    ideals, families, members = gen.generate_survey(seed)
    point = dict(members)
    for ideal in ideals:
        path = write_input(inputs, ideal.name, ideal.text)
        a, k = point[ideal.name]
        verify = ideal_checks(a, k)
        for label, argv in light_verbs(path, vector_text(a), k):
            queries.append(Query(f"{ideal.name} {label}", argv, group=ideal.name,
                                 label=label, subject=ideal,
                                 check=verify[label]))
    for fam in families:
        path = write_input(inputs, fam.name, fam.text)
        group = fam.base or fam.name
        queries.append(Query(f"{fam.name} family-body", ["family-body", path],
                             group=group, label=f"{fam.name}:body",
                             subject=fam, check=checks.check_family_body))
        queries.append(Query(f"{fam.name} stabilize", ["stabilize", path],
                             group=group, label=f"{fam.name}:stabilize",
                             subject=fam, check=checks.check_stabilize(30)))
    return queries


def hilbert(seed: int, inputs: Path, fixtures: dict) -> list[Query]:
    argv = ["hilbert", ideal_path("c5cone"), "--bound", str(HILBERT_BOUND)]
    queries = [Query(" ".join(argv), argv)]
    for name in IDEALS:
        for verb in (["hilbert"] if name != "c5cone" else []) + ["normal-rees"]:
            argv = [verb, ideal_path(name)]
            queries.append(Query(" ".join(argv), argv))
    for ideal in gen.generate_hilbert(seed):
        path = write_input(inputs, ideal.name, ideal.text)
        queries.append(Query(f"{ideal.name} hilbert", ["hilbert", path],
                             group=ideal.name, label="hilbert", subject=ideal,
                             check=checks.check_hilbert))
        queries.append(Query(f"{ideal.name} normal-rees", ["normal-rees", path],
                             group=ideal.name, label="normal-rees",
                             subject=ideal,
                             check=checks.check_normal_rees))
    return queries


# ideal arithmetic on fixtures, cheapest first.  The median latency is
# that of real-power c5cone -r 4: the queries just below and above it take
# under half and over twice its time, so that the median does not hop
# from one query to its neighbour as the host's speed drifts, and every
# generated query is cheaper still, so that it does not move with the seed
POWERS_FIXTURES = (
    ["family-body", family_path("intersection")],
    ["stabilize", family_path("intersection")],
    ["symbolic-power", ideal_path("c5"), "-k", "8"],
    ["veronese", ideal_path("gt2sharp"), "--kmax", "3"],
    ["real-power", ideal_path("c5cone"), "-r", "4"],
    ["stabilize", family_path("ceiling"), "--cmax", "60"],
    ["veronese", ideal_path("c5"), "--kmax", "3"],
    ["symbolic-power", ideal_path("c5"), "-k", "12"],
    ["symbolic-power", ideal_path("c5cone"), "-k", "7"],
    ["real-power", ideal_path("c5cone"), "-r", "5"],
    ["veronese", ideal_path("star43"), "--kmax", "3"],
    ["symbolic-power", ideal_path("c5cone"), "-k", "8"],
)


# k for the generated decompositions: at k = 4 the costliest of them,
# (x1, x2, x3, x4)^2, takes under a fifth of the median query's time
GENERATED_POWER = 4


def powers(seed: int, inputs: Path, fixtures: dict) -> list[Query]:
    queries = [Query(" ".join(argv), list(argv)) for argv in POWERS_FIXTURES]
    for ideal in gen.generate_powers(seed):
        path = write_input(inputs, ideal.name, ideal.text)
        argv = ["symbolic-power", path, "-k", str(GENERATED_POWER)]
        queries.append(Query(f"{ideal.name} symbolic-power {GENERATED_POWER}",
                             argv, group=ideal.name, label="sp",
                             subject=ideal, check=checks.check_symbolic_power(
                                 GENERATED_POWER)))
    return queries


# library workload: calls on parsed ideals, caches kept warm

def _plain_constants(c):
    return [list(c.denoms), c.c, c.D]


def library_calls(nok, classified, a, k, sp_ok):
    """(label, function of nok) for the membership queries of one point."""
    point = tuple(Fraction(x, k) for x in a)
    calls = [
        ("symbolic", lambda: nok.member_symbolic(classified, a, k)),
        ("closure", lambda: nok.member_integral_closure(classified.ideal, a, k)),
        ("np_cert", lambda: nok.membership_certificate(
            nok.newton_polyhedron(classified.ideal), point)),
    ]
    if sp_ok:
        calls.append(("sp_cert", lambda: nok.membership_certificate(
            nok.symbolic_polyhedron(classified), point)))
    return calls


def library(seed: int, nok, fixtures: dict) -> list[Query]:
    """`fixtures` maps fixture names to parsed ideals."""
    queries = []
    rng = random.Random("library-fixtures")
    pool = [(name, parsed.classified, None) for name, parsed in fixtures.items()]
    ideals, points = gen.generate_library(seed)
    for ideal in ideals:
        parsed = nok.parse_ideal_text(ideal.text)
        pool.append((ideal.name, parsed.classified, ideal))
    for name, ci, ideal in pool:
        whole = [("spread", lambda ci=ci: nok.analytic_spread(ci.ideal)),
                 ("constants", lambda ci=ci: _plain_constants(
                     nok.vertex_constants(ci))),
                 ("report", lambda ci=ci: nok.invariant_report(ci))]
        if ideal is None:
            gens = ci.ideal.generators
            pts = []
            for _ in range(4):
                kk = rng.randint(1, 3)
                a = [sum(col) for col in zip(*(rng.choice(gens)
                                              for _ in range(kk)))]
                pts.append((tuple(a), kk))
        else:
            pts = points[name]
        for label, fn in whole:
            queries.append(_lib_query(name, label, fn, ideal, None))
        for i, (a, kk) in enumerate(pts):
            for label, fn in library_calls(nok, ci, a, kk, ci.supports_sp()):
                queries.append(_lib_query(name, f"{label}:{i}", fn, ideal,
                                          (a, kk)))
    return queries


def _lib_query(name, label, fn, ideal, ak):
    check = None if ideal is None else library_check(label, ak)
    return Query(f"lib {name} {label}", call=fn, group=name, label=label,
                 subject=ideal, check=check)


def library_check(label, ak):
    kind = label.split(":")[0]

    def check(ideal, result, group):
        if kind == "spread":
            checks.check_library_spread(ideal, result)
        elif kind == "constants":
            checks.check_library_constants(ideal, result)
        elif kind == "report":
            checks.check_library_report(ideal, result, group["spread"],
                                        group["constants"])
        elif kind == "np_cert":
            checks.check_np_certificate(ideal, result, *ak)
        elif kind == "sp_cert" and ideal.rows:
            checks.check_sp_certificate(ideal, result, *ak)
        elif kind == "sp_cert":  # m-primary: SP is NP
            checks.check_np_certificate(ideal, result, *ak)
        elif kind == "closure":
            proven = group["np_cert:" + label.split(":")[1]]["inside"]
            checks.require(result == proven, "closure answer is wrong")
        else:
            a, k = ak
            i = label.split(":")[1]
            expected = (gen.satisfies(a, ideal.rows, k) if ideal.rows
                        else group["np_cert:" + i]["inside"])
            checks.require(result == expected, "symbolic answer is wrong")
    return check
