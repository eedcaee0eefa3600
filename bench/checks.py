"""Independent checks of nok's answers on generated inputs.

Nothing here imports nok.  Each checker receives the JSON `result` of one
query (or the plain form of a library answer), the generated input it was
asked about, and the results of the other queries on the same input, and
raises CheckError when the answer is wrong.  Symbolic-power answers are
checked against the decomposition's inequalities (coordinate sums over
each prime >= k*multiplicity); Newton-polyhedron answers against the
generators; membership certificates are verified as proofs.  Where a
brute-force enumeration of the box is small enough it also proves that a
generator list is complete.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gen import brute_minimal_points, minimal_vectors, satisfies

# largest box the completeness checks enumerate
BOX_LIMIT = 20_000


class CheckError(Exception):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckError(message)


def rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination."""
    basis: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        vec = [Fraction(x) for x in row]
        for col, base in basis:
            if vec[col]:
                coeff = vec[col]
                vec = [a - coeff * b for a, b in zip(vec, base)]
        col = next((j for j, a in enumerate(vec) if a), None)
        if col is not None:
            basis.append((col, [a / vec[col] for a in vec]))
    return len(basis)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n))


def is_antichain(vectors) -> bool:
    vs = [tuple(v) for v in vectors]
    return len(set(vs)) == len(vs) and minimal_vectors(vs) == sorted(vs)


# polyhedra

def _facets(result):
    return [(tuple(f["normal"]), f["offset"]) for f in result["facets"]]


def _vertices(result):
    return [tuple(Fraction(c) for c in v) for v in result["vertices"]]


def check_up_set_payload(result, n: int, valid_on, inequalities=None):
    """Shared checks on a polyhedron payload of an up-set in n variables.

    `valid_on` are points every facet must hold on (the generators for a
    Newton polyhedron); `inequalities`, when given, are (normal, offset)
    rows defining the set, which every vertex must satisfy with n
    independent tight rows.
    """
    require(result["nvars"] == n and result["dim"] == n, "wrong dimension")
    require(sorted(tuple(int(x) for x in r) for r in result["rays"])
            == sorted(unit(n, j) for j in range(n)), "rays are not e_j")
    facets = _facets(result)
    verts = _vertices(result)
    require(verts and verts == sorted(verts), "vertices missing or unsorted")
    for normal, offset in facets:
        require(all(a >= 0 for a in normal) and any(normal),
                f"facet normal {normal} is not a nonnegative nonzero row")
        require(all(dot(normal, p) >= offset for p in valid_on),
                f"facet {normal} >= {offset} cuts off a point")
        tight = [v for v in verts if dot(normal, v) == offset]
        require(tight, f"facet {normal} >= {offset} touches no vertex")
        span = [[a - b for a, b in zip(v, tight[0])] for v in tight[1:]]
        span += [unit(n, j) for j in range(n) if normal[j] == 0]
        require(rank(span) == n - 1, f"{normal} >= {offset} is not a facet")
    for v in verts:
        require(all(dot(normal, v) >= offset for normal, offset in facets),
                f"vertex {v} violates a facet")
        rows = facets if inequalities is None else inequalities
        tight = [normal for normal, offset in rows
                 if dot(normal, v) == offset]
        tight += [unit(n, j) for j in range(n)
                  if inequalities is not None and v[j] == 0]
        require(rank(tight) == n, f"{v} is not a vertex")
    require(0 <= result["mdc"] <= n - 1, "mdc out of range")


def symbolic_rows(ideal):
    n = ideal.nvars
    return [(tuple(int(j in s) for j in range(n)), w) for s, w in ideal.rows]


def check_np(ideal, result, group):
    n = ideal.nvars
    check_up_set_payload(result, n, ideal.gens)
    verts = _vertices(result)
    require(all(tuple(int(c) for c in v) in ideal.gens and
                all(c.denominator == 1 for c in v) for v in verts),
            "a Newton vertex is not a generator")
    if len({sum(g) for g in ideal.gens}) == 1:
        require(result["mdc"] + 1 == rank(ideal.gens),
                "mdc + 1 differs from the rank of the generator matrix")


def check_sp(ideal, result, group):
    if ideal.rows is None:
        require(result == group["np"], "SP of an m-primary ideal is not NP")
        return
    n = ideal.nvars
    rows = symbolic_rows(ideal)
    verts = _vertices(result)
    for v in verts:
        require(satisfies(v, ideal.rows, 1) and min(v) >= 0,
                f"vertex {v} violates a component")
    check_up_set_payload(result, n, verts, rows)


def check_spread(ideal, result, group):
    ell = result["analytic_spread"]
    require(ell == group["np"]["mdc"] + 1, "spread differs from NP's mdc")
    if ideal.kind == "mprimary":
        require(ell == ideal.nvars, "m-primary spread is not n")
    if len({sum(g) for g in ideal.gens}) == 1:
        require(ell == rank(ideal.gens), "spread is not the generator rank")
    require(result["symbolic_analytic_spread"] == group["sp"]["mdc"] + 1,
            "symbolic spread differs from SP's mdc")


def check_constants(ideal, result, group):
    verts = _vertices(group["sp"])
    denoms = [math.lcm(*(c.denominator for c in v)) for v in verts]
    c, big_d = math.lcm(*denoms), max(denoms)
    ell_s = group["spread"]["symbolic_analytic_spread"]
    require([int(d) for d in result["vertex_denominators"]] == denoms,
            "vertex denominators differ from SP's vertices")
    require(Fraction(result["c"]) == c and Fraction(result["D"]) == big_d,
            "c or D is wrong")
    require(Fraction(result["svd_lower"]) == c and
            Fraction(result["svd_upper"]) == max((ell_s - 1) * c, c),
            "svd window is wrong")
    require(Fraction(result["sgt_upper"]) == max(ell_s * big_d - 1, big_d),
            "sgt bound is wrong")
    require(result["analytic_spread"] == group["spread"]["analytic_spread"],
            "analytic spread disagrees with the spread verb")


def check_np_eq_sp(ideal, result, group):
    require(result["np_equals_sp"] ==
            (_facets(group["np"]) == _facets(group["sp"])),
            "np-eq-sp disagrees with the two facet lists")


def _np_predicate(group, scale):
    facets = _facets(group["np"])
    return lambda a: all(dot(nrm, a) >= scale * off for nrm, off in facets)


def check_generators(n, gens, predicate, box):
    """gens are exactly the minimal points of the up-closed predicate."""
    require(is_antichain(gens), "generators are not an antichain")
    for g in gens:
        require(predicate(g), f"generator {g} is outside the set")
        for j in range(n):
            if g[j]:
                lower = g[:j] + (g[j] - 1,) + g[j + 1:]
                require(not predicate(lower), f"generator {g} is not minimal")
    if math.prod(b + 1 for b in box) <= BOX_LIMIT:
        require(brute_minimal_points(n, box, predicate) == sorted(gens),
                "generator list is incomplete")


def _symbolic_power_parts(ideal, k, group):
    n = ideal.nvars
    if ideal.rows is not None:
        box = [max((k * w for s, w in ideal.rows if j in s), default=0)
               for j in range(n)]
        return n, (lambda a: satisfies(a, ideal.rows, k)), box
    verts = _vertices(group["np"])
    box = [math.ceil(k * max(v[j] for v in verts)) for j in range(n)]
    return n, _np_predicate(group, k), box


def check_symbolic_power(k):
    def check(ideal, result, group):
        require(result["k"] == k and result["nvars"] == ideal.nvars,
                "header fields are wrong")
        n, predicate, box = _symbolic_power_parts(ideal, k, group)
        check_generators(n, [tuple(g) for g in result["generators"]],
                         predicate, box)
    return check


def check_real_power(r: Fraction):
    def check(ideal, result, group):
        require(Fraction(result["r"]) == r, "r echoed wrongly")
        n = ideal.nvars
        verts = _vertices(group["np"])
        box = [math.ceil(r * max(v[j] for v in verts)) for j in range(n)]
        gens = [tuple(g) for g in result["generators"]]
        check_generators(n, gens, _np_predicate(group, r), box)
    return check


def check_combination(cert, point, is_vertex):
    """An inside certificate: point = sum of weight * vertex + remainder,
    with convex weights and a nonnegative remainder."""
    verts = [tuple(Fraction(c) for c in v) for v in cert["vertices"]]
    weights = [Fraction(w) for w in cert["weights"]]
    rem = [Fraction(c) for c in cert["remainder"]]
    require(all(is_vertex(v) for v in verts),
            "certificate uses a point that is not a vertex of the body")
    require(all(w >= 0 for w in weights) and sum(weights) == 1 and
            all(c >= 0 for c in rem), "not a convex combination")
    combo = [sum(w * v[j] for w, v in zip(weights, verts)) + rem[j]
             for j in range(len(point))]
    require(combo == list(point), "certificate does not sum to the point")


def check_violated(cert, point, is_valid):
    normal = tuple(cert["violated"]["normal"])
    offset = cert["violated"]["offset"]
    require(is_valid(normal, offset), "violated row is not valid on the body")
    require(dot(normal, point) < offset, "facet is not violated")


def check_certificate(cert, point, inside, body_vertices, body_facets):
    """A membership certificate is a proof: a convex combination of body
    vertices plus a nonnegative remainder, or a violated facet."""
    require(cert["inside"] == inside, "certificate contradicts the answer")
    if inside:
        check_combination(cert, point, lambda v: v in body_vertices)
    else:
        check_violated(cert, point, lambda *row: row in body_facets)


def check_member(a, k, closure):
    def check(ideal, result, group):
        require(result["exponent"] == list(a) and result["k"] == k,
                "query echoed wrongly")
        if closure or ideal.rows is None:
            member = _np_predicate(group, k)(a)
            body = group["np"]
        else:
            member = satisfies(a, ideal.rows, k)
            body = group["sp"]
        require(result["member"] == member, "membership answer is wrong")
        point = tuple(Fraction(x, k) for x in a)
        check_certificate(result["certificate"], point, member,
                          _vertices(body), _facets(body))
    return check


def check_normal_rees(ideal, result, group):
    """The degree bound is max(ell - 1, 1); ell is the generator rank when
    all generators have one degree, else the spread query's answer."""
    ell = (rank(ideal.gens) if len({sum(g) for g in ideal.gens}) == 1
           else group["spread"]["analytic_spread"])
    bound = max(ell - 1, 1)
    degrees = result["degrees"]
    require(result["degree_bound_used"] == bound, "degree bound is wrong")
    require(degrees == sorted(set(degrees)) and degrees[0] == 1 and
            degrees[-1] <= bound, "degrees out of range")


def check_hilbert(ideal, result, group):
    """Exhaustive Hilbert basis of a generated graph's Simis cone."""
    require(result["exhaustive"] is True, "run was not exhaustive")
    require(result["c_degree_compatible"] is True, "c-degree check failed")
    elements = [(tuple(e["exponent"]), e["degree"]) for e in result["elements"]]
    for a, d in elements:
        require(satisfies(a, ideal.rows, d), f"{a} is not in {d}*SP")
    require(sorted(a for a, d in elements if d == 1) == sorted(ideal.gens),
            "degree-one elements are not the generators")
    degrees = sorted({d for _, d in elements})
    require(result["degrees"] == degrees and result["sgt"] == degrees[-1] and
            result["lcm_degrees"] == math.lcm(*degrees),
            "degree summary is wrong")


# families

def check_family_body(family, result, group):
    if family.kind == "ceiling":
        s = ceiling_scale(family.alpha, family.beta)
        require(Fraction(result["scale"]) == s, "ceiling scale is wrong")
        require(_vertices(result) == [(0, s), (s, 0)], "body is not s*NP")
        return
    base = group["sp"] if family.kind == "symbolic" else group["np"]
    body = {k: v for k, v in result.items() if k != "kind"}
    require(result["kind"] == family.kind and body == base,
            "limit body differs from the base polyhedron")


def ceiling_scale(alpha: Fraction, beta: Fraction) -> Fraction:
    """inf over k of ceil(alpha*k + beta)/k; the sequence repeats with
    the period of alpha's denominator, so one long prefix settles it."""
    q = alpha.denominator
    return min([alpha] + [Fraction(math.ceil(alpha * k + beta), k)
                          for k in range(1, 4 * q + 1)])


def check_stabilize(c_max):
    def check(family, result, group):
        require(result["c_max"] == c_max, "c_max echoed wrongly")
        if family.kind == "ceiling":
            s = ceiling_scale(family.alpha, family.beta)
            hits = [c for c in range(1, c_max + 1)
                    if Fraction(math.ceil(family.alpha * c + family.beta), c)
                    == s]
            expected = hits[0] if hits else None
        elif family.kind == "power":
            expected = 1
        else:
            c = int(group["constants"]["c"])
            expected = c if c <= c_max else None
        require(result["stabilized"] == (expected is not None) and
                result["c"] == expected, "stabilization answer is wrong")
        if expected is None and family.kind == "ceiling":
            s = ceiling_scale(family.alpha, family.beta)
            require(result["witness"]["vertex"] == [str(s), "0"],
                    "witness vertex is wrong")
    return check


# library answers, in the plain form the runner gives them

def check_np_certificate(ideal, cert, a, k):
    """A certificate against NP(I) proves membership on its own: its
    vertices must be generators and its facet must hold on them."""
    point = tuple(Fraction(x, k) for x in a)
    if cert["inside"]:
        check_combination(cert, point, lambda v: v in ideal.gens)
    else:
        check_violated(cert, point, lambda normal, offset: (
            all(x >= 0 for x in normal) and
            all(dot(normal, g) >= offset for g in ideal.gens)))
    return cert["inside"]


def check_sp_certificate(ideal, cert, a, k):
    """Against SP(I) the answer is known from the rows; the certificate
    must agree and its vertices must lie in SP."""
    point = tuple(Fraction(x, k) for x in a)
    member = satisfies(point, ideal.rows, 1)
    require(cert["inside"] == member, "certificate contradicts the rows")
    if member:
        check_combination(cert, point,
                          lambda v: satisfies(v, ideal.rows, 1))
    else:
        check_violated(cert, point, lambda normal, offset: True)
    return member


def check_library_spread(ideal, ell):
    require(1 <= ell <= ideal.nvars, "spread out of range")
    if ideal.kind == "mprimary":
        require(ell == ideal.nvars, "m-primary spread is not n")
    if len({sum(g) for g in ideal.gens}) == 1:
        require(ell == rank(ideal.gens), "spread is not the generator rank")


def check_library_constants(ideal, constants):
    denoms, c, big_d = constants
    require(denoms and all(d >= 1 for d in denoms), "bad denominators")
    require(c == math.lcm(*denoms) and big_d == max(denoms), "c or D wrong")


def check_library_report(ideal, report, ell, constants):
    denoms, c, big_d = constants
    ell_s = report["ell_s"]
    require(report["ell"] == ell, "report spread differs from the query")
    require(report["vertex_denoms"] == denoms and report["c"] == c and
            report["D"] == big_d, "report constants differ")
    require(report["svd_lower"] == c and
            report["svd_upper"] == max((ell_s - 1) * c, c), "svd window")
    require(report["sgt_upper"] == max(ell_s * big_d - 1, big_d), "sgt bound")
