"""Edge ideals of graphs against theorems about them.

For a graph G on n vertices, the edge ideal I(G) is generated by the
products x_i*x_j over its edges.  Three theorems pin down what nok
computes for it:
- the analytic spread is n minus the number of bipartite components,
  isolated vertices counted (Villarreal, "Rees algebras of edge ideals",
  Comm. Algebra 23, 1995), which checks mdc at sizes the brute-force face
  oracles cannot reach;
- the symbolic powers equal the ordinary ones exactly when G is
  bipartite, so NP = SP exactly then (Simis, Vasconcelos & Villarreal,
  "On the ideal theory of graphs", J. Algebra 167, 1994);
- the symbolic Rees algebra of the odd cycle C_(2m+1) is generated by
  the edges in degree 1 and the product of all its variables in degree
  m + 1 (the same paper);
- the vertex cover algebra, the symbolic Rees algebra of the cover ideal
  J(G), the intersection of the primes (x_i, x_j) over the edges, is
  generated in degree at most 2, and in degree 1 exactly when G is
  bipartite (Herzog, Hibi & Trung, "Symbolic powers of monomial ideals
  and vertex cover algebras", Adv. Math. 210, 2007).
"""

import hashlib
import json
import random
import time

import pytest

from nok import PrimeComponent, PrimeDecomposition, analytic_spread, \
    classify, classify_decomposition, hilbert_basis, mdc, minimalize, \
    newton_polyhedron, np_equals_sp, symbolic_analytic_spread, \
    symbolic_polyhedron
from nok.cli import main

# a connected graph on x1..x14 with a triangle (x6, x11, x12), whose
# NP and SP have mdc 13 and 12: a compact facet and a covering face tight
# on two facets decide them, where closing the SP's compact faces took
# about 20 s
GRAPH_14 = [(1, 4), (1, 6), (1, 8), (2, 4), (2, 12), (2, 13), (3, 5),
            (3, 10), (3, 11), (4, 7), (4, 11), (4, 14), (5, 7), (5, 10),
            (5, 13), (6, 7), (6, 10), (6, 11), (6, 12), (6, 14), (7, 13),
            (8, 9), (8, 11), (8, 12), (9, 13), (9, 14), (11, 12)]

# a graph on x1..x16 with two non-bipartite components, with triangles
# (x2, x3, x5) and (x4, x10, x15), whose NP and SP have mdc 15 and 13:
# the SP's mdc = n - 3 is the cover search's, where closing its compact
# faces took about 10 s
GRAPH_16 = [(1, 2), (1, 9), (1, 11), (1, 12), (1, 14), (2, 3), (2, 5),
            (2, 7), (2, 11), (2, 14), (2, 16), (3, 5), (3, 7), (4, 10),
            (4, 15), (5, 9), (5, 11), (5, 13), (5, 14), (5, 16), (6, 10),
            (7, 11), (7, 13), (7, 14), (7, 16), (8, 15), (9, 11), (9, 12),
            (9, 13), (9, 14), (10, 15), (11, 12), (11, 13), (11, 16),
            (13, 14), (14, 16)]


def edge_ideal(n, edges):
    return minimalize([tuple(int(v in edge) for v in range(n))
                       for edge in edges], n)


def bipartite_components(n, edges):
    """(number of connected components, number of them that are
    bipartite), isolated vertices counted, by two-colouring each
    component from its least vertex."""
    neighbours = {v: [] for v in range(n)}
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour = {}
    components = bipartite = 0
    for root in range(n):
        if root in colour:
            continue
        components += 1
        colour[root] = 0
        stack, two_coloured = [root], True
        while stack:
            v = stack.pop()
            for w in neighbours[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    two_coloured = False
        bipartite += two_coloured
    return components, bipartite


def seeded_graphs(seed, count, n_min, n_max):
    """count graphs with at least one edge: half of them have their edges
    across a random two-colouring, so that they are bipartite, and the
    rest are random of a random density."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(n_min, n_max)
        density = rng.uniform(0.15, 0.7)
        side = [rng.randrange(2) for _ in range(n)]
        across = len(graphs) % 2 == 0
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (not across or side[a] != side[b])
                 and rng.random() < density]
        if edges:
            graphs.append((n, edges))
    return graphs


def cycle(length):
    return [(v, (v + 1) % length) for v in range(length)]


def test_analytic_spread_is_n_minus_bipartite_components():
    graphs = seeded_graphs(31, 140, 2, 11)
    outcomes = set()
    for n, edges in graphs:
        components, bipartite = bipartite_components(n, edges)
        outcomes.add((bipartite == components, bipartite == 0))
        assert analytic_spread(edge_ideal(n, edges)) == n - bipartite, \
            (n, edges)
    # bipartite graphs, graphs with no bipartite component, and mixtures
    assert outcomes >= {(True, False), (False, True), (False, False)}


def test_analytic_spread_of_larger_graphs():
    # 12-18 vertices, where closing the compact faces took seconds to
    # minutes per graph.  With at most one bipartite component mdc(NP) is
    # n - 1 or n - 2, and the compact facet or a covering face tight on
    # two facets decides it; with more, the cover search ranks the faces
    # it finds
    outcomes = set()
    searched = 0
    for n, edges in seeded_graphs(41, 100, 12, 18):
        components, bipartite = bipartite_components(n, edges)
        searched += bipartite > 1
        outcomes.add((bipartite == components, bipartite == 0))
        assert analytic_spread(edge_ideal(n, edges)) == n - bipartite, \
            (n, edges)
    assert outcomes == {(True, False), (False, True), (False, False)}
    assert searched == 20


def connected_non_bipartite(rng, n):
    """A seeded connected graph on n vertices with an odd cycle."""
    while True:
        density = rng.uniform(0.25, 0.6)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < density]
        if bipartite_components(n, edges) == (1, 0):
            return edges


def test_symbolic_mdc_of_two_components_adds():
    # Ha, Nguyen, Trung & Trung, Math. Z. 294, 2020: in disjoint
    # variables the symbolic Rees algebra of I + J is the tensor product
    # of those of I and J, so ell_s adds and mdc(SP(I + J)) =
    # mdc(SP(I)) + mdc(SP(J)) + 1.  SP of a graph with an edge has no
    # compact facet (its facets are the minimal vertex covers and the
    # coordinates), so a graph with two components has mdc(SP) <= n - 3,
    # which the cover search decides, at 13-16 vertices
    rng = random.Random(43)
    for _ in range(6):
        n = rng.randint(13, 16)
        a = rng.randint(5, n - 5)
        left = connected_non_bipartite(rng, a)
        right = connected_non_bipartite(rng, n - a)
        both = left + [(u + a, v + a) for u, v in right]
        parts = [mdc(symbolic_polyhedron(classify(edge_ideal(m, edges))))
                 for m, edges in ((a, left), (n - a, right))]
        body = symbolic_polyhedron(classify(edge_ideal(n, both)))
        assert mdc(body) == sum(parts) + 1 <= n - 3, (n, both)


def graph_verb(monkeypatch, tmp_path, name, n, edges, verb):
    """(exit code, seconds) of `nok verb name --json` through cli.main,
    on the graph's edge ideal written to tmp_path/name, with the body
    caches cleared; the caller reads the output from capsys.  The file is
    read by its relative name, which the report echoes, so the output
    does not depend on tmp_path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(
        "vars: " + ", ".join(f"x{i}" for i in range(1, n + 1)) + "\ngens: "
        + ", ".join(f"x{a}*x{b}" for a, b in edges) + "\n")
    newton_polyhedron.cache_clear()
    symbolic_polyhedron.cache_clear()
    start = time.perf_counter()
    code = main([verb, name, "--json"])
    return code, time.perf_counter() - start


def test_spreads_of_the_14_vertex_graph():
    n, edges = 14, [(a - 1, b - 1) for a, b in GRAPH_14]
    assert bipartite_components(n, edges) == (1, 0)
    ideal = edge_ideal(n, edges)
    assert analytic_spread(ideal) == n
    assert symbolic_analytic_spread(classify(ideal)) == 13


@pytest.mark.parametrize("verb, digest", [
    ("sp", "6de5c97b8b363415fe28ba4e889afa2dff81086fd64231d1e2afa67fc10df959"),
    ("np", "7e09f2eb31bbb5d576d1e19f3811751844703bc2a1c731eb5d001a367586ebd0"),
    ("spread", None),
])
def test_14_vertex_graph_through_the_cli(capsys, monkeypatch, tmp_path,
                                         verb, digest):
    # the digests are those of the closure's answers, byte for byte
    code, elapsed = graph_verb(monkeypatch, tmp_path, "g14.nok", 14,
                               GRAPH_14, verb)
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1
    if digest:
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    else:
        assert '"analytic_spread": 14' in out
        assert '"symbolic_analytic_spread": 13' in out


def test_spreads_of_the_16_vertex_graph():
    n, edges = 16, [(a - 1, b - 1) for a, b in GRAPH_16]
    assert bipartite_components(n, edges) == (2, 0)
    ideal = edge_ideal(n, edges)
    assert mdc(newton_polyhedron(ideal)) == 15
    assert mdc(symbolic_polyhedron(classify(ideal))) == 13


@pytest.mark.parametrize("verb", ["sp", "spread"])
def test_16_vertex_graph_through_the_cli(capsys, monkeypatch, tmp_path,
                                         verb):
    # the digest was recorded from the closure's answer, which took about
    # 10 s; the cover search answers the same bytes in under a second
    code, elapsed = graph_verb(monkeypatch, tmp_path, "g16.nok", 16,
                               GRAPH_16, verb)
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1
    if verb == "sp":
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "94ceda7daed5765529181b0593725c80b78cbed8fee479ed491e7bf3fa14f66f"
    else:
        assert json.loads(out)["result"] == {
            "analytic_spread": 16, "symbolic_analytic_spread": 14}


def test_np_equals_sp_exactly_for_bipartite_graphs():
    graphs = seeded_graphs(37, 76, 3, 10)
    seen = set()
    for n, edges in graphs:
        components, bipartite = bipartite_components(n, edges)
        expected = bipartite == components
        seen.add(expected)
        assert np_equals_sp(classify(edge_ideal(n, edges))) == expected, \
            (n, edges)
    assert seen == {True, False}


@pytest.mark.parametrize("m", range(1, 7))
def test_odd_cycle_symbolic_rees_algebra(m):
    length = 2 * m + 1
    report = hilbert_basis(classify(edge_ideal(length, cycle(length))))
    assert report.exhaustive
    assert report.degrees == {1, m + 1}
    assert report.sgt == m + 1
    # the degree m + 1 element is the product of all the variables
    assert [e.exponent for e in report.elements if e.degree == m + 1] == \
        [(1,) * length]


def test_vertex_cover_algebra_is_standard_exactly_for_bipartite_graphs():
    seen = set()
    # seeded_graphs gives only graphs with an edge, so J(G) is proper
    for n, edges in seeded_graphs(7, 60, 4, 9):
        cover_ideal = classify_decomposition(PrimeDecomposition(
            n, tuple(PrimeComponent(edge) for edge in edges)))
        components, bipartite = bipartite_components(n, edges)
        seen.add(bipartite == components)
        report = hilbert_basis(cover_ideal)
        assert report.exhaustive
        assert report.degrees == ({1} if bipartite == components
                                  else {1, 2}), (n, edges)
    assert seen == {True, False}
