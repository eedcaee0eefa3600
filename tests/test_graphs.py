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
import random
import time

import pytest

from nok import PrimeComponent, PrimeDecomposition, analytic_spread, \
    classify, classify_decomposition, hilbert_basis, minimalize, \
    newton_polyhedron, np_equals_sp, symbolic_analytic_spread, \
    symbolic_polyhedron
from nok.cli import main

# a connected graph on x1..x14 with a triangle (x6, x11, x12), whose
# NP and SP have mdc 13 and 12; closing the SP's compact faces took about
# 20 s
GRAPH_14 = [(1, 4), (1, 6), (1, 8), (2, 4), (2, 12), (2, 13), (3, 5),
            (3, 10), (3, 11), (4, 7), (4, 11), (4, 14), (5, 7), (5, 10),
            (5, 13), (6, 7), (6, 10), (6, 11), (6, 12), (6, 14), (7, 13),
            (8, 9), (8, 11), (8, 12), (9, 13), (9, 14), (11, 12)]


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
    # 12-18 vertices and at most one bipartite component, so mdc(NP) is
    # n - 1 or n - 2: a compact facet or a compact ridge decides it, where
    # closing the compact faces took seconds to minutes per graph
    outcomes = set()
    for n, edges in seeded_graphs(41, 100, 12, 18):
        components, bipartite = bipartite_components(n, edges)
        if bipartite > 1:
            continue
        outcomes.add((bipartite == components, bipartite == 0))
        assert analytic_spread(edge_ideal(n, edges)) == n - bipartite, \
            (n, edges)
    assert outcomes == {(True, False), (False, True), (False, False)}


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
    # the file is read by its relative name, which the report echoes, so
    # the digests are those of the closure's answers, byte for byte
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g14.nok").write_text(
        "vars: " + ", ".join(f"x{i}" for i in range(1, 15)) + "\ngens: "
        + ", ".join(f"x{a}*x{b}" for a, b in GRAPH_14) + "\n")
    newton_polyhedron.cache_clear()
    symbolic_polyhedron.cache_clear()
    start = time.perf_counter()
    code = main([verb, "g14.nok", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1
    if digest:
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    else:
        assert '"analytic_spread": 14' in out
        assert '"symbolic_analytic_spread": 13' in out


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
