"""Seeded generation of the benchmark's input ideals and families.

Every generator takes a `random.Random` and returns plain data plus the
file text handed to nok, so the same seed always yields the same inputs.
The mathematical data (edges, prime components, generators) is kept next
to the text so that the checkers can verify nok's answers without calling
nok.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


@dataclass(frozen=True)
class GenIdeal:
    """A generated ideal: `kind` is "graph", "decomp" or "mprimary".

    `rows` are the inequalities cutting out the symbolic polyhedron, one
    (prime support, multiplicity) pair per component, or None for an
    m-primary ideal, whose symbolic polyhedron is its Newton polyhedron.
    `gens` are the minimal generators of the ideal itself.
    """

    name: str
    kind: str
    nvars: int
    text: str
    gens: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[frozenset, int], ...] | None = None


@dataclass(frozen=True)
class GenFamily:
    """A generated family; `base` names the GenIdeal it is built on, or is
    None for a ceiling family over (x1, x2)."""

    name: str
    kind: str
    text: str
    base: str | None = None
    alpha: Fraction = Fraction(0)
    beta: Fraction = Fraction(0)


def var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def monomial_text(exponent, names) -> str:
    terms = [name if e == 1 else f"{name}^{e}"
             for name, e in zip(names, exponent) if e]
    return "*".join(terms) if terms else "1"


def minimal_vectors(vectors) -> list[tuple[int, ...]]:
    """Componentwise-minimal elements, lex-sorted (independent of nok)."""
    unique = sorted(set(map(tuple, vectors)), key=lambda v: (sum(v), v))
    kept: list[tuple[int, ...]] = []
    for v in unique:
        if not any(all(x <= y for x, y in zip(m, v)) for m in kept):
            kept.append(v)
    return sorted(kept)


def minimal_vertex_covers(n: int, edges) -> list[frozenset]:
    """Minimal vertex covers of a graph, by brute force over subsets."""
    covers = [frozenset(s) for size in range(n + 1)
              for s in combinations(range(n), size)
              if all(set(e) & set(s) for e in edges)]
    return sorted((c for c in covers if not any(d < c for d in covers)),
                  key=sorted)


def random_graph(rng: random.Random, name: str, n: int,
                 max_edges: int | None = None) -> GenIdeal:
    """Edge ideal of a random graph on n vertices without isolated ones,
    with n - 1 to max_edges (default 2n - 2) edges."""
    pairs = list(combinations(range(n), 2))
    top = min(len(pairs), max_edges or 2 * n - 2)
    while True:
        m = rng.randint(n - 1, top)
        edges = sorted(rng.sample(pairs, m))
        if {v for e in edges for v in e} == set(range(n)):
            break
    names = var_names(n)
    gens = tuple(sorted(tuple(int(v in e) for v in range(n)) for e in edges))
    text = (f"# random graph on {n} vertices\nvars: {', '.join(names)}\n"
            f"gens: {', '.join(f'{names[i]}*{names[j]}' for i, j in edges)}\n")
    rows = tuple((c, 1) for c in minimal_vertex_covers(n, edges))
    return GenIdeal(name, "graph", n, text, gens, rows)


def decomposition_ideal_gens(n: int, rows) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of the intersection of the prime powers: the
    minimal lattice points of the box that meet every row."""
    box = [max((w for s, w in rows if j in s), default=0) for j in range(n)]
    return tuple(brute_minimal_points(n, box, lambda a: satisfies(a, rows, 1)))


def random_decomposition(rng: random.Random, name: str, n: int,
                         omega: int = 3) -> GenIdeal:
    """Intersection of 1 to 3 powers of monomial primes, as in the
    scaling-law criterion: random supports, multiplicities 1 to omega."""
    comps = {}
    for _ in range(rng.randint(1, 3)):
        support = frozenset(rng.sample(range(n), rng.randint(1, n)))
        comps[support] = max(comps.get(support, 0), rng.randint(1, omega))
    rows = tuple(sorted(comps.items(), key=lambda r: (sorted(r[0]), r[1])))
    names = var_names(n)
    text = (f"# random linear-power decomposition in {n} variables\n"
            f"vars: {', '.join(names)}\ncomponents: "
            + ", ".join(f"({','.join(names[j] for j in sorted(s))})^{w}"
                        for s, w in rows) + "\n")
    return GenIdeal(name, "decomp", n, text,
                    decomposition_ideal_gens(n, rows), rows)


def random_mprimary(rng: random.Random, name: str, n: int) -> GenIdeal:
    """Pure powers of every variable plus a few mixed monomials."""
    vectors = [tuple(rng.randint(2, 5) if i == j else 0 for j in range(n))
               for i in range(n)]
    while len(vectors) < n + 2:
        v = tuple(rng.randint(0, 3) for _ in range(n))
        if any(v):
            vectors.append(v)
    gens = tuple(minimal_vectors(vectors))
    names = var_names(n)
    text = (f"# random m-primary ideal in {n} variables\n"
            f"vars: {', '.join(names)}\n"
            f"gens: {', '.join(monomial_text(g, names) for g in gens)}\n")
    return GenIdeal(name, "mprimary", n, text, gens, None)


def symbolic_family(ideal: GenIdeal, name: str) -> GenFamily:
    body = ideal.text.split("\n", 1)[1]
    return GenFamily(name, "symbolic", "family: symbolic\n" + body,
                     base=ideal.name)


def power_family(ideal: GenIdeal, name: str) -> GenFamily:
    body = ideal.text.split("\n", 1)[1]
    return GenFamily(name, "power", "family: power\n" + body, base=ideal.name)


def random_ceiling_family(rng: random.Random, name: str) -> GenFamily:
    """I_k = (x1, x2)^ceil(alpha*k + beta) with alpha = p/q <= 1."""
    q = rng.randint(2, 5)
    alpha = Fraction(rng.randint(1, q), q)
    choices = [Fraction(0), Fraction(1), Fraction(-1, q)]
    beta = rng.choice([b for b in choices if math.ceil(alpha + b) >= 1])
    text = ("family: ceiling\nvars: x1, x2\ngens: x1, x2\n"
            f"alpha: {alpha}\nbeta: {beta}\n")
    return GenFamily(name, "ceiling", text, alpha=alpha, beta=beta)


def seeded_monomial(rng: random.Random, ideal: GenIdeal) -> tuple[tuple[int, ...], int]:
    """A point near the boundary of k*body: a sum of k generators, with
    one coordinate lowered half of the time."""
    k = rng.randint(1, 3)
    a = [0] * ideal.nvars
    for _ in range(k):
        g = rng.choice(ideal.gens)
        a = [x + y for x, y in zip(a, g)]
    if rng.random() < 0.5:
        support = [j for j, x in enumerate(a) if x]
        a[rng.choice(support)] -= 1
    return tuple(a), k


# shared exact helpers for the checkers

def satisfies(a, rows, k) -> bool:
    return all(sum(a[j] for j in s) >= k * w for s, w in rows)


def brute_minimal_points(n: int, box, predicate) -> list[tuple[int, ...]]:
    """Minimal points of {a in the box : predicate(a)} for an up-closed
    predicate, by enumerating the box."""
    points = []

    def walk(j, prefix):
        if j == n:
            if predicate(prefix):
                points.append(tuple(prefix))
            return
        for v in range(box[j] + 1):
            walk(j + 1, prefix + [v])

    walk(0, [])
    found = set(points)
    return sorted(p for p in points
                  if not any(p[j] and p[:j] + (p[j] - 1,) + p[j + 1:] in found
                             for j in range(n)))


def generate_survey(seed: int):
    """Generated ideals and families for the survey: fixed shapes and
    small multiplicities, so every seed asks for about the same work."""
    rng = random.Random(f"survey-{seed}")
    # the six-vertex graph stays sparse so that no generated query
    # competes with the c5cone queries for the tail percentile
    ideals = [random_graph(rng, "graph0", 4), random_graph(rng, "graph1", 5),
              random_graph(rng, "graph2", 6, max_edges=6)]
    ideals += [random_decomposition(rng, f"decomp{i}", n, omega=2)
               for i, n in enumerate((3, 4, 5))]
    ideals += [random_mprimary(rng, f"mprimary{i}", n)
               for i, n in enumerate((2, 3))]
    families = [symbolic_family(ideals[0], "fam_symbolic"),
                power_family(ideals[6], "fam_power"),
                random_ceiling_family(rng, "fam_ceiling")]
    members = [(g.name, seeded_monomial(rng, g)) for g in ideals]
    return ideals, families, members


def generate_hilbert(seed: int, count: int = 12) -> list[GenIdeal]:
    """Graphs on 4 and 5 vertices, alternating, for exhaustive runs.  At
    most n edges on n vertices: the Hilbert basis of a denser graph costs
    several times more, and one such graph would make the seed, not nok,
    set the workload's time."""
    rng = random.Random(f"hilbert-{seed}")
    return [random_graph(rng, f"graph{i}", 4 + i % 2, max_edges=4 + i % 2)
            for i in range(count)]


def generate_powers(seed: int, count: int = 3) -> list[GenIdeal]:
    """Decompositions in 3 and 4 variables with multiplicities at most 2:
    (x1, x2, x3, x4)^3 alone takes five times as long as the powers
    workload's median query at the same k."""
    rng = random.Random(f"powers-{seed}")
    return [random_decomposition(rng, f"decomp{i}", 3 + i % 2, omega=2)
            for i in range(count)]


def generate_library(seed: int, points: int = 10):
    """Pool of generated ideals and seeded query points per ideal."""
    rng = random.Random(f"library-{seed}")
    # sparse graphs, as in generate_hilbert: the invariant report of a
    # dense one costs several times more
    ideals = [random_graph(rng, f"graph{i}", n, max_edges=n)
              for i, n in enumerate((4, 5, 5))]
    ideals += [random_decomposition(rng, f"decomp{i}", n)
               for i, n in enumerate((3, 4))]
    ideals += [random_mprimary(rng, f"mprimary{i}", n)
               for i, n in enumerate((2, 3))]
    pts = {g.name: [seeded_monomial(rng, g) for _ in range(points)]
           for g in ideals}
    return ideals, pts
