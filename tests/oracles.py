"""Independent reference implementations used to cross-check the
library.  Everything here is deliberately naive (exhaustive subset and
box scans, a self-contained Gaussian solver) and shares no algorithmic
code with the package, only its public data types."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from nok import intersect, minimalize, power, symbolic_power


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def slack(h, x):
    """<normal, x> - offset: nonnegative exactly when x satisfies the
    half-space h."""
    return dot(h.normal, x) - h.offset


def solve_square(matrix, rhs):
    """Solve a square rational system by Gauss-Jordan; None if singular."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def solve_linear(matrix, rhs):
    """Solve a rational system of any shape by Gauss-Jordan: one solution
    with the free variables set to zero, or None if it is inconsistent."""
    n = len(matrix[0]) if matrix else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(matrix, rhs)]
    pivots = []
    for col in range(n):
        top = len(pivots)
        pivot = next((r for r in range(top, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[top], aug[pivot] = aug[pivot], aug[top]
        lead = aug[top][col]
        aug[top] = [x / lead for x in aug[top]]
        for r in range(len(aug)):
            if r != top and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[top])]
        pivots.append(col)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    solution = [Fraction(0)] * n
    for top, col in enumerate(pivots):
        solution[col] = aug[top][n]
    return solution


def matrix_rank(rows):
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col] / lead
                work[r] = [x - factor * y
                           for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of a polyhedron, recorded by its tight facets and vertices."""

    tight_facets: tuple
    vertex_set: tuple
    dim: int
    compact: bool


def faces(body):
    """Every face meeting the vertex set, sorted by dimension and then by
    tight facets: the closure under intersection of the vertex incidence
    masks, read off the facet slacks and extended through every mask.  A
    face's dimension is nvars minus the rank of its tight normals; it is
    compact when each coordinate has a tight normal positive there, so
    that no unit ray lies in it.  The reference for mdc and for
    mdc_by_closure, which extends compact masks only and ranks the
    maximal compact faces alone."""
    n = body.nvars
    masks = [sum(1 << i for i, h in enumerate(body.facets)
                 if slack(h, v) == 0) for v in body.vertices]
    closed = set(masks)
    while True:
        more = {a & b for a in closed for b in masks} - closed
        if not more:
            break
        closed |= more
    out = []
    for mask in closed:
        tight = tuple(i for i in range(len(body.facets)) if mask >> i & 1)
        normals = [body.facets[i].normal for i in tight]
        members = tuple(v for v, m in zip(body.vertices, masks)
                        if m & mask == mask)
        compact = all(any(a[j] > 0 for a in normals) for j in range(n))
        out.append(FaceDescriptor(tight, members, n - matrix_rank(normals),
                                  compact))
    out.sort(key=lambda f: (f.dim, f.tight_facets))
    return out


def mdc_by_closure(body):
    """mdc by closing the vertex incidence masks under intersection
    through compact masks only: a closed mask is the set of facets tight
    on its face, which is compact when the mask meets every coordinate's
    set of facets positive there, and compactness passes to subfaces, so
    no other mask is extended.  Each minimal compact mask is a maximal
    compact face; taken in increasing popcount, a mask that contains
    another compact mask contains a minimal one already kept, so only
    those are ranked.  The reference for mdc at 6-8 variables, where
    `faces`, which closes every mask, is too slow."""
    n = body.nvars
    masks = [sum(1 << i for i, h in enumerate(body.facets)
                 if slack(h, v) == 0) for v in body.vertices]
    covers = [sum(1 << i for i, h in enumerate(body.facets)
                  if h.normal[j] > 0) for j in range(n)]
    # {mask reached: compact}
    closed = dict.fromkeys(masks, True)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in masks:
                c = a & b
                if c not in closed:
                    closed[c] = all(c & cover for cover in covers)
                    if closed[c]:
                        fresh.append(c)
        frontier = fresh
    top = []
    for m in sorted((m for m, compact in closed.items() if compact),
                    key=int.bit_count):
        if not any(o & m == o for o in top):
            top.append(m)
    return n - min(matrix_rank([h.normal for i, h in enumerate(body.facets)
                                if m >> i & 1]) for m in top)


def fraction_decompose(body, point):
    """The split point = u + r of a point of the body, with u on a compact
    face and r >= 0, on Fraction slacks: walk down each coordinate that is
    free on the current face, in order, to the nearest facet.  The
    reference for the walk in integers behind membership_certificate."""
    x = tuple(Fraction(c) for c in point)
    u = x
    while True:
        tight = [h for h in body.facets if slack(h, u) == 0]
        free = next((j for j in range(body.nvars)
                     if all(h.normal[j] == 0 for h in tight)), None)
        if free is None:
            break
        lam = min(Fraction(slack(h, u), h.normal[free])
                  for h in body.facets if h.normal[free] > 0)
        u = tuple(c - lam if j == free else c for j, c in enumerate(u))
    return u, tuple(a - b for a, b in zip(x, u))


def bareiss_every_row(rows, ncols):
    """Fraction-free Gauss-Jordan elimination that updates every row at
    every pivot, zero or not: the reference for linalg._gauss_jordan,
    which skips the rows the update leaves unchanged.  In place; returns
    (d, pivots) as _gauss_jordan does."""
    prev = 1
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[col]
        for i, row in enumerate(rows):
            if i != k:
                f = row[col]
                rows[i] = [(pivot * x - f * y) // prev
                           for x, y in zip(row, pivot_row)]
        prev = pivot
        pivots.append(col)
    return prev, pivots


def brute_force_vertices(halfspaces, nvars):
    """Vertices as basic feasible solutions: solve every nvars-subset of
    facet rows and keep the feasible solutions."""
    rows = [(list(h.normal), h.offset) for h in halfspaces]
    found = set()
    for subset in combinations(range(len(rows)), nvars):
        solution = solve_square([rows[i][0] for i in subset],
                                [rows[i][1] for i in subset])
        if solution is None:
            continue
        if all(dot(normal, solution) >= offset for normal, offset in rows):
            found.add(tuple(solution))
    return sorted(found)


def satisfies_all(halfspaces, point, dilate=1):
    return all(dot(h.normal, point) >= dilate * h.offset for h in halfspaces)


def dilate_box(body, k):
    """Per-coordinate ceiling of the k-dilated body's vertex coordinates:
    a box containing every componentwise-minimal lattice point."""
    return [math.ceil(k * max(v[j] for v in body.vertices))
            for j in range(body.nvars)]


def brute_force_minimal_points(halfspaces, box, dilate=1):
    """Componentwise-minimal lattice points of the dilated body, by an
    exhaustive scan of the integer box."""
    points = [p for p in product(*(range(b + 1) for b in box))
              if satisfies_all(halfspaces, p, dilate)]
    minimal = []
    for p in points:
        if not any(q != p and all(x <= y for x, y in zip(q, p))
                   for q in points):
            minimal.append(p)
    return sorted(minimal)


def symbolic_power_by_intersection(decomposition, k):
    """I^(k) as the literal intersection of the k*omega powers of the
    decomposition's components, entirely in the ideal lattice."""
    pieces = [power(comp.ideal(decomposition.nvars), k * comp.multiplicity)
              for comp in decomposition.components]
    return intersect(pieces)


def veronese_by_products(classified, d, k_max):
    """I^(dk) = (I^(d))^k for every k <= k_max, each side built as a whole
    ideal: the symbolic power against the ordinary power of I^(d)."""
    base = symbolic_power(classified, d)
    return all(symbolic_power(classified, d * k) == power(base, k)
               for k in range(2, k_max + 1))


def closure_member_naive(ideal, exponent, k, m_max=24):
    """Definitional integral-closure membership, truncated at power
    m_max: some m-th power of the monomial lies in I^(k*m).  One-sided:
    True is a certificate, False may just mean m_max was too small."""
    for m in range(1, m_max + 1):
        scaled = tuple(m * a for a in exponent)
        if power(ideal, k * m).contains_monomial(scaled):
            return True
    return False


def hilbert_basis_brute(body, bound):
    """Degree-bounded semigroup generators of the cone over `body`, by
    unrestricted decomposition search: (a, k) is a generator iff there
    is no split a = b + (a - b) with b any nonzero lattice point of
    j*body, 1 <= j < k, and a - b in (k - j)*body.  Nothing is assumed
    about where reducers live, unlike the library's accepted-basis
    reduction."""
    facets = body.facets
    elements = []
    for k in range(1, bound + 1):
        for a in brute_force_minimal_points(facets, dilate_box(body, k),
                                            dilate=k):
            reducible = False
            for j in range(1, k):
                for b in product(*(range(x + 1) for x in a)):
                    if not any(b) or not satisfies_all(facets, b, j):
                        continue
                    rest = tuple(x - y for x, y in zip(a, b))
                    if satisfies_all(facets, rest, k - j):
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                elements.append((a, k))
    return elements


def is_graded_family(member, max_total):
    """Check I_p * I_q inside I_(p+q) for all p + q <= max_total, one
    generator product at a time."""
    for p in range(1, max_total):
        for q in range(p, max_total - p + 1):
            target = member(p + q)
            for g in member(p).generators:
                for h in member(q).generators:
                    together = tuple(x + y for x, y in zip(g, h))
                    if not target.contains_monomial(together):
                        return False
    return True


def ceiling_minimum_scan(family):
    """The least ratio ceil(alpha*k + beta)/k of a ceiling family with
    beta <= -1/q, alpha = p/q, and the least k attaining it, by scanning
    every k <= q in integers: with b = ceil(q*beta), the exponent at k is
    ceil((p*k + b)/q), and a ratio below alpha grows towards it along
    k, k + q, k + 2q, ..., so the prefix holds the minimum."""
    p, q = family.alpha.numerator, family.alpha.denominator
    b = math.ceil(q * family.beta)
    best, best_k = p, q
    for k in range(1, q + 1):
        exponent = -((-p * k - b) // q)
        if exponent * best_k < best * k:
            best, best_k = exponent, k
    return Fraction(best, best_k), best_k


def is_prime_power(ideal):
    """Is the ideal P^m for a monomial prime P, or the unit ideal?  P is
    the prime of the generators' support and m the first generator's
    degree, and P^m is expanded and compared."""
    if ideal.is_unit():
        return True
    n = ideal.nvars
    prime = minimalize([tuple(int(i == j) for i in range(n))
                        for j in range(n)
                        if any(g[j] for g in ideal.generators)])
    return power(prime, sum(ideal.generators[0])) == ideal
