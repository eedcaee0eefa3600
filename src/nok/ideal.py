"""Monomial ideals represented by their minimal generating exponent vectors.

A monomial ideal in n variables is stored as the antichain (under
componentwise <=) of the exponent vectors of its minimal generators,
kept in lexicographic order so that equal ideals compare equal.

Divisibility within a set of vectors is tested on packed integers; one
membership query compares entries directly, as packing the generators
would cost more than the test.  For one set of vectors,
`_bounds` and `_packer` shift each coordinate by its minimum over the
set, so every entry lies in [0, 2^w), where w is the bit length of the
largest shifted entry.  A vector v becomes the int V with a field of w+1
bits per coordinate: v_j - min_j sits at bit offset (n-1-j)*(w+1), so
coordinate 0 has the top field, and the top bit of each field, its guard
bit, is 0.
Let G be the int whose set bits are exactly the guard bits.  Then m <= v
componentwise iff ((V | G) - M) & G == G: field j of the difference is
2^w + v_j - m_j, which lies in [1, 2^(w+1)) because both entries are
below 2^w.  So no field borrows from its neighbour, and the guard bit of
field j stays set exactly when v_j >= m_j.  The componentwise order is
translation-invariant, so the shift changes no answer, for negative
entries too.  Packed ints compare as their vectors do lexicographically,
and m <= v with m != v gives M < V, so sorting packed ints puts every
vector after its divisors.

`_antichain`, the filter of `minimal_vectors` and `multiply`, tests a
vector against every kept vector at once.  Kept vector i sits in slot i
of one int K.  A slot is the n fields plus one spare bit above them: it
is s = n(w+1) + 1 bits wide, slot i starts at bit i*s, and its spare bit
is T = 2^(s-1) within it.  With E the int that has a 1 at the bottom of
each used slot, (V | G) * E repeats V | G in every slot.  Each field of
a slot of (V | G) * E - K lies in [1, 2^(w+1)) as above, so each slot
holds a value in [1, T) and no slot borrows from the next; its guard
bits say which entries of v are at least those of that slot's kept
vector.  OR in the non-guard bits below T of every slot (T - 1 - G each)
and add E: a slot then reaches T, setting its spare bit without carrying
further, exactly when all its guard bits were set, that is exactly when
its kept vector divides v.

Packing is linear: for fixed lows l and width w, V is
sum_j v_j*2^((n-1-j)(w+1)) less a constant fixed by l.  Let s_A and s_B be
the largest shifted entries of two sets, and pack a from the first with
lows l_A and b from the second with lows l_B, both with w the bit length
of s_A + s_B.  Then pack_A(a) + pack_B(b) is a + b packed with lows
l_A + l_B, as each shifted entry of a + b is at most s_A + s_B < 2^w.
`multiply` packs each factor's generators once, packs each pairwise sum
as one int addition, filters those ints as `minimal_vectors` does, and
builds as tuples only the sums it keeps.  `_every_sum` packs the same
way to decide whether every vector of a third set t is such a sum: it
puts the packed sums in a set and looks up each t packed with lows
l_A + l_B.  An entry of t outside [l_A + l_B, l_A + l_B + s_A + s_B]
is outside every sum, and packing it could borrow from or carry into a
neighbouring field and collide with a packed sum, so such a t is
refused before it is packed.

`power` squares repeatedly.  Multiplication of monomial ideals is
associative and commutative, and minimalizing a generating set gives the
one canonical antichain, so any bracketing of the k factors yields the
same ideal as k - 1 successive products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, starmap
from operator import add, le, mul
from typing import Callable, Collection, Iterable, Sequence

from .errors import (DimensionMismatch, EmptyGeneratorSet, EmptyList,
                     EmptyPrime, NokError, NonPositiveExponent,
                     NonPositiveMultiplicity, NotSquarefree)

Vector = tuple[int, ...]


def _integral(v: Vector) -> bool:
    """True when every entry is an int; a bool is not an exponent."""
    return all(isinstance(e, int) and not isinstance(e, bool) for e in v)


def _all_int(vectors: Sequence[Vector], nvars: int) -> bool:
    """True when every vector has length nvars and every entry is exactly
    an int: the common case, checked in one pass over the batch."""
    return (set(map(len, vectors)) == {nvars}
            and set(map(type, chain.from_iterable(vectors))) == {int})


def _check_vectors(vectors: Sequence[Vector], nvars: int, what: str,
                   nonnegative: bool):
    """Refuse a vector that is not nvars ints long, naming it `what`, or,
    when `nonnegative`, one with a negative entry.  The common case, all
    ints and none negative, is one pass over the batch."""
    if _all_int(vectors, nvars) and not (
            nonnegative and min(chain.from_iterable(vectors)) < 0):
        return
    for v in vectors:
        if len(v) != nvars:
            raise DimensionMismatch(
                f"{what} {v} has length {len(v)}, expected {nvars}")
        if not _integral(v) or nonnegative and any(e < 0 for e in v):
            raise NonPositiveExponent(f"bad exponent vector {v}")


def _bounds(vectors: Collection[Vector]) -> tuple[list[int], int]:
    """Per-coordinate minima of a nonempty set of int vectors of one
    length, and the largest entry less its coordinate's minimum."""
    columns = list(zip(*vectors))
    lows = [min(col) for col in columns]
    span = max((max(col) - low for col, low in zip(columns, lows)), default=0)
    return lows, span


def _packer(lows: Sequence[int],
            span: int) -> tuple[int, Callable[[Vector], int]]:
    """Guard mask G and packing map v -> V for vectors whose entries less
    `lows` lie in [0, span] (see the module docstring)."""
    width = span.bit_length() + 1
    weights = [1 << o for o in range(width * len(lows) - width, -1, -width)]
    guard = sum(weights) << (width - 1)
    base = sum(map(mul, lows, weights))

    def pack(v: Vector) -> int:
        return sum(map(mul, v, weights)) - base

    return guard, pack


def _antichain(keys: Iterable[int], guard: int) -> list[int]:
    """Of distinct packed ints under guard mask G, those of the minimal
    vectors, in increasing order: lex order of the vectors (see the module
    docstring)."""
    slot = guard.bit_length() + 1
    low_bits = (1 << (slot - 1)) - 1 - guard
    kept: list[int] = []
    # the module docstring's K and E, then T - 1 - G and T in every used
    # slot; slot i belongs to kept[i]
    packed = ones = fills = spares = 0
    offset = 0
    for p in sorted(keys):
        if ((((p | guard) * ones - packed) | fills) + ones) & spares:
            continue
        kept.append(p)
        packed |= p << offset
        ones |= 1 << offset
        fills |= low_bits << offset
        offset += slot
        spares |= 1 << (offset - 1)
    return kept


def minimal_vectors(vectors: Iterable[Sequence[int]]) -> list[Vector]:
    """Componentwise-minimal elements of a set of int vectors, lex-sorted."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return []
    _check_vectors(vectors, len(vectors[0]), "vector", False)
    guard, pack = _packer(*_bounds(vectors))
    # packing is injective, so equal packed ints are equal vectors
    by_packed = dict(zip(map(pack, vectors), vectors))
    return [by_packed[p] for p in _antichain(by_packed, guard)]


@dataclass(frozen=True)
class MonomialIdeal:
    """A nonzero monomial ideal; `generators` is a lex-sorted antichain."""

    nvars: int
    generators: tuple[Vector, ...]

    def __post_init__(self):
        # a list of lists or of tuples is stored as the tuple of tuples
        # that equality, hashing and the body caches read; no generators
        # at all is refused below as the zero ideal
        object.__setattr__(self, "generators",
                           tuple(map(tuple, self.generators or ())))
        self._check_shape()
        if list(self.generators) != minimal_vectors(self.generators):
            raise NokError("generators must be a lex-sorted antichain; "
                           "use minimalize() to build ideals")

    @classmethod
    def _proven(cls, nvars: int,
                generators: tuple[Vector, ...]) -> "MonomialIdeal":
        """An ideal whose generators the caller has proven to be a
        nonempty lex-sorted antichain of nonnegative int vectors, nvars >= 1
        long: nothing is checked again."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "nvars", nvars)
        object.__setattr__(ideal, "generators", generators)
        return ideal

    @cached_property
    def _hash(self) -> int:
        # derived once per object, as a body's _mdc is: every lru_cache
        # lookup keyed by the ideal reads it.  A hash of ints and tuples
        # does not depend on the process, so a pickle may carry it
        return hash((self.nvars, self.generators))

    def __hash__(self) -> int:
        return self._hash

    def _check_shape(self):
        """At least one variable, at least one generator, and every
        generator nvars nonnegative ints long."""
        if self.nvars < 1:
            raise DimensionMismatch("need at least one variable")
        if not self.generators:
            raise EmptyGeneratorSet("the zero ideal cannot be represented")
        _check_vectors(self.generators, self.nvars, "generator", True)

    def is_squarefree(self) -> bool:
        return all(e in (0, 1) for g in self.generators for e in g)

    def is_unit(self) -> bool:
        return self.generators == ((0,) * self.nvars,)

    def contains_monomial(self, a: Sequence[int]) -> bool:
        """Membership of x^a in the ideal (some generator divides it)."""
        t = tuple(a)
        if len(t) != self.nvars:
            raise DimensionMismatch(f"point {t} has wrong length")
        if not _integral(t):
            raise NonPositiveExponent(f"bad exponent vector {t}")
        return any(all(map(le, g, t)) for g in self.generators)


def minimalize(gens: Iterable[Sequence[int]], nvars: int | None = None) -> MonomialIdeal:
    """Canonical MonomialIdeal generated by an arbitrary set of exponent vectors."""
    vectors = [tuple(v) for v in gens]
    if not vectors:
        raise EmptyGeneratorSet("no generators given")
    if nvars is None:
        nvars = len(vectors[0])
    # minimal_vectors returns the lex-sorted antichain of its input; the
    # vectors come from outside, so the shape of the kept ones is checked
    ideal = MonomialIdeal._proven(nvars, tuple(minimal_vectors(vectors)))
    ideal._check_shape()
    return ideal


def multiply(lhs: MonomialIdeal, rhs: MonomialIdeal) -> MonomialIdeal:
    """Product ideal: the minimal pairwise exponent sums.  Packing is
    linear, so each sum is packed as one int addition, and only the kept
    sums are built."""
    if lhs.nvars != rhs.nvars:
        raise DimensionMismatch("variable counts differ")
    gens, rgens = lhs.generators, rhs.generators
    (lows, span), (rlows, rspan) = _bounds(gens), _bounds(rgens)
    # one field width for both factors, wide enough for every sum
    guard, pack = _packer(lows, span + rspan)
    _, rpack = _packer(rlows, span + rspan)
    packed = product(map(pack, gens), map(rpack, rgens))
    # packed sum -> one pair with that sum; equal sums are equal vectors
    by_sum = dict(zip(starmap(add, packed), product(gens, rgens)))
    # _antichain keeps the minimal sums, in lex order
    return MonomialIdeal._proven(lhs.nvars, tuple(
        tuple(map(add, *by_sum[p])) for p in _antichain(by_sum, guard)))


def _every_sum(targets: Sequence[Vector], lhs: Sequence[Vector],
               rhs: Sequence[Vector]) -> bool:
    """True when every target is exactly a + b with a in lhs and b in rhs,
    for nonempty lhs and rhs of int vectors of one length: one set of
    packed sums, one lookup per target (see the module docstring)."""
    (lows, span), (rlows, rspan) = _bounds(lhs), _bounds(rhs)
    top = span + rspan
    tlows = list(map(add, lows, rlows))
    # a target with an entry outside the sums' range is no sum, and
    # packing it could collide with one
    if any(min(column) < low or max(column) > low + top
           for column, low in zip(zip(*targets), tlows)):
        return False
    # multiply's shared field width, wide enough for every sum
    _, pack = _packer(lows, top)
    _, rpack = _packer(rlows, top)
    _, tpack = _packer(tlows, top)
    rpacked = list(map(rpack, rhs))
    sums = set()
    for p in map(pack, lhs):
        sums.update(map(p.__add__, rpacked))
    return sums.issuperset(map(tpack, targets))


def _check_power(k: int, what: str = "power index"):
    """Refuse a count that is not an int >= 1, naming it `what`: a bool,
    a float or a string is not one.  Every count argument of the library
    (a power, a family index, a degree or search bound) is checked here."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise NonPositiveExponent(
            f"{what} must be a positive integer, got {k!r}")


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th ordinary power, k >= 1, by repeated squaring."""
    _check_power(k)
    result = ideal
    # the binary digits of k after the leading 1, most significant first
    for digit in bin(k)[3:]:
        result = multiply(result, result)
        if digit == "1":
            result = multiply(result, ideal)
    return result


def intersect(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    """Intersection of monomial ideals via pairwise generator lcm folds."""
    if not ideals:
        raise EmptyList("intersection of an empty list")
    if len({i.nvars for i in ideals}) > 1:
        raise DimensionMismatch("variable counts differ")
    result = ideals[0]
    for other in ideals[1:]:
        lcms = [tuple(max(x, y) for x, y in zip(a, b))
                for a in result.generators for b in other.generators]
        result = MonomialIdeal._proven(result.nvars,
                                       tuple(minimal_vectors(lcms)))
    return result


@dataclass(frozen=True)
class PrimeComponent:
    """A monomial prime (subset of variable indices, 0-based) with a
    multiplicity omega >= 1."""

    variables: tuple[int, ...]
    multiplicity: int = 1

    def __post_init__(self):
        if not self.variables:
            raise EmptyPrime("a prime component needs at least one variable")
        # a bool is an int to Python, but not a variable index or a count
        if any(type(v) is not int for v in self.variables):
            raise DimensionMismatch(
                f"variable indices must be ints, got {self.variables!r}")
        if tuple(sorted(set(self.variables))) != self.variables:
            object.__setattr__(self, "variables",
                               tuple(sorted(set(self.variables))))
        if any(v < 0 for v in self.variables):
            raise DimensionMismatch("negative variable index")
        if type(self.multiplicity) is not int or self.multiplicity < 1:
            raise NonPositiveMultiplicity(
                f"multiplicity must be an int >= 1, got {self.multiplicity!r}")

    def indicator(self, nvars: int) -> Vector:
        """0/1 vector marking the prime's variables."""
        chosen = set(self.variables)
        return tuple(1 if j in chosen else 0 for j in range(nvars))

    def ideal(self, nvars: int) -> MonomialIdeal:
        """The prime itself, as a monomial ideal: its distinct unit
        vectors, sorted, are a lex-sorted antichain once nvars covers
        its variables."""
        if self.variables[-1] >= nvars:
            raise DimensionMismatch(
                f"variable index {self.variables[-1]} out of range")
        gens = [tuple(1 if j == v else 0 for j in range(nvars))
                for v in self.variables]
        return MonomialIdeal._proven(nvars, tuple(sorted(gens)))


@dataclass(frozen=True)
class PrimeDecomposition:
    """Intersection of powers of monomial primes, less every component
    that one other component implies.  A component that only several
    others imply together is kept: (x,y)^2 stays beside (x) and (y),
    although (x) and (y) meet inside it."""

    nvars: int
    components: tuple[PrimeComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise EmptyList("a decomposition needs at least one component")
        for comp in self.components:
            if comp.variables[-1] >= self.nvars:
                raise DimensionMismatch(
                    f"variable index {comp.variables[-1]} out of range")
        # a component (Q, n) is implied, and dropped, when another one
        # (P, m) has P inside Q and m >= n: the half-space it cuts is
        # implied.  That is (x_P, -m) <= (x_Q, -n) componentwise, so the
        # kept components are the minimal keys; equal components share one
        by_key = {c.indicator(self.nvars) + (-c.multiplicity,): c
                  for c in self.components}
        kept = sorted((by_key[k] for k in minimal_vectors(by_key)),
                      key=lambda c: (c.variables, c.multiplicity))
        object.__setattr__(self, "components", tuple(kept))


def expand_decomposition(decomp: PrimeDecomposition) -> MonomialIdeal:
    """Minimal generators of the intersection of the component prime powers."""
    parts = [power(comp.ideal(decomp.nvars), comp.multiplicity)
             for comp in decomp.components]
    return intersect(parts)


def minimal_primes(ideal: MonomialIdeal) -> PrimeDecomposition:
    """Minimal primes of a squarefree ideal: the minimal vertex covers of the
    hypergraph whose edges are the generator supports.

    Berge's sequential algorithm: one fold over the distinct edges, as
    bitmasks of variable indices, by increasing size and then value.  Its
    invariant: after edge j, the list is exactly the minimal covers of
    edges 1..j.  A minimal cover of one more edge is either an earlier
    minimal cover that meets it, or an earlier one that misses it plus
    one vertex of it.  Such an extension is minimal unless it contains a
    cover that meets the edge: two extensions never contain one another,
    and no cover that meets the edge contains an extension.
    """
    if not ideal.is_squarefree():
        raise NotSquarefree("minimal prime computation needs a squarefree ideal")
    if ideal.is_unit():
        raise NokError("the unit ideal has no minimal primes")
    n = ideal.nvars
    edges = {sum(1 << j for j, e in enumerate(g) if e)
             for g in ideal.generators}
    covers = [0]
    for edge in sorted(edges, key=lambda e: (e.bit_count(), e)):
        meets = [c for c in covers if c & edge]
        bits = [1 << j for j in range(n) if edge >> j & 1]
        covers = meets + [c | b for c in covers if not c & edge for b in bits
                          if not any(m & (c | b) == m for m in meets)]
    return PrimeDecomposition(n, tuple(
        PrimeComponent(tuple(j for j in range(n) if c >> j & 1))
        for c in covers))
