"""Text grammar for ideal and family files, plus exact-rational
serialization helpers shared by the command-line front end.

An ideal file declares its variables and then its generators, one
construct per file:

    # edge ideal of a triangle
    vars: x, y, z
    gens: x*y, y*z, z*x

Generators may also be exponent vectors (`gens: [1,1,0], [0,1,1]`), and
a linear-power ideal may be given by its decomposition instead
(`components: (x,y)^2, (y,z)^3`, the `^1` optional).  `1` denotes the
unit monomial.  Family files start with `family: power | symbolic |
intersection | ceiling`, followed by one ideal block per component
(each block starting with its own `vars:` line); ceiling families add
`alpha: p/q` and optionally `beta: p/q` (default 0).  A symbolic family
is built by `families.symbolic_family`: the intersection of its base's
prime-power components, or the power family of an m-primary base; its
`kind` stays "symbolic".  `#` starts a comment anywhere, blank lines are
ignored, and all reported vectors use the declaration order of `vars:`.

Parsing a `gens:` block builds the minimal generators and nothing more:
the ideal's class, which only the symbolic verbs read, is found on first
use (`ParsedIdeal.classified`).  A `components:` block is expanded and
classified as it is parsed.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import polyhedron as poly
from .bodies import ClassifiedIdeal, classify, classify_decomposition
from .errors import (NonPositiveMultiplicity, ParseError, UnknownVariable)
from .families import (CeilingPowerFamily, FamilySpec, IntersectionFamily,
                       PowerFamily, symbolic_family)
from .ideal import (MonomialIdeal, PrimeComponent, PrimeDecomposition,
                    minimalize)
from .polyhedron import HalfSpace, Point, RationalPolyhedron

_KEYS = ("vars", "gens", "components", "family", "alpha", "beta")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RATIONAL = re.compile(r"-?\d+(/\d+)?")
_FAMILY_KINDS = ("power", "symbolic", "intersection", "ceiling")


@dataclass(frozen=True)
class ParsedIdeal:
    """An ideal file's content: variable names in declaration order, the
    ideal, and its kind-classified form.

    A `components:` file is classified as it is parsed, from its
    decomposition.  A `gens:` file is classified on the first read of
    `classified`, so the verbs that never read the symbolic polyhedron
    never run `classify`, which finds the minimal primes of a squarefree
    ideal."""
    variables: tuple[str, ...]
    ideal: MonomialIdeal
    source: str  # "gens" or "components"
    # the classification a components: file carries; None for gens:
    _decomposed: ClassifiedIdeal | None = field(default=None, repr=False)

    @cached_property
    def classified(self) -> ClassifiedIdeal:
        # derived once per object, as RationalPolyhedron._mdc is
        if self._decomposed is not None:
            return self._decomposed
        return classify(self.ideal)


@dataclass(frozen=True)
class ParsedFamily:
    variables: tuple[str, ...]
    family: FamilySpec
    kind: str


@dataclass(frozen=True)
class _Record:
    line: int
    key: str
    value: str
    value_col: int  # 1-based column of the first character after ':'


def frac_to_str(value) -> str:
    """Canonical text form of a rational: 'p' or 'p/q' in lowest terms.
    An int or a Fraction is formatted as it is; anything else goes through
    `as_fraction`, which raises InexactNumber for a float."""
    if type(value) is int:
        return str(value)
    if type(value) is not Fraction:
        value = poly.as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def str_to_frac(text: str, line: int | None = None,
                column: int | None = None) -> Fraction:
    """Parse 'p' or 'p/q'; rejects floats, empty strings, and /0."""
    stripped = text.strip()
    if column is not None:
        column += len(text) - len(text.lstrip())
    if not _RATIONAL.fullmatch(stripped):
        raise ParseError(f"expected a rational 'p' or 'p/q', got '{stripped}'",
                         line, column)
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in '{stripped}'", line,
                         column) from None


def read_input(path: str) -> tuple[str, str]:
    """A file's text, decoded as UTF-8, and the first 12 hex digits of
    the sha256 of its bytes.  Bytes that are not UTF-8 raise ParseError;
    a path that cannot be read raises OSError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("input file is not valid UTF-8") from None
    return text, hashlib.sha256(data).hexdigest()[:12]


def _records(text: str) -> list[_Record]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = raw if cut < 0 else raw[:cut]
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        if ":" not in line:
            raise ParseError("expected a 'key: value' line", lineno,
                             indent + 1)
        key_part, _, value = line.partition(":")
        key = key_part.strip()
        if key not in _KEYS:
            raise ParseError(
                f"unknown key '{key}' (expected one of {', '.join(_KEYS)})",
                lineno, indent + 1)
        out.append(_Record(lineno, key, value, len(key_part) + 2))
    return out


def _split_items(value: str, col: int) -> list[tuple[str, int]]:
    """Split on top-level commas: each item stripped, with the 1-based
    column of its first character, for `value` starting at column
    `col`."""
    pieces = []
    depth = 0
    start = 0
    for i, ch in enumerate(value):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            pieces.append((value[start:i], start))
            start = i + 1
    pieces.append((value[start:], start))
    return [(item.strip(), col + off + len(item) - len(item.lstrip()))
            for item, off in pieces]


def _parse_vars(rec: _Record) -> tuple[str, ...]:
    names = []
    for item, col in _split_items(rec.value, rec.value_col):
        if not item:
            raise ParseError("empty variable name", rec.line, col)
        if not _NAME.fullmatch(item):
            raise ParseError(f"invalid variable name '{item}'", rec.line, col)
        if item in names:
            raise ParseError(f"duplicate variable '{item}'", rec.line, col)
        names.append(item)
    return tuple(names)


def _parse_vector(text: str, line: int, col: int, nvars: int) -> tuple[int, ...]:
    if not text.endswith("]"):
        raise ParseError("missing ']' in exponent vector", line, col)
    entries = []
    for item, entry_col in _split_items(text[1:-1], col + 1):
        if not re.fullmatch(r"-?\d+", item):
            raise ParseError(f"expected an integer entry, got '{item}'",
                             line, entry_col)
        value = int(item)
        if value < 0:
            raise ParseError(f"negative exponent {value}", line, entry_col)
        entries.append(value)
    if len(entries) != nvars:
        raise ParseError(
            f"expected {nvars} entries, got {len(entries)}", line, col)
    return tuple(entries)


def _parse_monomial(text: str, line: int | None, col: int,
                    index: dict[str, int], nvars: int) -> tuple[int, ...]:
    if text.startswith("["):
        return _parse_vector(text, line, col, nvars)
    if text == "1":
        return (0,) * nvars
    if not text:
        raise ParseError("empty monomial", line, col)
    exponents = [0] * nvars
    offset = 0
    for factor in text.split("*"):
        stripped = factor.strip()
        factor_col = col + offset + len(factor) - len(factor.lstrip())
        offset += len(factor) + 1
        match = _NAME.match(stripped)
        if not match:
            raise ParseError(f"expected a variable name, got '{stripped}'",
                             line, factor_col)
        name = match.group(0)
        if name not in index:
            raise UnknownVariable(f"unknown variable '{name}'", line,
                                  factor_col)
        rest = stripped[match.end():].strip()
        if not rest:
            exponents[index[name]] += 1
        elif rest.startswith("^"):
            num = rest[1:].strip()
            if not re.fullmatch(r"\d+", num):
                raise ParseError(
                    f"expected a nonnegative integer exponent, got '{num}'",
                    line, factor_col)
            exponents[index[name]] += int(num)
        else:
            raise ParseError(f"unexpected text '{rest}' after '{name}'",
                             line, factor_col)
    return tuple(exponents)


def _parse_component(text: str, line: int, col: int,
                     index: dict[str, int]) -> PrimeComponent:
    if not text.startswith("("):
        raise ParseError(f"expected '(', got '{text[:1]}'", line, col)
    close = text.find(")")
    if close < 0:
        raise ParseError("missing ')' in component", line, col)
    members = []
    for item, item_col in _split_items(text[1:close], col + 1):
        if not _NAME.fullmatch(item):
            raise ParseError(f"invalid variable name '{item}'", line, item_col)
        if item not in index:
            raise UnknownVariable(f"unknown variable '{item}'", line, item_col)
        if item in members:
            raise ParseError(f"repeated variable '{item}' in component",
                             line, item_col)
        members.append(item)
    rest = text[close + 1:].strip()
    multiplicity = 1
    if rest.startswith("^"):
        num = rest[1:].strip()
        if re.fullmatch(r"-?\d+", num):
            multiplicity = int(num)
            if multiplicity < 1:
                raise NonPositiveMultiplicity(
                    f"multiplicity must be >= 1, got {multiplicity}",
                    line, col + close + 2)
        else:
            raise ParseError(f"expected an integer multiplicity, got '{num}'",
                             line, col + close + 2)
    elif rest:
        raise ParseError(f"unexpected text '{rest}' after component",
                         line, col + close + 1)
    return PrimeComponent(tuple(sorted(index[m] for m in members)),
                          multiplicity)


def _parse_ideal_block(vars_rec: _Record, body_rec: _Record) -> ParsedIdeal:
    variables = _parse_vars(vars_rec)
    nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    line = body_rec.line
    gens = body_rec.key == "gens"
    items = []
    for item, col in _split_items(body_rec.value, body_rec.value_col):
        if not item:
            raise ParseError(f"empty {'generator' if gens else 'component'}",
                             line, col)
        items.append(_parse_monomial(item, line, col, index, nvars) if gens
                     else _parse_component(item, line, col, index))
    if gens:
        return ParsedIdeal(variables, minimalize(items, nvars), "gens")
    classified = classify_decomposition(
        PrimeDecomposition(nvars, tuple(items)))
    return ParsedIdeal(variables, classified.ideal, "components", classified)


def parse_ideal_text(text: str) -> ParsedIdeal:
    records = _records(text)
    if not records:
        raise ParseError("empty file: expected 'vars:' then "
                         "'gens:' or 'components:'", 1, 1)
    if records[0].key != "vars":
        raise ParseError("an ideal file must start with 'vars:'",
                         records[0].line, 1)
    if len(records) < 2 or records[1].key not in ("gens", "components"):
        where = records[1].line if len(records) > 1 else records[0].line
        raise ParseError("'vars:' must be followed by 'gens:' or "
                         "'components:'", where, 1)
    if len(records) > 2:
        raise ParseError(f"unexpected extra '{records[2].key}:' line",
                         records[2].line, 1)
    return _parse_ideal_block(records[0], records[1])


def parse_ideal_file(path: str) -> ParsedIdeal:
    return parse_ideal_text(read_input(path)[0])


def parse_family_text(text: str) -> ParsedFamily:
    records = _records(text)
    if not records or records[0].key != "family":
        where = records[0].line if records else 1
        raise ParseError("a family file must start with 'family:'", where, 1)
    head = records[0]
    kind = head.value.strip()
    if kind not in _FAMILY_KINDS:
        raise ParseError(
            f"unknown family kind '{kind}' "
            f"(expected one of {', '.join(_FAMILY_KINDS)})",
            head.line, head.value_col)
    scalars: dict[str, Fraction] = {}
    blocks: list[tuple[int, ParsedIdeal]] = []
    rest = iter(records[1:])
    for rec in rest:
        if rec.key in ("alpha", "beta"):
            if kind != "ceiling":
                raise ParseError(f"'{rec.key}:' only applies to ceiling "
                                 "families", rec.line, 1)
            if rec.key in scalars:
                raise ParseError(f"duplicate '{rec.key}:'", rec.line, 1)
            scalars[rec.key] = str_to_frac(rec.value, rec.line, rec.value_col)
        elif rec.key == "vars":
            body = next(rest, None)
            if body is None or body.key not in ("gens", "components"):
                raise ParseError("'vars:' must be followed by 'gens:' or "
                                 "'components:'", rec.line, 1)
            blocks.append((rec.line, _parse_ideal_block(rec, body)))
        else:
            raise ParseError(f"unexpected '{rec.key}:' line", rec.line, 1)
    if not blocks:
        raise ParseError("expected at least one ideal block", head.line, 1)
    variables = blocks[0][1].variables
    for line, block in blocks[1:]:
        if block.variables != variables:
            raise ParseError("all ideal blocks must declare the same "
                             "variables", line, 1)
    if kind != "intersection" and len(blocks) > 1:
        raise ParseError(f"a {kind} family takes exactly one ideal block",
                         blocks[1][0], 1)
    if kind == "power":
        family: FamilySpec = PowerFamily(blocks[0][1].ideal)
    elif kind == "symbolic":
        family = symbolic_family(blocks[0][1].classified)
    elif kind == "intersection":
        family = IntersectionFamily(tuple(b.ideal for _, b in blocks))
    else:
        if "alpha" not in scalars:
            raise ParseError("a ceiling family requires 'alpha:'",
                             head.line, 1)
        family = CeilingPowerFamily(blocks[0][1].ideal, scalars["alpha"],
                                    scalars.get("beta", Fraction(0)))
    return ParsedFamily(variables, family, kind)


def parse_family_file(path: str) -> ParsedFamily:
    return parse_family_text(read_input(path)[0])


def parse_monomial_text(text: str, variables: Sequence[str]) -> tuple[int, ...]:
    """Parse a single monomial given on the command line; columns refer
    to the argument string itself, leading blanks included."""
    index = {name: i for i, name in enumerate(variables)}
    return _parse_monomial(text.strip(), None,
                           1 + len(text) - len(text.lstrip()), index,
                           len(variables))


# serialization

def format_monomials(vectors: Sequence[Sequence[int]],
                     variables: Sequence[str]) -> list[str]:
    """Each exponent vector, all of one length, as a monomial such as
    x^2*y, or 1 when no exponent is positive.  One table per variable,
    built once for the whole sequence, maps each positive exponent in its
    column to its term."""
    tables = [{e: name if e == 1 else f"{name}^{e}"
               for e in set(column) if e > 0}
              for name, column in zip(variables, zip(*vectors))]
    # a missing exponent reads None, which the filter drops with the term
    return ["*".join(filter(None, map(dict.get, tables, row))) or "1"
            for row in vectors]


def format_monomial(exponents: Sequence[int],
                    variables: Sequence[str]) -> str:
    return format_monomials([exponents], variables)[0]


def format_point(point: Point) -> str:
    return "(" + ", ".join(frac_to_str(c) for c in point) + ")"


def format_halfspace(h: HalfSpace, variables: Sequence[str]) -> str:
    terms = []
    for name, c in zip(variables, h.normal):
        if c == 1:
            terms.append(name)
        elif c != 0:
            terms.append(f"{c}*{name}")
    lhs = " + ".join(terms) if terms else "0"
    return f"{lhs} >= {h.offset}"


def point_payload(point: Point) -> list[str]:
    return [frac_to_str(c) for c in point]


def polyhedron_payload(body: RationalPolyhedron) -> dict:
    return {
        "nvars": body.nvars,
        "dim": body.dim,
        "facets": [{"normal": list(h.normal), "offset": h.offset}
                   for h in body.facets],
        "vertices": [point_payload(v) for v in body.vertices],
        "rays": [point_payload(r) for r in body.rays],
        "mdc": poly.mdc(body),
    }


def ideal_payload(ideal: MonomialIdeal) -> dict:
    # the generator tuples as built: a JSON writer writes a tuple as a list
    return {"nvars": ideal.nvars, "generators": ideal.generators}
