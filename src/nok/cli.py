"""Command-line front end: parse an ideal or family file, run one
library operation, and print a text or JSON report.

A command line that starts with a verb is parsed by that verb's own
parser.  Any other command line, or one with words that the verb's parser
does not take, goes through the full parser, which prints the usage and
the error.  Each verb returns its JSON result, its text lines as a lazy
iterable, and its notes; only a text report reads the lines, so `--json`
formats no facet, point or monomial line.

Exit codes: 0 success, 1 domain error (e.g. an ideal class with no
symbolic-polyhedron support), 2 parse or usage error (including a
NOK_MAX_VERTICES that is not a positive integer), 3 vertex budget
exceeded (see NOK_MAX_VERTICES), 141 the reader closed standard output
before the report was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from . import polyhedron as poly
from .bodies import (member_integral_closure, member_symbolic,
                     membership_certificate, newton_polyhedron,
                     np_equals_sp, real_power, symbolic_polyhedron,
                     symbolic_power)
from .errors import (InvalidVertexBudget, NokError, ParseError,
                     VertexBudgetExceeded)
from .families import CeilingPowerFamily, family_limit, stabilization_check
from .fileio import (ParsedFamily, ParsedIdeal, format_halfspace,
                     format_monomial, format_monomials, format_point,
                     frac_to_str, ideal_payload, parse_family_text,
                     parse_ideal_text, parse_monomial_text, point_payload,
                     polyhedron_payload, read_input, str_to_frac)
from .invariants import (analytic_spread, c_degree_compatibility,
                         invariant_report, svd_bounds,
                         symbolic_analytic_spread)
from .simis import (_normal_rees_bound, hilbert_basis,
                    normal_rees_generator_degrees, svd_probe, veronese_verify)

_UNSUPPORTED_NOTE = ("symbolic-power data needs a squarefree ideal, an "
                     "explicit linear-power decomposition, or an ideal "
                     "primary to the maximal ideal")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, "
                                         f"got {value}")
    return value


def _positive_rational(text: str) -> Fraction:
    try:
        value = str_to_frac(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, "
                                         f"got {text}")
    return value


# built on the first call, not at import, and reused by later calls
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The full parser, and each verb's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="nok",
        description="Exact computations with Newton and symbolic polyhedra "
                    "of monomial ideals.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="ideal or family file")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    # each verb sets its handler as run; family picks the file parser
    common.set_defaults(family=False)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, help, **defaults):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run, **defaults)
        return p

    verb("np", _cmd_np, "Newton polyhedron of the ideal")
    verb("sp", _cmd_sp, "symbolic polyhedron of the ideal")
    verb("spread", _cmd_spread,
         "analytic spread, plus the symbolic one if defined")
    verb("constants", _cmd_constants,
         "vertex denominators, c, D, and derived bounds")

    p = verb("symbolic-power", _cmd_symbolic_power,
             "minimal generators of the k-th symbolic power")
    p.add_argument("-k", type=_positive_int, required=True, metavar="K")

    p = verb("real-power", _cmd_real_power,
             "monomials whose exponent lies in r*NP(I)")
    p.add_argument("-r", type=_positive_rational, required=True, metavar="P/Q")

    p = verb("member", _cmd_member,
             "membership of a monomial in a symbolic power or an integral "
             "closure")
    p.add_argument("-m", "--monomial", required=True,
                   help="monomial such as x*y^2, or an exponent vector "
                        "[1,2,0]")
    p.add_argument("-k", type=_positive_int, required=True, metavar="K")
    p.add_argument("--closure", action="store_true",
                   help="test the integral closure of I^k instead of I^(k)")
    p.add_argument("--certificate", action="store_true",
                   help="also report a convex-combination or violated-facet "
                        "certificate for the point (exponent)/k")

    p = verb("hilbert", _cmd_hilbert,
             "degree-bounded Hilbert basis of the cone over the symbolic "
             "polyhedron")
    p.add_argument("--bound", type=_positive_int, default=None, metavar="B",
                   help="degree bound (default: the proven generation bound)")

    p = verb("veronese", _cmd_veronese,
             "bounded Veronese check at -d, or a window probe for the least "
             "verifying degree")
    p.add_argument("-d", type=_positive_int, default=None, metavar="D")
    p.add_argument("--kmax", type=_positive_int, default=4, metavar="K")

    verb("normal-rees", _cmd_normal_rees,
         "generator degrees of the normalized Rees algebra")
    verb("family-body", _cmd_family_body, "limit body of a graded family",
         family=True)

    p = verb("stabilize", _cmd_stabilize,
             "the least c with (1/c)*NP(I_c) equal to the limit body",
             family=True)
    p.add_argument("--cmax", type=_positive_int, default=30, metavar="C")

    verb("np-eq-sp", _cmd_np_eq_sp,
         "whether the Newton and symbolic polyhedra coincide")
    return parser, sub.choices


def _body_lines(title: str, body, variables) -> Iterator[str]:
    yield f"{title} in {', '.join(variables)}"
    yield f"facets ({len(body.facets)}):"
    for h in body.facets:
        yield f"  {format_halfspace(h, variables)}"
    yield f"vertices ({len(body.vertices)}):"
    for v in body.vertices:
        yield f"  {format_point(v)}"
    yield f"rays ({len(body.rays)}):"
    for r in body.rays:
        yield f"  {format_point(r)}"
    yield f"mdc: {poly.mdc(body)}"


def _cmd_np(parsed: ParsedIdeal, args):
    body = newton_polyhedron(parsed.ideal)
    return (polyhedron_payload(body),
            _body_lines("newton polyhedron", body, parsed.variables), [])


def _cmd_sp(parsed: ParsedIdeal, args):
    body = symbolic_polyhedron(parsed.classified)
    return (polyhedron_payload(body),
            _body_lines("symbolic polyhedron", body, parsed.variables), [])


def _cmd_spread(parsed: ParsedIdeal, args):
    ell = analytic_spread(parsed.ideal)
    result = {"analytic_spread": ell, "symbolic_analytic_spread": None}
    lines = [f"analytic spread: {ell}"]
    notes = []
    if parsed.classified.supports_sp():
        ell_s = symbolic_analytic_spread(parsed.classified)
        result["symbolic_analytic_spread"] = ell_s
        lines.append(f"symbolic analytic spread: {ell_s}")
    else:
        notes.append(_UNSUPPORTED_NOTE)
    return result, lines, notes


def _cmd_constants(parsed: ParsedIdeal, args):
    rep = invariant_report(parsed.classified)
    notes = []
    result = {
        "analytic_spread": rep.ell,
        "symbolic_analytic_spread": rep.ell_s,
        "vertex_denominators": None, "c": None, "D": None,
        "svd_lower": None, "svd_upper": None,
        "sgt_upper": None, "sgt_upper_np_eq_sp": None,
        "hadamard_bound": None, "hadamard_exact": rep.hadamard_exact,
    }
    lines = [f"analytic spread: {rep.ell}"]
    if rep.ell_s is None:
        notes.append(_UNSUPPORTED_NOTE)
        return result, lines, notes
    result.update({
        "vertex_denominators": [frac_to_str(d) for d in rep.vertex_denoms],
        "c": frac_to_str(rep.c),
        "D": frac_to_str(rep.D),
        "svd_lower": frac_to_str(rep.svd_lower),
        "svd_upper": frac_to_str(rep.svd_upper),
        "sgt_upper": frac_to_str(rep.sgt_upper),
        "sgt_upper_np_eq_sp": None if rep.sgt_upper_np_eq_sp is None
        else frac_to_str(rep.sgt_upper_np_eq_sp),
        "hadamard_bound": frac_to_str(rep.hadamard_bound),
    })
    lines.append(f"symbolic analytic spread: {rep.ell_s}")
    lines.append("vertex denominators: "
                 + ", ".join(str(d) for d in rep.vertex_denoms))
    lines.append(f"c: {rep.c}")
    lines.append(f"D: {rep.D}")
    lines.append(f"svd window: [{rep.svd_lower}, {rep.svd_upper}]")
    lines.append(f"sgt bound: {rep.sgt_upper}")
    if rep.sgt_upper_np_eq_sp is not None:
        lines.append(f"sgt bound (squarefree, NP = SP): "
                     f"{rep.sgt_upper_np_eq_sp}")
    rounding = "exact" if rep.hadamard_exact else "rounded up"
    lines.append(f"sgt bound (hadamard, {rounding}): "
                 f"{frac_to_str(rep.hadamard_bound)}")
    return result, lines, notes


def _generator_report(result: dict, title: str, ideal, variables):
    """result with the ideal's payload and monomials added, and text lines
    listing the same monomials under title."""
    monomials = format_monomials(ideal.generators, variables)
    result.update(ideal_payload(ideal), monomials=monomials)
    return result, chain([title], (f"  {m}" for m in monomials)), []


def _cmd_symbolic_power(parsed: ParsedIdeal, args):
    power_k = symbolic_power(parsed.classified, args.k)
    title = f"I^({args.k}) minimal generators ({len(power_k.generators)}):"
    return _generator_report({"k": args.k}, title, power_k, parsed.variables)


def _cmd_real_power(parsed: ParsedIdeal, args):
    r = frac_to_str(args.r)
    closure = real_power(parsed.ideal, args.r)
    title = (f"monomials with exponent in {r}*NP "
             f"({len(closure.generators)} minimal):")
    return _generator_report({"r": r}, title, closure, parsed.variables)


def _certificate_lines(cert, variables) -> Iterator[str]:
    if cert.inside:
        yield "certificate: convex combination"
        for w, v in zip(cert.weights, cert.vertices):
            yield f"  {frac_to_str(w)} * {format_point(v)}"
        yield f"  + nonnegative remainder {format_point(cert.remainder)}"
    else:
        yield ("certificate: violated facet "
               f"{format_halfspace(cert.violated, variables)}")


def _cmd_member(parsed: ParsedIdeal, args):
    exponent = parse_monomial_text(args.monomial, parsed.variables)
    name = format_monomial(exponent, parsed.variables)
    if args.closure:
        member = member_integral_closure(parsed.ideal, exponent, args.k)
        body = newton_polyhedron(parsed.ideal)
        what = f"integral closure of I^{args.k}"
        mode = "integral-closure"
    else:
        member = member_symbolic(parsed.classified, exponent, args.k)
        body = symbolic_polyhedron(parsed.classified)
        what = f"I^({args.k})"
        mode = "symbolic"
    result = {"monomial": name, "exponent": list(exponent), "k": args.k,
              "mode": mode, "member": member, "certificate": None}
    lines = [f"{name} in {what}: {'yes' if member else 'no'}"]
    if not args.certificate:
        return result, lines, []
    point = tuple(Fraction(a, args.k) for a in exponent)
    cert = membership_certificate(body, point)
    result["certificate"] = {
        "inside": cert.inside,
        "vertices": [point_payload(v) for v in cert.vertices],
        "weights": [frac_to_str(w) for w in cert.weights],
        "remainder": None if cert.remainder is None
        else point_payload(cert.remainder),
        "violated": None if cert.violated is None
        else {"normal": list(cert.violated.normal),
              "offset": cert.violated.offset}}
    notes = [f"certificate is for the point (exponent)/{args.k} against "
             "the body"]
    return (result, chain(lines, _certificate_lines(cert, parsed.variables)),
            notes)


def _cmd_hilbert(parsed: ParsedIdeal, args):
    rep = hilbert_basis(parsed.classified, args.bound)
    degrees = sorted(rep.degrees)
    lcm_degrees = math.lcm(*degrees)
    window = svd_bounds(parsed.classified)
    compatible = (c_degree_compatibility(parsed.classified, rep.degrees)
                  if rep.exhaustive else None)
    result = {
        "elements": [{"exponent": list(e.exponent), "degree": e.degree}
                     for e in rep.elements],
        "degrees": degrees,
        "sgt": rep.sgt,
        "degree_bound_used": rep.degree_bound_used,
        "exhaustive": rep.exhaustive,
        "lcm_degrees": lcm_degrees,
        "svd_window": [frac_to_str(window.lower), frac_to_str(window.upper)],
        "c_degree_compatible": compatible,
    }

    def lines():
        yield (f"hilbert basis elements ({len(rep.elements)}), "
               f"degree bound {rep.degree_bound_used}:")
        monomials = format_monomials([e.exponent for e in rep.elements],
                                     parsed.variables)
        for e, m in zip(rep.elements, monomials):
            yield f"  degree {e.degree}: {m}"
        yield f"degrees: {', '.join(str(d) for d in degrees)}"
        yield f"sgt: {rep.sgt}"
        yield f"lcm of degrees: {lcm_degrees}"
        yield (f"svd window: [{frac_to_str(window.lower)}, "
               f"{frac_to_str(window.upper)}]")
    notes = []
    if rep.exhaustive:
        notes.append(f"exhaustive: the degree bound {rep.degree_bound_used} "
                     "meets the proven generation bound")
    else:
        notes.append(f"bounded search only: elements above degree "
                     f"{rep.degree_bound_used} may be missing")
    notes.append("no inequality between svd and the degree lcm is asserted")
    return result, lines(), notes


def _cmd_veronese(parsed: ParsedIdeal, args):
    notes = [f"bounded check, k_max={args.kmax}"]
    if args.d is not None:
        verified = veronese_verify(parsed.classified, args.d, args.kmax)
        result = {"d": args.d, "k_max": args.kmax, "verified": verified}
        lines = [f"I^({args.d}k) = (I^({args.d}))^k for all k <= "
                 f"{args.kmax}: {'yes' if verified else 'no'}"]
        return result, lines, notes
    candidate, upper = svd_probe(parsed.classified, args.kmax)
    lower, _ = svd_bounds(parsed.classified)
    result = {"candidate": frac_to_str(candidate), "k_max": args.kmax,
              "window": [frac_to_str(lower), frac_to_str(upper)]}
    lines = [f"svd candidate: {candidate} "
             f"(window [{lower}, {upper}], k_max={args.kmax})"]
    return result, lines, notes


def _cmd_normal_rees(parsed: ParsedIdeal, args):
    degrees = sorted(normal_rees_generator_degrees(parsed.ideal))
    bound = _normal_rees_bound(parsed.ideal)
    result = {"degrees": degrees, "degree_bound_used": bound}
    lines = [f"normalized rees algebra generator degrees: "
             f"{', '.join(str(d) for d in degrees)}"]
    return result, lines, [f"complete up to the proven bound {bound}"]


def _cmd_family_body(parsed: ParsedFamily, args):
    body, scale, _ = family_limit(parsed.family)
    result = {"kind": parsed.kind, **polyhedron_payload(body)}
    lines = chain([f"family kind: {parsed.kind}"],
                  _body_lines("limit body", body, parsed.variables))
    notes = []
    if isinstance(parsed.family, CeilingPowerFamily):
        result["scale"] = frac_to_str(scale)
        if parsed.family.beta >= 0:
            notes.append(f"body is {frac_to_str(scale)}*NP(base): with "
                         "beta >= 0 the infimum of ceil(alpha*k + beta)/k "
                         "is alpha (closed form)")
        else:
            notes.append(f"body is {frac_to_str(scale)}*NP(base): the "
                         "infimum of ceil(alpha*k + beta)/k, the least of "
                         "alpha and the ratios at k <= denominator(alpha)")
    return result, lines, notes


def _witness_lines(c_max: int, witness) -> Iterator[str]:
    yield f"not stabilized up to {c_max}"
    yield (f"witness: body vertex {format_point(witness.vertex)} is "
           f"missing from (1/{witness.k})*NP(I_{witness.k})")


def _cmd_stabilize(parsed: ParsedFamily, args):
    rep = stabilization_check(parsed.family, c_max=args.cmax)
    result = {"stabilized": rep.stabilized, "c": rep.c, "c_max": args.cmax,
              "witness": None}
    notes = []
    if rep.stabilized:
        lines = [f"stabilized at c = {rep.c}"]
        notes.append(f"the limit body equals (1/{rep.c})*NP(I_{rep.c})")
    else:
        witness = rep.witness
        result["witness"] = {"c_tested": witness.c_tested, "k": witness.k,
                             "vertex": point_payload(witness.vertex)}
        lines = _witness_lines(args.cmax, witness)
        if rep.least_c is not None:
            notes.append(f"exact: the least stabilizing c is {rep.least_c}, "
                         f"above c_max = {args.cmax}")
        elif rep.never:
            notes.append("never stabilizes: beta > 0 keeps "
                         "ceil(alpha*k + beta)/k above alpha for every k")
        else:
            notes.append("bounded search: this does not certify that no "
                         "stabilizing c exists")
    return result, lines, notes


def _cmd_np_eq_sp(parsed: ParsedIdeal, args):
    same = np_equals_sp(parsed.classified)
    result = {"np_equals_sp": same}
    return result, [f"NP(I) = SP(I): {'yes' if same else 'no'}"], []


def _run(args) -> tuple[dict, Iterable[str], list[str], str]:
    text, digest = read_input(args.file)
    # looked up on each call, so a wrapper set on this module is seen
    parse = parse_family_text if args.family else parse_ideal_text
    result, lines, notes = args.run(parse(text), args)
    return result, lines, notes, digest


def _dumps(obj, pad: str = "\n") -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`.  With an
    indent, json runs its pure-Python encoder, value by value; this writer
    joins a whole list of ints or of strings at once, and formats a whole
    list of int lists with one % operation.  `pad` is the line break and
    indent that end a line at obj's depth."""
    inner = pad + "  "
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = (f"{encode_basestring_ascii(key)}: {_dumps(value, inner)}"
                 for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(obj) in (list, tuple) and obj:
        kinds = set(map(type, obj))
        # rows of strings, such as points, skip the flat scan
        flat = (tuple(chain.from_iterable(obj))
                if kinds <= {list, tuple} and all(obj)
                and type(obj[0][0]) is int else ())
        if kinds == {int}:
            items = map(str, obj)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, obj)
        elif flat and set(map(type, flat)) == {int}:
            # rows of ints: one %d template per row length, filled in by a
            # single % over all the entries
            row = inner + "  "
            lengths = list(map(len, obj))
            template = {k: f"[{row}{(',' + row).join(['%d'] * k)}{inner}]"
                        for k in set(lengths)}
            items = [("," + inner).join(map(template.__getitem__, lengths))
                     % flat]
        else:
            items = (_dumps(item, inner) for item in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, (dict, list, tuple)) and obj:
        # keys other than strings, or a subclass: as json writes it; a JSON
        # text has no raw line break but those of its indentation
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)
    # other scalars and empty containers, by json's C encoder
    return json.dumps(obj)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = _build_parser()
    args = None
    if argv and argv[0] in verbs:
        # the verb's parser, called as the full parser calls it; words it
        # leaves over are an error, which the full parser reports
        args, rest = verbs[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(verb=argv[0]))
        if rest:
            args = None
    if args is None:
        args = parser.parse_args(argv)
    try:
        # a bad budget setting is refused even by verbs that never use it
        poly.vertex_budget()
        result, lines, notes, digest = _run(args)
    except VertexBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidVertexBudget, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NokError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            envelope = {"command": args.verb,
                        "input": {"path": args.file, "sha256": digest},
                        "result": result, "notes": notes}
            print(_dumps(envelope))
        else:
            print(f"command: {args.verb} {args.file}")
            print(f"input sha256: {digest}")
            for line in lines:
                print(line)
            for note in notes:
                print(f"note: {note}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; point stdout at devnull so the
        # flush at interpreter exit cannot fail again (Python's `signal`
        # docs), and exit with 128 + SIGPIPE, as a shell reports a process
        # that the signal killed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
