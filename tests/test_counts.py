"""Every count argument of the library (a power, a family index, a
degree or search bound) is refused by one check: a value that is not an
int >= 1 raises NonPositiveExponent naming the argument, never a
TypeError and never a silent answer."""

import re

import pytest

from nok import (NonPositiveExponent, classify, family_analytic_spread,
                 hilbert_basis, member_ideal, member_integral_closure,
                 member_symbolic, minimalize, power, stabilization_check,
                 svd_probe, symbolic_power, veronese_verify,
                 verify_np_scaled_sp)

BAD_COUNTS = (0, -1, True, 2.0, "2")


def c5(ideals):
    return ideals["c5"].classified


def unsupported():
    # no symbolic polyhedron: the checks must come before any SP work
    return classify(minimalize([(3, 1)]))


def family(families, name):
    return families[name].family


# site -> (the name its refusal gives, call taking the fixture dicts and
# the count)
SITES = {
    "power": ("power index", lambda i, f, k: power(c5(i).ideal, k)),
    "symbolic_power": ("power index",
                       lambda i, f, k: symbolic_power(c5(i), k)),
    "member_symbolic": ("power index", lambda i, f, k: member_symbolic(
        c5(i), (1,) * 5, k)),
    "member_integral_closure": (
        "power index",
        lambda i, f, k: member_integral_closure(c5(i).ideal, (1,) * 5, k)),
    "veronese_verify.d": ("Veronese degree d",
                          lambda i, f, d: veronese_verify(c5(i), d, 2)),
    "veronese_verify.k_max": ("k_max",
                              lambda i, f, k: veronese_verify(c5(i), 2, k)),
    "svd_probe": ("k_max", lambda i, f, k: svd_probe(c5(i), k)),
    "hilbert_basis": ("degree bound",
                      lambda i, f, b: hilbert_basis(c5(i), b)),
    "verify_np_scaled_sp": ("dilation",
                            lambda i, f, d: verify_np_scaled_sp(c5(i), d)),
    "veronese_verify.d[unsupported]": (
        "Veronese degree d",
        lambda i, f, d: veronese_verify(unsupported(), d, 2)),
    "veronese_verify.k_max[unsupported]": (
        "k_max", lambda i, f, k: veronese_verify(unsupported(), 2, k)),
    "svd_probe[unsupported]": ("k_max",
                               lambda i, f, k: svd_probe(unsupported(), k)),
    "hilbert_basis[unsupported]": (
        "degree bound", lambda i, f, b: hilbert_basis(unsupported(), b)),
    "verify_np_scaled_sp[unsupported]": (
        "dilation",
        lambda i, f, d: verify_np_scaled_sp(unsupported(), d)),
    "member_ideal[power]": ("family index", lambda i, f, k: member_ideal(
        family(f, "power_mprimary"), k)),
    "member_ideal[symbolic]": ("family index", lambda i, f, k: member_ideal(
        family(f, "symbolic_triangle"), k)),
    "member_ideal[intersection]": (
        "family index",
        lambda i, f, k: member_ideal(family(f, "intersection"), k)),
    "member_ideal[ceiling]": ("family index", lambda i, f, k: member_ideal(
        family(f, "ceiling"), k)),
    "stabilization_check": ("c_max", lambda i, f, c: stabilization_check(
        family(f, "ceiling"), c)),
    "family_analytic_spread": (
        "c_max",
        lambda i, f, c: family_analytic_spread(family(f, "ceiling"), c)),
}


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_bad_count_is_refused_by_name(ideals, families, site, bad):
    what, call = SITES[site]
    with pytest.raises(NonPositiveExponent,
                       match=re.escape(f"{what} must be a positive integer")):
        call(ideals, families, bad)
