import random
from fractions import Fraction

import pytest

from nok import (CeilingPowerFamily, HalfSpace, IdealKind, InexactNumber,
                 IntersectionFamily, NonPositiveMultiplicity, ParseError,
                 PowerFamily, UnknownVariable,
                 UnsupportedIdealClass, format_halfspace, format_monomial,
                 format_monomials, format_point, frac_to_str,
                 parse_family_file, parse_family_text, parse_ideal_file,
                 parse_ideal_text, parse_monomial_text, str_to_frac)
from nok.cli import main


def test_frac_to_str_formats_ints_and_fractions_and_refuses_floats():
    assert frac_to_str(7) == "7"
    assert frac_to_str(-3) == "-3"
    assert frac_to_str(2 ** 70) == str(2 ** 70)
    assert frac_to_str(Fraction(6, 4)) == "3/2"
    assert frac_to_str(Fraction(-8, 2)) == "-4"
    assert frac_to_str("4/6") == "2/3"
    for value in (0.5, 2.0):
        with pytest.raises(InexactNumber):
            frac_to_str(value)
    with pytest.raises(ParseError):
        frac_to_str(True)


def err(fn, *args):
    with pytest.raises(ParseError) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("parse", [parse_ideal_file, parse_family_file])
def test_file_parsers_refuse_non_utf8_bytes(parse, tmp_path):
    target = tmp_path / "binary.nok"
    target.write_bytes(b"vars: x\xff\xfe\n")
    with pytest.raises(ParseError, match="not valid UTF-8"):
        parse(str(target))
    with pytest.raises(OSError):
        parse(str(tmp_path / "absent.nok"))


def test_gens_round_trip():
    parsed = parse_ideal_text("vars: x, y\ngens: x^2*y, y^3\n")
    assert parsed.variables == ("x", "y")
    assert parsed.ideal.generators == ((0, 3), (2, 1))
    assert parsed.source == "gens"


def test_gens_accept_bracket_vectors_and_monomials_mixed():
    parsed = parse_ideal_text("vars: x, y, z\ngens: [1, 1, 0], z^2\n")
    assert parsed.ideal.generators == ((0, 0, 2), (1, 1, 0))


def test_unit_ideal_literal():
    parsed = parse_ideal_text("vars: x, y\ngens: 1\n")
    assert parsed.ideal.is_unit()
    assert parsed.classified.kind == IdealKind.M_PRIMARY


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nvars: x, y   # two variables\n\ngens: x*y  # one gen\n"
    assert parse_ideal_text(text).ideal.generators == ((1, 1),)


def test_generators_are_minimalized():
    parsed = parse_ideal_text("vars: x, y\ngens: x, x^2, x*y\n")
    assert parsed.ideal.generators == ((1, 0),)


def test_components_round_trip():
    parsed = parse_ideal_text(
        "vars: x, y, z\ncomponents: (x, y)^2, (y, z)^3, (z, x)^4\n")
    assert parsed.classified.kind == IdealKind.LINEAR_POWER
    dec = parsed.classified.decomposition
    # components are stored in canonical order, not file order
    assert [(c.variables, c.multiplicity) for c in dec.components] == [
        ((0, 1), 2), ((0, 2), 4), ((1, 2), 3)]
    assert parsed.source == "components"


def test_component_multiplicity_one_is_optional():
    a = parse_ideal_text("vars: x, y, z\ncomponents: (x, y), (y, z)\n")
    b = parse_ideal_text("vars: x, y, z\ncomponents: (x, y)^1, (y, z)^1\n")
    assert a.ideal == b.ideal


def test_unknown_key():
    e = err(parse_ideal_text, "vars: x\nspam: x\n")
    assert (e.line, e.column) == (2, 1)
    assert "unknown key 'spam'" in str(e)


def test_missing_colon():
    e = err(parse_ideal_text, "vars x\n")
    assert (e.line, e.column) == (1, 1)


def test_unknown_variable_position():
    with pytest.raises(UnknownVariable) as info:
        parse_ideal_text("vars: x, y\ngens: x*q\n")
    assert (info.value.line, info.value.column) == (2, 9)


def test_bad_exponent():
    e = err(parse_ideal_text, "vars: x, y\ngens: x^a\n")
    assert e.line == 2


@pytest.mark.parametrize("gens, bad, column", [
    ("x^\u00b2*y", "\u00b2", 7), ("x*y^9\u00b2", "9\u00b2", 9)])
def test_superscript_exponent_is_a_parse_error(gens, bad, column):
    # str.isdigit accepts superscript digits, which int() cannot read
    e = err(parse_ideal_text, f"vars: x, y\ngens: {gens}\n")
    assert str(e).startswith(
        f"expected a nonnegative integer exponent, got '{bad}'")
    assert (e.line, e.column) == (2, column)


def test_exponent_in_other_decimal_digits_is_read():
    # Arabic-Indic three is a decimal digit, and int() reads it
    assert parse_monomial_text("x^\u0663", ("x",)) == (3,)


def test_cli_superscript_exponent_exits_two(capsys):
    code = main(["member", "ideals/triangle.nok", "-m", "x^\u00b2", "-k", "1"])
    assert code == 2
    assert "nonnegative integer exponent" in capsys.readouterr().err


def test_negative_vector_entry():
    e = err(parse_ideal_text, "vars: x, y\ngens: [1, -1]\n")
    assert "negative exponent" in str(e)
    assert e.line == 2


def test_wrong_vector_length():
    e = err(parse_ideal_text, "vars: x, y\ngens: [1, 1, 1]\n")
    assert e.line == 2


def test_repeated_component_variable():
    e = err(parse_ideal_text, "vars: x, y\ncomponents: (x, x)\n")
    assert "repeated variable 'x'" in str(e)


def test_zero_component_multiplicity():
    with pytest.raises(NonPositiveMultiplicity):
        parse_ideal_text("vars: x, y\ncomponents: (x, y)^0\n")


def test_empty_generator_item():
    e = err(parse_ideal_text, "vars: x, y\ngens: x,, y\n")
    assert "empty generator" in str(e)


def test_duplicate_variable():
    e = err(parse_ideal_text, "vars: x, x\ngens: x\n")
    assert "duplicate variable 'x'" in str(e)


def test_empty_file():
    e = err(parse_ideal_text, "# nothing here\n")
    assert "empty file" in str(e)


def test_file_must_start_with_vars():
    e = err(parse_ideal_text, "gens: x\nvars: x\n")
    assert "must start with 'vars:'" in str(e)


def test_extra_line_rejected():
    e = err(parse_ideal_text, "vars: x\ngens: x\ngens: x\n")
    assert (e.line, e.column) == (3, 1)


@pytest.mark.parametrize("parse, text, error, line, column", [
    # variable names
    (parse_ideal_text, "vars: x, , y\ngens: x\n", ParseError, 1, 10),
    (parse_ideal_text, "vars: x, 2y\ngens: x\n", ParseError, 1, 10),
    # exponent vectors
    (parse_ideal_text, "vars: x, y\ngens: [1, 0\n", ParseError, 2, 7),
    (parse_ideal_text, "vars: x, y\ngens: [1, a]\n", ParseError, 2, 11),
    # monomials: a bad factor, text after a factor
    (parse_ideal_text, "vars: x, y\ngens: x*2\n", ParseError, 2, 9),
    (parse_ideal_text, "vars: x, y\ngens: x+y\n", ParseError, 2, 7),
    # components
    (parse_ideal_text, "vars: x, y\ncomponents: x, y\n", ParseError, 2, 13),
    (parse_ideal_text, "vars: x, y\ncomponents: (x, y\n", ParseError, 2,
     13),
    (parse_ideal_text, "vars: x, y\ncomponents: (x, 2)\n", ParseError, 2,
     17),
    (parse_ideal_text, "vars: x, y\ncomponents: (x, z)\n", UnknownVariable,
     2, 17),
    (parse_ideal_text, "vars: x, y\ncomponents: (x, y)^a\n", ParseError, 2,
     20),
    (parse_ideal_text, "vars: x, y\ncomponents: (x, y) z\n", ParseError, 2,
     19),
    (parse_ideal_text, "vars: x, y\ncomponents: (x), \n", ParseError, 2,
     18),
    # 'vars:' with no body after it, in an ideal and in a family file
    (parse_ideal_text, "vars: x, y\n", ParseError, 1, 1),
    (parse_ideal_text, "vars: x, y\nvars: x\n", ParseError, 2, 1),
    (parse_family_text, "family: power\nvars: x, y\nalpha: 1\n",
     ParseError, 2, 1),
    # a key line out of place in a family file
    (parse_family_text, "family: power\nvars: x, y\ngens: x\ngens: y\n",
     ParseError, 4, 1),
])
def test_parse_errors_name_their_line_and_column(parse, text, error, line,
                                                 column):
    e = err(parse, text)
    assert type(e) is error
    assert (e.line, e.column) == (line, column)


def test_empty_monomial_text():
    e = err(parse_monomial_text, "", ("x", "y"))
    assert type(e) is ParseError
    assert (e.line, e.column) == (None, 1)


@pytest.mark.parametrize("text, error, column", [
    ("  x*q", UnknownVariable, 5),
    (" [1,a]", ParseError, 5),
    (" x^b", ParseError, 2),
])
def test_monomial_text_columns_count_leading_blanks(text, error, column):
    # the argument is stripped before it is parsed, but its columns are
    # those of the argument as given
    e = err(parse_monomial_text, text, ("x", "y"))
    assert type(e) is error
    assert (e.line, e.column) == (None, column)


def test_power_family_file():
    parsed = parse_family_text(
        "family: power\nvars: x, y\ngens: x^4, x*y^2, y^3\n")
    assert parsed.kind == "power"
    assert isinstance(parsed.family, PowerFamily)
    assert parsed.variables == ("x", "y")


def test_symbolic_family_file():
    # the intersection of the base's components, under its own kind label
    parsed = parse_family_text(
        "family: symbolic\nvars: x, y, z\ngens: x*y, y*z, z*x\n")
    assert parsed.kind == "symbolic"
    assert isinstance(parsed.family, IntersectionFamily)
    assert sorted(j.generators for j in parsed.family.components) == [
        ((0, 0, 1), (0, 1, 0)), ((0, 0, 1), (1, 0, 0)),
        ((0, 1, 0), (1, 0, 0))]
    # an m-primary base is its power family
    parsed = parse_family_text(
        "family: symbolic\nvars: x, y\ngens: x^4, x*y^2, y^3\n")
    assert parsed.kind == "symbolic"
    assert isinstance(parsed.family, PowerFamily)


def test_symbolic_family_rejects_unsupported_base():
    with pytest.raises(UnsupportedIdealClass):
        parse_family_text("family: symbolic\nvars: x, y\ngens: x^3*y\n")


def test_intersection_family_file():
    parsed = parse_family_text(
        "family: intersection\n"
        "vars: x, y, z\ncomponents: (x, y)\n"
        "vars: x, y, z\ncomponents: (y, z)\n"
        "vars: x, y, z\ncomponents: (z, x)\n")
    assert isinstance(parsed.family, IntersectionFamily)
    assert len(parsed.family.components) == 3


def test_ceiling_family_file():
    parsed = parse_family_text(
        "family: ceiling\nvars: x, y\ngens: x, y\nalpha: 1/2\nbeta: 1\n")
    fam = parsed.family
    assert isinstance(fam, CeilingPowerFamily)
    assert (fam.alpha, fam.beta) == (Fraction(1, 2), Fraction(1))


def test_ceiling_beta_defaults_to_zero():
    parsed = parse_family_text(
        "family: ceiling\nvars: x, y\ngens: x, y\nalpha: 3/2\n")
    assert parsed.family.beta == 0


def test_ceiling_requires_alpha():
    e = err(parse_family_text, "family: ceiling\nvars: x, y\ngens: x, y\n")
    assert "requires 'alpha:'" in str(e)


def test_alpha_only_for_ceiling():
    e = err(parse_family_text,
            "family: power\nvars: x, y\ngens: x, y\nalpha: 1/2\n")
    assert "only applies to ceiling" in str(e)


def test_duplicate_alpha():
    e = err(parse_family_text,
            "family: ceiling\nvars: x\ngens: x\nalpha: 1\nalpha: 2\n")
    assert "duplicate 'alpha:'" in str(e)


def test_family_keyword_must_come_first():
    e = err(parse_family_text, "vars: x\ngens: x\n")
    assert "must start with 'family:'" in str(e)


def test_unknown_family_kind():
    e = err(parse_family_text, "family: telescoping\nvars: x\ngens: x\n")
    assert "telescoping" in str(e)


def test_family_blocks_must_share_variables():
    e = err(parse_family_text,
            "family: intersection\n"
            "vars: x, y\ngens: x\n"
            "vars: x, z\ngens: z\n")
    assert "same" in str(e)


def test_single_block_families_take_one_block():
    e = err(parse_family_text,
            "family: power\nvars: x\ngens: x\nvars: x\ngens: x\n")
    assert "exactly one ideal block" in str(e)


def test_family_needs_a_block():
    e = err(parse_family_text, "family: power\n")
    assert "at least one ideal block" in str(e)


def test_rational_text_round_trip():
    for text in ("5", "-3/4", "0", "30"):
        assert frac_to_str(str_to_frac(text)) == text
    assert frac_to_str(Fraction(-6, 4)) == "-3/2"
    assert frac_to_str(Fraction(8, 4)) == "2"


def test_rational_text_rejections():
    for bad in ("1.5", "", "abc", "1/2/3", "1e3"):
        with pytest.raises(ParseError):
            str_to_frac(bad)
    e = err(str_to_frac, "1/0")
    assert "zero denominator" in str(e)


def test_parse_monomial_text():
    assert parse_monomial_text("x^2*y", ("x", "y")) == (2, 1)
    assert parse_monomial_text("1", ("x", "y")) == (0, 0)
    assert parse_monomial_text("[0, 4]", ("x", "y")) == (0, 4)
    with pytest.raises(UnknownVariable):
        parse_monomial_text("w", ("x", "y"))


def test_formatters():
    assert format_monomial((2, 1, 0), ("x", "y", "z")) == "x^2*y"
    assert format_monomial((0, 0), ("x", "y")) == "1"
    assert format_point((Fraction(1, 2), Fraction(3))) == "(1/2, 3)"
    assert format_halfspace(HalfSpace((1, 2), 3), ("x", "y")) == \
        "x + 2*y >= 3"


def monomial_by_terms(exponents, variables):
    """One term per positive exponent, in variable order, joined by *."""
    terms = [name if e == 1 else f"{name}^{e}"
             for name, e in zip(variables, exponents) if e > 0]
    return "*".join(terms) or "1"


def test_format_monomials_matches_termwise_formatting():
    rng = random.Random(2329)
    assert format_monomials([], ("x", "y")) == []
    assert format_monomials([(), ()], ()) == ["1", "1"]
    assert format_monomials([(0, 0), (1, 0), (3, 1)], ("x", "y")) == \
        ["1", "x", "x^3*y"]
    for _ in range(200):
        nvars = rng.randint(1, 5)
        variables = [f"x{j}" for j in range(nvars)]
        vectors = [tuple(rng.choice((0, 0, 1, 2, 10, 10 ** 6))
                         for _ in range(nvars))
                   for _ in range(rng.randint(1, 8))]
        expected = [monomial_by_terms(v, variables) for v in vectors]
        assert format_monomials(vectors, variables) == expected
        assert [format_monomial(v, variables) for v in vectors] == expected


def test_fixture_files_parse(ideals, families):
    assert len(ideals) == 10
    assert len(families) == 4
    assert {f.kind for f in families.values()} == {
        "power", "symbolic", "intersection", "ceiling"}
