import hashlib
import json
import os
import random
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

import nok
import nok.bodies
import nok.cli
import nok.families
import nok.polyhedron
from nok import frac_to_str
from nok.cli import main

TRIANGLE = "ideals/triangle.nok"
WEIGHTED = "ideals/weighted.nok"
MPRIMARY = "ideals/mprimary.nok"
CEILING = "families/ceiling.nok"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_sp_text_output(capsys):
    code, out, _ = run(capsys, "sp", TRIANGLE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"command: sp {TRIANGLE}"
    assert lines[1].startswith("input sha256: ")
    assert "vertices (4):" in out
    assert "  (1/2, 1/2, 1/2)" in out
    assert "mdc: 1" in out
    assert "  x + y >= 1" in out


def test_np_differs_from_sp_on_triangle(capsys):
    np_doc = run_json(capsys, "np", TRIANGLE)
    sp_doc = run_json(capsys, "sp", TRIANGLE)
    assert np_doc["result"]["mdc"] == 2
    assert sp_doc["result"]["mdc"] == 1
    assert len(np_doc["result"]["vertices"]) == 3
    assert len(sp_doc["result"]["vertices"]) == 4
    assert ["1/2", "1/2", "1/2"] in sp_doc["result"]["vertices"]


def test_spread_verb(capsys):
    doc = run_json(capsys, "spread", TRIANGLE)
    assert doc["result"] == {"analytic_spread": 3,
                             "symbolic_analytic_spread": 2}


def test_constants_json_frozen(capsys):
    doc = run_json(capsys, "constants", WEIGHTED)
    assert doc["result"] == {
        "D": "2", "analytic_spread": 3, "c": "2",
        "hadamard_bound": "3", "hadamard_exact": True,
        "sgt_upper": "3", "sgt_upper_np_eq_sp": None,
        "svd_lower": "2", "svd_upper": "2",
        "symbolic_analytic_spread": 2,
        "vertex_denominators": ["1", "2", "1", "1"]}


def test_constants_of_an_unsupported_class(capsys, tmp_path):
    # no symbolic polyhedron: every SP field is null, the text stops after
    # the analytic spread, and the note says why
    target = tmp_path / "general.nok"
    target.write_text("vars: x, y\ngens: x^3*y, x*y^2\n")
    assert nok.parse_ideal_file(str(target)).classified.kind is \
        nok.IdealKind.GENERAL_UNSUPPORTED
    doc = run_json(capsys, "constants", str(target))
    assert doc["result"] == {
        "D": None, "analytic_spread": 2, "c": None,
        "hadamard_bound": None, "hadamard_exact": None,
        "sgt_upper": None, "sgt_upper_np_eq_sp": None,
        "svd_lower": None, "svd_upper": None,
        "symbolic_analytic_spread": None, "vertex_denominators": None}
    assert doc["notes"] == [nok.cli._UNSUPPORTED_NOTE]
    code, out, err = run(capsys, "constants", str(target))
    assert (code, err) == (0, "")
    assert out == (f"command: constants {target}\n"
                   "input sha256: 9e5e7e3ea11f\n"
                   "analytic spread: 2\n"
                   f"note: {nok.cli._UNSUPPORTED_NOTE}\n")


def test_spread_is_the_head_of_constants(capsys, monkeypatch, tmp_path):
    # every fixture, a components: file, the unit ideal and a class with
    # no symbolic polyhedron
    paths = sorted(str(p) for p in Path("ideals").glob("*.nok"))
    for name, text in (("dec", "vars: x, y, z\ncomponents: (x,y)^2, (x), "
                               "(y), (x,y,z), (y,z)^3\n"),
                       ("unit", "vars: x, y\ngens: 1\n"),
                       ("general", "vars: x, y\ngens: x^3*y\n")):
        (tmp_path / f"{name}.nok").write_text(text)
        paths.append(str(tmp_path / f"{name}.nok"))
    passes = []
    inner = nok.polyhedron.cone_extreme_rays
    monkeypatch.setattr(nok.polyhedron, "cone_extreme_rays",
                        lambda *a: passes.append(a) or inner(*a))
    for path in paths:
        kind = nok.parse_ideal_file(path).classified.kind
        nok.newton_polyhedron.cache_clear()
        nok.symbolic_polyhedron.cache_clear()
        passes.clear()
        spread = run_json(capsys, "spread", path)
        # one pass for NP, and one more only for an SP that is not NP
        one = kind in (nok.IdealKind.M_PRIMARY,
                       nok.IdealKind.GENERAL_UNSUPPORTED)
        assert len(passes) == (1 if one else 2), path
        constants = run_json(capsys, "constants", path)
        assert spread["result"] == {
            key: constants["result"][key]
            for key in ("analytic_spread", "symbolic_analytic_spread")}
        assert spread["notes"] == constants["notes"]
        assert (spread["notes"] == [nok.cli._UNSUPPORTED_NOTE]) == (
            kind is nok.IdealKind.GENERAL_UNSUPPORTED)
        reports, notes = [], []
        for verb in ("spread", "constants"):
            code, out, err = run(capsys, verb, path)
            assert (code, err) == (0, "")
            lines = out.splitlines()[1:]
            reports.append([x for x in lines if not x.startswith("note: ")])
            notes.append([x for x in lines if x.startswith("note: ")])
        head, whole = reports
        assert whole[:len(head)] == head, path
        assert notes[0] == notes[1]


def test_symbolic_power_verb(capsys):
    doc = run_json(capsys, "symbolic-power", TRIANGLE, "-k", "2")
    gens = {tuple(g) for g in doc["result"]["generators"]}
    assert gens == {(2, 2, 0), (0, 2, 2), (2, 0, 2), (1, 1, 1)}


def test_real_power_verb(capsys):
    doc = run_json(capsys, "real-power", MPRIMARY, "-r", "1/3")
    assert doc["result"]["r"] == "1/3"
    # (1, 0) fails 2x + 3y >= 8/3, the scaled lower edge of the body
    assert doc["result"]["generators"] == [[0, 1], [2, 0]]


def test_member_symbolic(capsys):
    doc = run_json(capsys, "member", TRIANGLE, "-m", "x*y*z", "-k", "2")
    assert doc["result"]["member"] is True
    assert doc["result"]["mode"] == "symbolic"
    doc = run_json(capsys, "member", TRIANGLE, "-m", "x*y", "-k", "2")
    assert doc["result"]["member"] is False


def test_member_closure_certificate(capsys):
    doc = run_json(capsys, "member", MPRIMARY, "-m", "x^3*y", "-k", "1",
                   "--closure", "--certificate")
    result = doc["result"]
    assert result["member"] is True
    assert result["mode"] == "integral-closure"
    cert = result["certificate"]
    assert cert["inside"] is True
    weights = [Fraction(w) for w in cert["weights"]]
    assert sum(weights) == 1 and all(w >= 0 for w in weights)


def test_member_certificate_outside(capsys):
    doc = run_json(capsys, "member", TRIANGLE, "-m", "x", "-k", "2",
                   "--certificate")
    cert = doc["result"]["certificate"]
    assert doc["result"]["member"] is False
    assert cert["inside"] is False
    assert cert["violated"] is not None


def test_hilbert_default_and_truncated(capsys):
    doc = run_json(capsys, "hilbert", TRIANGLE)
    result = doc["result"]
    assert result["exhaustive"] is True
    assert result["sgt"] == 2
    assert result["degree_bound_used"] == 3
    assert result["c_degree_compatible"] is True
    assert result["lcm_degrees"] == 2
    assert result["svd_window"] == ["2", "2"]
    assert {"degree": 2, "exponent": [1, 1, 1]} in result["elements"]

    doc = run_json(capsys, "hilbert", TRIANGLE, "--bound", "1")
    result = doc["result"]
    assert result["exhaustive"] is False
    assert result["c_degree_compatible"] is None
    assert len(result["elements"]) == 3
    assert any("bounded search only" in n for n in doc["notes"])


def test_veronese_probe_and_explicit(capsys):
    doc = run_json(capsys, "veronese", TRIANGLE)
    assert doc["result"] == {"candidate": "2", "k_max": 4,
                             "window": ["2", "2"]}
    doc = run_json(capsys, "veronese", TRIANGLE, "-d", "1", "--kmax", "2")
    assert doc["result"] == {"d": 1, "k_max": 2, "verified": False}


def test_normal_rees_verb(capsys):
    doc = run_json(capsys, "normal-rees", MPRIMARY)
    assert doc["result"]["degrees"] == [1]


def test_np_eq_sp_verb(capsys):
    assert run_json(
        capsys, "np-eq-sp", TRIANGLE)["result"]["np_equals_sp"] is False
    assert run_json(
        capsys, "np-eq-sp", MPRIMARY)["result"]["np_equals_sp"] is True


def test_family_body_verb(capsys):
    doc = run_json(capsys, "family-body", CEILING)
    assert doc["result"]["kind"] == "ceiling"
    assert doc["result"]["scale"] == "1/2"
    assert [["0", "1/2"], ["1/2", "0"]] == \
        sorted(doc["result"]["vertices"])


def test_family_body_scale_beyond_ten_thousand(capsys, tmp_path):
    # the infimum 2/13341 is reached at k = 3^-1 mod 20011 = 13341
    family = tmp_path / "ceiling_wide.nok"
    family.write_text("family: ceiling\nvars: x, y\ngens: x, y\n"
                      "alpha: 3/20011\nbeta: -1/20011\n")
    doc = run_json(capsys, "family-body", str(family))
    assert doc["result"]["scale"] == "2/13341"


def test_stabilize_text_matches_expected_phrases(capsys):
    code, out, _ = run(capsys, "stabilize", CEILING, "--cmax", "50")
    assert code == 0
    assert "not stabilized up to 50" in out
    assert "(1/2, 0)" in out
    code, out, _ = run(capsys, "stabilize", "families/symbolic_triangle.nok")
    assert code == 0
    assert "stabilized at c = 2" in out


SEARCHED_INTERSECTION = ("family: intersection\n"
                         "vars: x, y, z\ngens: x^3*y*z^2\n"
                         "vars: x, y, z\ngens: x*y^3, x^3*z^3\n")


def test_stabilize_notes_say_what_is_proven(capsys, tmp_path):
    notes = run_json(capsys, "stabilize", CEILING, "--cmax", "3")["notes"]
    assert len(notes) == 1 and notes[0].startswith("never stabilizes: "
                                                   "beta > 0")
    notes = run_json(capsys, "stabilize", "families/symbolic_triangle.nok",
                     "--cmax", "1")["notes"]
    assert notes == ["exact: the least stabilizing c is 2, above c_max = 1"]
    # the same family written as an intersection of its primes
    notes = run_json(capsys, "stabilize", "families/intersection.nok",
                     "--cmax", "1")["notes"]
    assert notes == ["exact: the least stabilizing c is 2, above c_max = 1"]
    # a component that is no prime power leaves only the search, whose
    # least c here is 3
    family = tmp_path / "searched.nok"
    family.write_text(SEARCHED_INTERSECTION)
    notes = run_json(capsys, "stabilize", str(family), "--cmax", "2")["notes"]
    assert len(notes) == 1 and notes[0].startswith("bounded search: ")
    assert run_json(capsys, "stabilize", str(family),
                    "--cmax", "3")["result"]["c"] == 3


def test_family_verbs_scan_the_ceiling_ratios_once(capsys, monkeypatch,
                                                   tmp_path):
    family = tmp_path / "ceiling_wide.nok"
    family.write_text("family: ceiling\nvars: x, y\ngens: x, y\n"
                      "alpha: 3/20011\nbeta: -1/20011\n")
    scans = []
    scan = nok.families._ceiling_minimum
    monkeypatch.setattr(nok.families, "_ceiling_minimum",
                        lambda fam: scans.append(fam) or scan(fam))
    for verb in ("family-body", "stabilize"):
        scans.clear()
        assert run(capsys, verb, str(family))[0] == 0
        assert len(scans) == 1


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "hilbert", WEIGHTED, "--json")
    _, second, _ = run(capsys, "hilbert", WEIGHTED, "--json")
    assert first == second


def test_emitted_rationals_round_trip(capsys):
    doc = run_json(capsys, "constants", WEIGHTED)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, str) and node[:1] in "-0123456789":
            assert frac_to_str(Fraction(node)) == node

    walk(doc["result"])


def test_unsupported_class_exits_one(capsys, tmp_path):
    target = tmp_path / "general.nok"
    target.write_text("vars: x, y\ngens: x^3*y\n")
    code, out, err = run(capsys, "sp", str(target))
    assert code == 1
    assert out == ""
    assert "error:" in err and "squarefree" in err
    # np and spread still work on the same input
    assert run(capsys, "np", str(target))[0] == 0
    code, out, _ = run(capsys, "spread", str(target))
    assert code == 0
    assert "analytic spread: 1" in out


def test_parse_error_exits_two(capsys, tmp_path):
    target = tmp_path / "broken.nok"
    target.write_text("vars: x, y\ngens: x*q\n")
    code, _, err = run(capsys, "sp", str(target))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "sp", str(tmp_path / "absent.nok"))
    assert code == 2
    assert "error:" in err


def test_non_utf8_file_exits_two(capsys, tmp_path):
    target = tmp_path / "binary.nok"
    target.write_bytes(b"vars: x\xff\xfe\n")
    code, _, err = run(capsys, "sp", str(target))
    assert code == 2


def test_vertex_budget_exits_three(capsys, monkeypatch):
    from nok import newton_polyhedron, symbolic_polyhedron
    monkeypatch.setenv("NOK_MAX_VERTICES", "2")
    newton_polyhedron.cache_clear()
    symbolic_polyhedron.cache_clear()
    try:
        code, _, err = run(capsys, "sp", TRIANGLE)
    finally:
        newton_polyhedron.cache_clear()
        symbolic_polyhedron.cache_clear()
    assert code == 3
    assert "NOK_MAX_VERTICES" in err


@pytest.mark.parametrize("value", ["abc", "-5", "0", ""])
def test_bad_vertex_budget_exits_two(capsys, monkeypatch, value):
    monkeypatch.setenv("NOK_MAX_VERTICES", value)
    # both verbs run the double description, symbolic-power through
    # symbolic_polyhedron; main checks the budget before any work, so both
    # exit 2 even when the bodies are cached
    for argv in (["sp", TRIANGLE], ["symbolic-power", TRIANGLE, "-k", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert (f"NOK_MAX_VERTICES must be a positive integer, got "
                f"{value!r}") in err


ROOT = Path(__file__).resolve().parent.parent


def module_env() -> dict:
    """The environment for `python -m nok` on the package under test."""
    src = str(Path(nok.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_pipe_exits_quietly():
    # about 500 kB of JSON, far past a pipe's buffer, so the report is
    # still being written when the reader closes its end
    with subprocess.Popen(
            [sys.executable, "-m", "nok", "symbolic-power",
             "ideals/c5cone.nok", "-k", "12", "--json"],
            cwd=ROOT, env=module_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert os.read(proc.stdout.fileno(), 10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert "Traceback" not in err
    assert err == ""
    assert code == 141


def test_closed_pipe_exits_quietly_from_a_text_report():
    # 107,831 bytes of text, past a pipe's buffer and the reader's own:
    # the report's lines are still being printed when the pipe closes
    with subprocess.Popen(
            [sys.executable, "-m", "nok", "symbolic-power",
             "ideals/c5cone.nok", "-k", "12"],
            cwd=ROOT, env=module_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == \
            b"command: symbolic-power ideals/c5cone.nok\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_unknown_verb_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", TRIANGLE])
    assert info.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["symbolic-power", TRIANGLE, "-k", "0"], "expected a positive integer"),
    (["symbolic-power", TRIANGLE, "-k", "x"], "expected an integer"),
    (["real-power", TRIANGLE, "-r", "0"], "expected a positive rational"),
    (["real-power", TRIANGLE, "-r", "abc"], "expected a rational"),
])
def test_bad_count_arguments_exit_two(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


EXIT_CODES = {"ParseError": 2, "UnknownVariable": 2,
              "NonPositiveMultiplicity": 2, "InvalidVertexBudget": 2,
              "VertexBudgetExceeded": 3}
ERROR_CLASSES = sorted(
    (value for value in vars(nok).values()
     if isinstance(value, type) and issubclass(value, nok.NokError)),
    key=lambda cls: cls.__name__)


def test_every_error_class_is_pinned():
    assert len(ERROR_CLASSES) == 21
    assert set(EXIT_CODES) <= {cls.__name__ for cls in ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES + [OSError],
                         ids=lambda cls: cls.__name__)
def test_error_class_exit_code(capsys, monkeypatch, cls):
    def fail(args):
        raise cls("boom")
    monkeypatch.setattr(nok.cli, "_run", fail)
    code, out, err = run(capsys, "np", TRIANGLE)
    expected = 2 if cls is OSError else EXIT_CODES.get(cls.__name__, 1)
    assert (code, out, err) == (expected, "", "error: boom\n")


def run_module(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "nok", *argv], cwd=ROOT,
                          env=module_env(), capture_output=True, timeout=60)


def test_module_entry_point_matches_main(capsys):
    code, out, _ = run(capsys, "np", TRIANGLE, "--json")
    proc = run_module("np", TRIANGLE, "--json")
    assert (code, proc.returncode) == (0, 0)
    assert proc.stdout == out.encode() and proc.stderr == b""


def test_module_entry_point_exits_one_on_a_domain_error(tmp_path):
    target = tmp_path / "general.nok"
    target.write_text("vars: x, y\ngens: x^3*y\n")
    proc = run_module("sp", str(target))
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")


def test_family_file_on_ideal_verb_exits_two(capsys):
    code, _, err = run(capsys, "sp", CEILING)
    assert code == 2


def test_ideal_file_on_family_verb_exits_two(capsys):
    code, _, err = run(capsys, "stabilize", TRIANGLE)
    assert code == 2


def verbs():
    return sorted(nok.cli._build_parser()[1])


FAMILY_VERBS = {"family-body", "stabilize"}
REQUIRED = {"symbolic-power": ["-k", "1"], "real-power": ["-r", "1"],
            "member": ["-m", "x", "-k", "1"]}


@pytest.mark.parametrize("verb", verbs())
def test_every_verb_dispatches_on_its_own_kind(capsys, verb):
    own, other = (CEILING, TRIANGLE) if verb in FAMILY_VERBS \
        else (TRIANGLE, CEILING)
    doc = run_json(capsys, verb, own, *REQUIRED.get(verb, []))
    assert doc["command"] == verb
    code, out, _ = run(capsys, verb, other, *REQUIRED.get(verb, []), "--json")
    assert code == 2 and out == ""


def test_parsers_are_looked_up_on_each_call(capsys, monkeypatch):
    # the parser is built once and cached; a parse function replaced on
    # the module afterwards, as a tracer does, must still be the one called
    assert run(capsys, "np", TRIANGLE)[0] == 0
    calls = []

    def counting(parse):
        def wrapper(text):
            calls.append(parse.__name__)
            return parse(text)
        return wrapper

    monkeypatch.setattr(nok.cli, "parse_ideal_text",
                        counting(nok.cli.parse_ideal_text))
    monkeypatch.setattr(nok.cli, "parse_family_text",
                        counting(nok.cli.parse_family_text))
    assert run(capsys, "np", TRIANGLE)[0] == 0
    assert run(capsys, "stabilize", CEILING, "--cmax", "2")[0] == 0
    assert calls == ["parse_ideal_text", "parse_family_text"]


def fixture_queries(ideals, families):
    """Every verb on every fixture, with small arguments."""
    for name, parsed in ideals.items():
        path = f"ideals/{name}.nok"
        ones = "[" + ",".join(["1"] * parsed.ideal.nvars) + "]"
        for verb in ("np", "sp", "spread", "constants", "np-eq-sp",
                     "normal-rees", "hilbert"):
            yield [verb, path]
        yield ["symbolic-power", path, "-k", "2"]
        yield ["real-power", path, "-r", "3/2"]
        yield ["member", path, "-m", ones, "-k", "2", "--certificate"]
        yield ["member", path, "-m", ones, "-k", "2", "--closure",
               "--certificate"]
        yield ["veronese", path, "-d", "2", "--kmax", "2"]
    for name in families:
        yield ["family-body", f"families/{name}.nok"]
        yield ["stabilize", f"families/{name}.nok", "--cmax", "8"]


def test_json_writer_matches_json_dumps(capsys, monkeypatch, ideals,
                                       families):
    dumps = nok.cli._dumps
    envelopes = []
    monkeypatch.setattr(nok.cli, "_dumps",
                        lambda obj: envelopes.append(obj) or "")
    for argv in fixture_queries(ideals, families):
        assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(envelopes) > 100
    edge_cases = [[], {}, [[]], [[], [1]], [()], {"a": []}, "",
                  "naïve ∑ \u00a0 \"quoted\" \\ \n\t \U0001d11e",
                  ["é", "x"],
                  True, False, None, [True, 1], [None, "a"], -7, [-7, 0, 3],
                  2 ** 64 + 1, [-(2 ** 70), 2 ** 70], [[-1, 2 ** 65], [0]],
                  (1, 2), ((1, 2), (3,)), ("a", "b"), 1.5, [0.5, 1],
                  {"b": 1, "a": {"d": [], "c": [[1, 2], [3, 4]]}},
                  {"x": (True, None)}, {1: "int keys", 2: [3]}, (),
                  OrderedDict(b=[1], a=OrderedDict(c=2))]
    for obj in envelopes + edge_cases:
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_json_writer_int_rows_match_json_dumps():
    # lists of int rows are written by one template per row length;
    # ragged rows, one-entry rows, negative ints and ints beyond 64 bits,
    # alone and nested under keys
    big = 2 ** 64
    cases = [[[1, 2, 3], [4], [5, 6], [7, 8, 9], [10]],
             [[0], [-1], [big]],
             [(1,), (2, 3)],
             [[-5, big + 1, -(big ** 2)], [3, -3]],
             [[1, 2]] * 4 + [[3]] * 3,
             {"rows": [[9, -9], [big], [0, 0, 0]], "more": [[1]]},
             # rows of strings, and rows that mix strings, bools and ints
             [["1/2", "0"], ["3", "-1/4"]], [["a"], [1, 2]], [[1, 2], ["a"]],
             [(1, "b"), (2, 3)], [[True, 1], [2]], [[1], [False]]]
    rng = random.Random(151)
    for _ in range(40):
        cases.append([[rng.choice((0, 1, -7, 12, big, -big - 3))
                       for _ in range(rng.randint(1, 6))]
                      for _ in range(rng.randint(1, 8))])
    for obj in cases:
        assert nok.cli._dumps(obj) == json.dumps(obj, sort_keys=True,
                                                 indent=2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the whole text report of every verb, byte for byte: member certificates
# inside and outside the body, a hilbert listing, family bodies, and the
# stabilize outcomes with each of their notes
TEXT_DIGESTS = [
    ("9ff7f5381f1b6c3c3c5d4661be571af500ef8f8c2f8f876c3d6b115d417370ec",
     "np ideals/c5.nok"),
    ("04eec31dfdf2b369fec46d1f9d1375cd053b32ab73d0151efc756237412a22bc",
     "sp ideals/weighted.nok"),
    ("14eaf805e2b12ac835abefca32b18f5dfc7eddc3203a65190897b1b43a2a623e",
     "spread ideals/triangle.nok"),
    ("70f53cf973d6bee75a2dbbae144e17e735fcd6953e079d619a211c8fec4ee53b",
     "constants ideals/weighted.nok"),
    ("d193453355687ad02be260c653ef54a7c279ae6e98fb10eb6fa5d9e06b79115b",
     "constants ideals/mprimary.nok"),
    ("6d8a7e2f3c5d78a71e0d68cb5f519e46a38a84ed73e28f9c187702f111af158f",
     "symbolic-power ideals/c5.nok -k 3"),
    ("21ba5d1ce57552273b966a3a0b04c40fdb1bbf71d93ffbd8485995a1c2f17749",
     "real-power ideals/mprimary.nok -r 3/2"),
    ("8cce98cee4733f3a0475bab1857641ab09584a4e162bb0eddc4da00636b4a114",
     "member ideals/triangle.nok -m x*y*z -k 2 --certificate"),
    ("dc09a78e6f20f963ee4bc033966434a677ee24f88eb8f422ff6e08675281ad7c",
     "member ideals/triangle.nok -m x -k 2 --certificate"),
    ("4686d2c063c713b0a5f244e24f096c637131cb22789b1258a8d5a1ba2ca66647",
     "member ideals/mprimary.nok -m x^3*y -k 1 --closure --certificate"),
    ("fbc0eaef867aa9f1432b82e72ffbe9a972d90c39d0757ce9965ffdfe9cf08142",
     "member ideals/c5.nok -m x1*x2 -k 1"),
    ("2c988664cfb177fd0ab834e9baaa18da7dd998414a6f2bb45dc12b697ea01bc1",
     "hilbert ideals/c5.nok"),
    ("690828c9de5285bd9b0db91225c180be90bb3221223eaf9db4ded87ff94efd72",
     "hilbert ideals/weighted.nok --bound 2"),
    ("87270b7182fb147b455bb8ab14381996d79668206bb3f5216de137053601901d",
     "veronese ideals/triangle.nok"),
    ("d9c4d5de10c9c117ce9c936e8181908804f8d8a6f067ece0531ed0ea1ef11d73",
     "veronese ideals/triangle.nok -d 1 --kmax 2"),
    ("a002e9c61b8928ee33c0486e0059ac26ad999c410dd5edcdada5849e709fc70e",
     "normal-rees ideals/c5cone.nok"),
    ("92b7b7dd5c397683d667ffe3f8adbe65d639670d34e70279655651b97029d6f9",
     "family-body families/ceiling.nok"),
    ("2f6bbbf95638a5568cca500e9c7b9391db2a002d1fca17849f39f33d96333df1",
     "family-body families/intersection.nok"),
    ("ef50636d15ef06a5fcad3446a84ce1bb788a98184a23ee4013b4e48a92aa06a1",
     "stabilize families/ceiling.nok --cmax 8"),
    ("246c8717ea4623d67ed352a7bbee99bf2c39a11b526a412c4e2a5f1538ae5f17",
     "stabilize families/symbolic_triangle.nok"),
    ("1ed4f946dff6f2e306ca835928e76e9bdc1e41f70e4f34d2bd2ca6ceb5a605e7",
     "stabilize families/symbolic_triangle.nok --cmax 1"),
    ("1949ff58223d979cffab0d8c9dbd82d30730567cfbe04e2eab6e7bf33ad8a433",
     "stabilize families/intersection.nok --cmax 1"),
    ("82e6f537cd80ab297b0e65168083114736833a67ec6efe431958a050148965aa",
     "np-eq-sp ideals/triangle.nok"),
]


def test_text_digests_cover_every_verb():
    assert {args.split()[0] for _, args in TEXT_DIGESTS} == set(verbs())


@pytest.mark.parametrize("expected, args", TEXT_DIGESTS)
def test_text_report_is_pinned(capsys, expected, args):
    code, out, err = run(capsys, *args.split())
    assert code == 0, err
    assert sha256(out) == expected


def outcome(capsys, argv):
    """main's exit code, standard output and standard error."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    ([], 2),
    (["--help"], 0),
    (["frobnicate", TRIANGLE], 2),
    (["np", "-h"], 0),
    (["np", TRIANGLE, "extra"], 2),
    (["symbolic-power", TRIANGLE, "-k", "0"], 2),
    (["member", TRIANGLE, "-k", "1"], 2),
    (["--json", "np", TRIANGLE], 2),
    (["np", "--", TRIANGLE], 0),
    (["np", TRIANGLE, "--js"], 0),
    (["member", TRIANGLE, "-m", "x", "-k", "1", "--cert"], 0),
])
def test_verb_dispatch_matches_the_full_parser(capsys, monkeypatch, argv,
                                               code):
    # a command line starting with a verb goes to that verb's parser; with
    # no verb table, every command line takes the full parser, as before
    dispatched = outcome(capsys, argv)
    assert dispatched[0] == code
    parser, _ = nok.cli._build_parser()
    monkeypatch.setattr(nok.cli, "_build_parser", lambda: (parser, {}))
    assert outcome(capsys, argv) == dispatched


# --json reports whose work needs no minimal primes and no text line
CUT_DIGESTS = [
    ("d28efbc34414e7135a07241be0b00e1e1cc1d47aa54203799f95fe624d0a5055",
     "np ideals/c5.nok"),
    ("b68dfb48fb61b93e5b081426efe1b125c09c4af8753e3e645dcb42c413395e42",
     "real-power ideals/c5.nok -r 3/2"),
    ("97562fed25f5c09b5a495c47eee3e32101994432bb1d1b16629d1f8656c1e00b",
     "normal-rees ideals/c5.nok"),
    ("9ca378796032d4ed730a88a3f9173c6a19045d5aca18246356f4bc518b7eeb4d",
     "member ideals/c5.nok -m x1*x2*x3*x4*x5 -k 2 --closure"),
    ("e2d0342836560ce1bf7280930045043222dfaaf260d1beb36e502f1ea43e1051",
     "member ideals/c5.nok -m x1*x2*x3*x4*x5 -k 2 --closure --certificate"),
    ("2cf43bfd62a9255556db68be82c600668ff5efc70b20c350bf6bc615e56d9674",
     "np ideals/weighted.nok"),
    ("0475cf9035844fe8fbb23ea2f3ff30e8896ace724f1caff70c8cd80651dcbcd0",
     "sp ideals/weighted.nok"),
    ("d6ec46e1ac2f467dd721d21d0874d19b55b6226678040751167191a641ea6de4",
     "member ideals/weighted.nok -m x^5*y^3*z^4 -k 2 --certificate"),
    ("1373a2955fab3226f9f615e955acf040ad729477e08c6289068d0b8a38e5681f",
     "member ideals/weighted.nok -m x -k 1 --certificate"),
    ("2cf7fef9c8cb548faa1fb190d7051d35d235c2498da81706fb2685590ff48b85",
     "family-body families/ceiling.nok"),
    ("3af77ac936ba3036899272f4d8fe171e2a41912d11ca67b5604647d82df17ddb",
     "family-body families/intersection.nok"),
    ("81875cac354874717522ad495fbe1d109d31ec3dbac00f0f59798a70929c8a0f",
     "stabilize families/ceiling.nok --cmax 8"),
]


def refuse(*_):
    raise AssertionError("not needed for a --json report")


@pytest.mark.parametrize("expected, args", CUT_DIGESTS)
def test_json_runs_no_classify_and_formats_no_text(capsys, monkeypatch,
                                                   expected, args):
    # c5 and the ceiling base are squarefree, so classifying them finds
    # their minimal primes; weighted is given by its components
    monkeypatch.setattr(nok.bodies, "minimal_primes", refuse)
    monkeypatch.setattr(nok.cli, "format_halfspace", refuse)
    monkeypatch.setattr(nok.cli, "format_point", refuse)
    code, out, err = run(capsys, *args.split(), "--json")
    assert code == 0, err
    assert sha256(out) == expected


def test_hilbert_json_formats_no_monomial(capsys, monkeypatch):
    monkeypatch.setattr(nok.cli, "format_monomials", refuse)
    code, out, err = run(capsys, "hilbert", "ideals/c5.nok", "--json")
    assert code == 0, err
    assert sha256(out) == ("a948e13aad1f920b5a73e61dbb0ada7ca0f8d32a72bc9847"
                           "591ad23832f7f479")
