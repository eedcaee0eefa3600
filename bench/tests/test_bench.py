"""Tests of the benchmark's own code: seeded generation, the independent
checkers, span arithmetic and the tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def nok():
    return run.import_nok()


def cli(nok, argv):
    status, out = run.execute(nok, workloads.Query("test", list(argv)))
    assert status == 0, (argv, status)
    return json.loads(out)["result"]


def light_results(nok, tmp_path, ideal, a, k):
    path = workloads.write_input(tmp_path, ideal.name, ideal.text)
    return {label: cli(nok, argv) for label, argv in
            workloads.light_verbs(path, workloads.vector_text(a), k)}


def rejects(check, subject, result, group):
    with pytest.raises(checks.CheckError):
        check(subject, result, group)


# generation

@pytest.mark.parametrize("make", [gen.generate_survey, gen.generate_hilbert,
                                  gen.generate_powers, gen.generate_library])
def test_generation_is_deterministic_per_seed(make):
    assert repr(make(11)) == repr(make(11))
    assert repr(make(11)) != repr(make(12))


def test_generated_inputs_have_the_promised_shape():
    ideals, families, members = gen.generate_survey(3)
    assert [g.kind for g in ideals] == ["graph"] * 3 + ["decomp"] * 3 + \
        ["mprimary"] * 2
    for g in ideals:
        assert gen.minimal_vectors(g.gens) == list(g.gens)
        if g.rows is not None:
            assert all(gen.satisfies(v, g.rows, 1) for v in g.gens)
    assert {f.kind for f in families} == {"symbolic", "power", "ceiling"}


def test_brute_minimal_points_on_a_known_ideal():
    # (x, y)^2 in two variables: x^2, xy, y^2
    rows = ((frozenset({0, 1}), 2),)
    points = gen.brute_minimal_points(2, [2, 2],
                                      lambda a: gen.satisfies(a, rows, 1))
    assert points == [(0, 2), (1, 1), (2, 0)]


# checkers: each accepts nok's answer and rejects a corrupted one

def test_light_verb_checkers_reject_corruption(nok, tmp_path):
    ideals, _, members = gen.generate_survey(5)
    point = dict(members)
    for ideal in ideals:
        a, k = point[ideal.name]
        group = light_results(nok, tmp_path, ideal, a, k)
        verify = workloads.ideal_checks(a, k)
        for label, result in group.items():
            verify[label](ideal, result, group)

        bad = copy.deepcopy(group["symbolic-power:2"])
        bad["generators"] = bad["generators"][1:]
        rejects(verify["symbolic-power:2"], ideal, bad, group)
        bad = copy.deepcopy(group["real-power"])
        bad["generators"][0] = [x + 1 for x in bad["generators"][0]]
        rejects(verify["real-power"], ideal, bad, group)
        bad = copy.deepcopy(group["member"])
        bad["member"] = not bad["member"]
        rejects(verify["member"], ideal, bad, group)
        bad = copy.deepcopy(group["constants"])
        bad["c"] = str(int(bad["c"]) + 1)
        rejects(verify["constants"], ideal, bad, group)
        bad = copy.deepcopy(group["np"])
        bad["facets"][0]["offset"] += 1
        rejects(verify["np"], ideal, bad, group)
        bad = copy.deepcopy(group["spread"])
        bad["analytic_spread"] += 1
        rejects(verify["spread"], ideal, bad, group)
        bad = copy.deepcopy(group["normal-rees"])
        bad["degree_bound_used"] += 1
        rejects(verify["normal-rees"], ideal, bad, group)


def test_certificate_checker_rejects_a_wrong_weight(nok, tmp_path):
    ideal = gen.random_graph(random.Random(1), "g", 5)
    a = tuple(x + y for x, y in zip(ideal.gens[0], ideal.gens[-1]))
    group = light_results(nok, tmp_path, ideal, a, 2)
    result = group["member-closure"]
    assert result["member"]
    checks.check_member(a, 2, closure=True)(ideal, result, group)
    bad = copy.deepcopy(result)
    bad["certificate"]["remainder"][0] = "1/7"
    rejects(checks.check_member(a, 2, closure=True), ideal, bad, group)


def test_hilbert_checkers_reject_corruption(nok, tmp_path):
    for ideal in gen.generate_hilbert(2):
        path = workloads.write_input(tmp_path, ideal.name, ideal.text)
        result = cli(nok, ["hilbert", path])
        checks.check_hilbert(ideal, result, {})
        bad = copy.deepcopy(result)
        bad["exhaustive"] = False
        rejects(checks.check_hilbert, ideal, bad, {})
        bad = copy.deepcopy(result)
        bad["elements"] = bad["elements"][1:]
        rejects(checks.check_hilbert, ideal, bad, {})
        rees = cli(nok, ["normal-rees", path])
        checks.check_normal_rees(ideal, rees, {})
        bad = dict(rees, degrees=[2])
        rejects(checks.check_normal_rees, ideal, bad, {})


def test_family_checkers_reject_corruption(nok, tmp_path):
    ideals, families, members = gen.generate_survey(4)
    point = dict(members)
    by_name = {g.name: g for g in ideals}
    for fam in families:
        group = {}
        if fam.base:
            base = by_name[fam.base]
            group = light_results(nok, tmp_path, base, *point[base.name])
        path = workloads.write_input(tmp_path, fam.name, fam.text)
        body = cli(nok, ["family-body", path])
        stab = cli(nok, ["stabilize", path])
        checks.check_family_body(fam, body, group)
        checks.check_stabilize(30)(fam, stab, group)
        bad = copy.deepcopy(body)
        bad["vertices"] = bad["vertices"][1:]
        rejects(checks.check_family_body, fam, bad, group)
        bad = dict(stab, stabilized=not stab["stabilized"])
        rejects(checks.check_stabilize(30), fam, bad, group)


def test_ceiling_scale_matches_the_fixture():
    # families/ceiling.nok: alpha 1/2, beta 1 has scale 1/2
    assert checks.ceiling_scale(Fraction(1, 2), Fraction(1)) == Fraction(1, 2)
    # beta < 0 can pull the infimum below alpha: ceil(2k/3 - 1/3)/k at k = 2
    assert checks.ceiling_scale(Fraction(2, 3), Fraction(-1, 3)) == \
        Fraction(1, 2)


def test_library_checks_reject_corruption(nok):
    ideals, points = gen.generate_library(9)
    queries = workloads.library(9, nok, {})
    outputs = [run.execute(nok, q) for q in queries]
    assert run.Checker({}).check_pass(queries, outputs) == 0
    for i, (q, (status, out)) in enumerate(zip(queries, outputs)):
        if q.label in ("spread", "symbolic:0"):
            broken = list(outputs)
            broken[i] = (0, out + 1 if q.label == "spread" else not out)
            assert run.Checker({}).check_pass(queries, broken) >= 1, q.key


def test_fixture_answers_must_match_the_reference(nok):
    argv = ["np", workloads.ideal_path("triangle")]
    query = workloads.Query(" ".join(argv), argv)
    outputs = [run.execute(nok, query)]
    good = run.digest(run.canonical(run.answer(query, outputs[0][1])))
    assert run.Checker({query.key: good}).check_pass([query], outputs) == 0
    assert run.Checker({query.key: "0" * 64}).check_pass([query], outputs) == 1
    assert run.Checker({}).check_pass([query], [(3, "")]) == 1


# spans and metrics

def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [3.0, 3.0, 2.0, 2.0]


def test_summarize_reads_self_time_and_candidates():
    tr = tracing.Tracer()
    tr.names = ["simis.hilbert_basis", "polyhedron.minimal_lattice_points",
                "ideal.minimal_vectors"]
    for nid, s, e, p, out in [(0, 0.0, 10.0, -1, 0), (1, 1.0, 7.0, 0, 40),
                              (2, 7.5, 8.0, 0, 3)]:
        tr.name_of.append(nid)
        tr.start.append(s)
        tr.end.append(e)
        tr.parent.append(p)
        tr.query.append(0)
        tr.n_in.append(5 if nid == 2 else 0)
        tr.n_out.append(out)
    tr.accepted = 4
    m = tracing.summarize(tr, 1, {"newton_polyhedron": (3, 1)})
    assert m["simis.hilbert_basis.self_s"][0] == 3.5
    assert m["polyhedron.minimal_lattice_points.self_s"][0] == 6.0
    assert m["simis.hilbert.candidates"][0] == 40
    assert m["simis.hilbert.accept_ratio"][0] == 0.1
    assert m["ideal.minimal_vectors.kept_ratio"][0] == 0.6
    assert m["bodies.newton_polyhedron.hit_ratio"][0] == 0.75
    assert m["layer.simis.self_s"][0] == 3.5


def test_tracer_wraps_every_namespace_and_restores(nok):
    simis = sys.modules["nok.simis"]
    original = simis.power
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert simis.power is not original
        assert sys.modules["nok.ideal"].power is simis.power
        assert nok.newton_polyhedron.cache_info is not None
        nok.newton_polyhedron.cache_clear()
        nok.power(nok.minimalize([(1, 0), (0, 1)]), 2)
    finally:
        tracer.uninstall()
    assert simis.power is original
    names = {name for name, *_ in tracer.spans()}
    assert {"ideal.power", "ideal.multiply", "ideal.minimalize",
            "ideal.minimal_vectors"} <= names


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 1001)))[:3] == (99, 990, 10)
    assert run.tail(list(range(1, 101)))[:3] == (90, 90, 10)
    assert run.tail(list(range(1, 12)))[0] == 50


def test_query_times_are_divided_by_the_pace_around_them(monkeypatch):
    clock = [0.0]
    paces = iter([1.0, 3.0, 5.0])

    def execute(nok, query):
        clock[0] += 1.0
        return 0, 42

    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run, "execute", execute)
    monkeypatch.setattr(run, "host_pace", lambda: next(paces))
    queries = [workloads.Query(f"q{i}", call=None, check=lambda *_: None)
               for i in range(2)]
    r = run.Run(None, queries, {})
    r.one_pass("plain")
    assert r.failed == 0
    assert r.query_s == [[0.5], [0.25]]
    assert r.walls["plain"] == [0.75]
    assert r.raw_walls["plain"] == [2.0]


def test_host_pace_is_relative_to_the_reference():
    pace = run.host_pace()
    assert 0.05 < pace < 20
