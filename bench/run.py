"""nok benchmark: run one workload, check every answer, print metrics.

    python3 bench/run.py --workload survey --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --compare RESULTS_A RESULTS_B
    python3 bench/run.py --record-references

A run drives nok from outside, in one process and one thread, as a
closed loop with one client: each query starts after the previous one
returns.  A CLI query is `nok.cli.main([..., "--json"])` with both
polyhedron caches cleared first, so it runs cold as a fresh `nok`
process would; a library query is a call into the imported package with
its caches kept warm.  The query list is run in a fixed number of
passes, sized so that the passes take about `--seconds` on a 2-core
2.1 GHz Xeon; a fixed count keeps the latency percentiles comparable
between two versions of nok.  With `--trace 1` the first half of the
passes runs untraced and the rest with span tracing of every public nok
function, and the run reports per-layer metrics instead of end-to-end
ones.  `setup_s` is timed separately, as the median over fresh child
processes of the time until the first query could run.  The last line
of standard output is one JSON object; a fuller record of the run goes
to `bench/out/results/` (see `--out`).

Times are calibrated.  On a shared host the speed of pure Python drifts
by a quarter or more over minutes, as other tenants come and go, which
would swamp the differences between two versions of nok.  So the run
times a fixed calibration round (`host_pace`, code of the benchmark's
own, never of nok) before the first query and after every query, and
divides each query's wall time by the mean pace of the two rounds
around it.  A calibrated second is a second at the nominal pace of one
round per CALIBRATION_S; the raw wall clock is kept in the record and
printed beside `wall_s`.  `setup_s` is calibrated the same way, by
rounds before and after each child process.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"
SETUP_REPEATS = 11
# a run stops early once it has taken this many times --seconds
OVERRUN = 1.5
PERCENTILES = (99.9, 99, 95, 90, 75)
DEFAULT_VERTEX_BUDGET = 10_000
# host calibration: the nominal time of one round of CALIBRATION_SIZE
# steps; on a 2-core 2.1 GHz Xeon with Python 3.11 a round takes 0.25 to
# 0.5 ms as the host's other tenants come and go
CALIBRATION_SIZE = 120
CALIBRATION_S = 0.0005

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    pass


# setup

def import_nok():
    """Import nok from the checkout's sources."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    nok = importlib.import_module("nok")
    importlib.import_module("nok.cli")
    return nok


def setup(workload: str, seed: int, inputs: Path):
    """Import nok, parse the fixtures, generate the seeded inputs and
    build the query list."""
    nok = import_nok()
    fixtures = {name: nok.parse_ideal_text(
        (ROOT / workloads.ideal_path(name)).read_text())
        for name in workloads.IDEALS}
    for name in workloads.FAMILIES:
        nok.parse_family_text((ROOT / workloads.family_path(name)).read_text())
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "library":
        queries = workloads.library(seed, nok, fixtures)
    else:
        queries = getattr(workloads, workload)(seed, inputs, fixtures)
    return nok, queries


def preflight(need_references=True):
    missing = [p for p in ("src/nok/__init__.py", "ideals", "families")
               if not (ROOT / p).exists()]
    if missing:
        raise SetupError(f"not a nok checkout: missing {', '.join(missing)}")
    if need_references and not REFERENCES.exists():
        raise SetupError("bench/references.json is missing; run "
                         "--record-references at a trusted commit")


# running queries

def execute(nok, query):
    """Run one query; returns (status, output).  Status 0 is success, an
    int is nok's exit code, a string describes an exception."""
    if query.argv is None:
        try:
            return 0, query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            return f"{type(exc).__name__}: {exc}", None
    nok.newton_polyhedron.cache_clear()
    nok.symbolic_polyhedron.cache_clear()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = nok.cli.main(query.argv + ["--json"])
    except SystemExit as exc:
        code = exc.code if exc.code else "exit"
    except Exception as exc:  # counted as a failed query
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def plain(value):
    """Library answers in JSON form, rationals as canonical strings."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    raise TypeError(f"no plain form for {type(value).__name__}")


def answer(query, output):
    """The checked part of an output: a library answer in plain form, or
    the `result` of nok's JSON envelope."""
    if query.argv is None:
        return plain(output)
    return json.loads(output)["result"]


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks each pass's outputs.  Fixture answers must match the
    recorded digests; a generated answer is verified by its checker the
    first time and must then repeat byte for byte."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.verified: dict[str, str] = {}
        self.failures: list[str] = []

    def check_pass(self, queries, outputs) -> int:
        results, groups = [], defaultdict(dict)
        for q, (status, out) in zip(queries, outputs):
            result = None
            if status == 0:
                try:
                    result = answer(q, out)
                except (ValueError, KeyError, TypeError) as exc:
                    status = f"unreadable output ({exc})"
                if q.group is not None:
                    groups[q.group][q.label] = result
            results.append((status, result))
        failed = 0
        for q, (status, result) in zip(queries, results):
            problem = self.problem(q, status, result, groups)
            if problem:
                failed += 1
                self.failures.append(f"{q.key}: {problem}")
        return failed

    def problem(self, q, status, result, groups):
        if status != 0:
            return f"status {status}"
        text = canonical(result)
        if q.check is None:
            expected = self.refs.get(q.key)
            if expected is None:
                return "no reference recorded"
            return None if digest(text) == expected else "differs from reference"
        if q.key in self.verified:
            return None if self.verified[q.key] == text else "not repeatable"
        try:
            q.check(q.subject, result, groups[q.group])
        except checks.CheckError as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed answer ({type(exc).__name__}: {exc})"
        self.verified[q.key] = text
        return None


def cache_counts(nok) -> dict:
    return {name: getattr(nok, name).cache_info()[:2] for name in tracing.CACHED}


def _calibration_round() -> Fraction:
    """A fixed slice of the interpreter work nok does: small tuples,
    dictionary counts, componentwise comparisons and rational sums."""
    acc, seen = Fraction(0), {}
    for i in range(CALIBRATION_SIZE):
        v = (i % 7, i % 5, i % 3)
        seen[v] = seen.get(v, 0) + 1
        if all(x <= y for x, y in zip(v, (4, 3, 2))):
            acc += Fraction(i % 11, 1 + i % 13)
    return acc


def host_pace() -> float:
    """How slow the host runs pure Python right now, against the nominal
    pace: the median of five calibration rounds, with the garbage
    collector off so that nok's heap cannot change it, divided by
    CALIBRATION_S."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rounds = []
        for _ in range(5):
            t0 = perf_counter()
            _calibration_round()
            rounds.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(rounds) / CALIBRATION_S


class Run:
    def __init__(self, nok, queries, refs):
        self.nok = nok
        self.queries = queries
        self.checker = Checker(refs)
        self.attempted = 0
        self.failed = 0
        # calibrated pass times, and the raw wall clock of each pass
        self.walls = {"plain": [], "traced": []}
        self.raw_walls = {"plain": [], "traced": []}
        self.paces: list[float] = []
        # calibrated plain-pass times of each query, by list position
        self.query_s: list[list[float]] = [[] for _ in queries]
        self.tracer = None
        self.traced_queries = 0
        self.cache_stats = {name: [0, 0] for name in tracing.CACHED}

    def one_pass(self, phase: str):
        """Run every query once.  The host's pace is measured before the
        first query and after each one; a query's time is divided by the
        mean of the two paces around it."""
        nok, outputs = self.nok, []
        traced = phase == "traced"
        times = []
        pace = host_pace()
        self.paces.append(pace)
        start = perf_counter()
        for i, q in enumerate(self.queries):
            if traced:
                self.tracer.query_id = self.traced_queries + i
                before = cache_counts(nok)
            t0 = perf_counter()
            outputs.append(execute(nok, q))
            elapsed = perf_counter() - t0
            if traced:
                # a CLI query clears the caches first, which resets the
                # counters; read them before the next query clears them
                after = cache_counts(nok)
                zero = (0, 0) if q.argv is not None else None
                for name in tracing.CACHED:
                    b = zero or before[name]
                    self.cache_stats[name][0] += after[name][0] - b[0]
                    self.cache_stats[name][1] += after[name][1] - b[1]
            now = host_pace()
            self.paces.append(now)
            times.append(elapsed / ((pace + now) / 2))
            pace = now
        self.raw_walls[phase].append(perf_counter() - start)
        self.walls[phase].append(math.fsum(times))
        if traced:
            self.traced_queries += len(self.queries)
        else:
            for samples, t in zip(self.query_s, times):
                samples.append(t)
        self.attempted += len(self.queries)
        self.failed += self.checker.check_pass(self.queries, outputs)

    def run_phase(self, phase: str, passes: int, deadline: float):
        """A fixed number of passes, so that every run of a workload has the
        same sample count; stops early only past the deadline."""
        for _ in range(passes):
            self.one_pass(phase)
            if perf_counter() > deadline:
                return


# metrics

def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it,
    by nearest rank: (percentile, value, samples beyond)."""
    values = sorted(latencies)
    n = len(values)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, values[rank - 1], n - rank
    return 50, statistics.median(values), n // 2


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nok").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def vertex_budget():
    raw = os.environ.get("NOK_MAX_VERTICES")
    try:
        value = int(raw or "")
    except ValueError:
        value = DEFAULT_VERTEX_BUDGET
    return {"raw": raw, "effective": value if value > 0
            else DEFAULT_VERTEX_BUDGET}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def write_spans(tracer, path: Path):
    """All recorded spans, one per line: name start end parent query."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("name\tstart\tend\tparent\tquery\n")
        for name, s, e, p, q in tracer.spans():
            out.write(f"{name}\t{s:.9f}\t{e:.9f}\t{p}\t{q}\n")


def inputs_dir(args) -> Path:
    return BENCH / "out" / "inputs" / f"{args.workload}-{args.seed}"


def setup_seconds(args) -> tuple[float, float]:
    """Time from starting a fresh Python process until it could run the
    first query: interpreter start, import, fixtures, seeded inputs and
    references.  The child reports the moment it is ready on the shared
    monotonic clock.  Returns the time calibrated by the host's pace
    around the child, and the raw time."""
    pace = host_pace()
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True)
    if child.returncode != 0:
        raise SetupError(f"set-up failed: {child.stderr.strip()}")
    raw = float(child.stdout.split()[-1]) - start
    return raw / ((pace + host_pace()) / 2), raw


def setup_probe(args) -> int:
    setup(args.workload, args.seed, inputs_dir(args))
    json.loads(REFERENCES.read_text())
    print(time.monotonic())
    return 0


def measure(args) -> int:
    preflight()
    setups = [setup_seconds(args) for _ in range(SETUP_REPEATS)]
    nok, queries = setup(args.workload, args.seed, inputs_dir(args))
    refs = json.loads(REFERENCES.read_text())["queries"]

    run = Run(nok, queries, refs)
    passes = max(2, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    began = perf_counter()
    deadline = began + OVERRUN * args.seconds
    if args.trace:
        run.run_phase("plain", passes // 2, deadline)
        run.tracer = tracing.Tracer()
        run.tracer.install()
        try:
            run.run_phase("traced", passes - passes // 2, deadline)
        finally:
            run.tracer.uninstall()
    else:
        run.run_phase("plain", passes, deadline)
    elapsed = perf_counter() - began

    latencies_ms = [t * 1000 for ts in run.query_s for t in ts]
    p, tail_ms, beyond = tail(latencies_ms)
    samples = len(latencies_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.median(run.walls["plain"]), "s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # reported, not bounded: with a few dozen distinct queries per pass
    # the tail percentile falls between the times of two different
    # queries, and which one it meets swings with the seed
    informative = {"latency_tail_ms": (tail_ms, "ms")}
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": nproc(),
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "nok_max_vertices": vertex_budget(),
        "setup_repeats": SETUP_REPEATS,
        "queries_per_pass": len(queries),
        "pass_walls_s": run.walls,
        "raw_pass_walls_s": run.raw_walls,
        "calibration_s": CALIBRATION_S,
        "host_pace": {"median": statistics.median(run.paces),
                      "min": min(run.paces), "max": max(run.paces),
                      "samples": len(run.paces)},
        "setup_raw_s": [raw for _, raw in setups],
        "latency_samples": samples,
        "passes": len(run.walls["plain"]),
        "latency_tail_percentile": p,
        "latency_tail_beyond": beyond,
        "measured_s": elapsed,
    }
    record = {"meta": meta, "attempted": run.attempted, "failed": run.failed,
              "failed_ratio": run.failed / run.attempted,
              "failures": run.checker.failures[:50],
              "query_median_ms": {q.key: 1000 * statistics.median(ts)
                                  for q, ts in zip(run.queries, run.query_s)
                                  if ts},
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in end_to_end.items()},
              "informative": {k: {"value": v, "unit": u}
                              for k, (v, u) in informative.items()}}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {meta['python']}  nproc {meta['nproc']}  "
          f"git {meta['git_sha'] or '-'}  source {meta['source_sha256']}  "
          f"NOK_MAX_VERTICES {meta['nok_max_vertices']['effective']}")
    print(f"host pace {meta['host_pace']['median']:.3f} "
          f"[{meta['host_pace']['min']:.3f}, {meta['host_pace']['max']:.3f}]"
          f" of the reference; calibrated pass walls "
          f"{', '.join(f'{w:.3f}' for w in run.walls['plain'])}"
          f"{' | traced ' if args.trace else ''}"
          f"{', '.join(f'{w:.3f}' for w in run.walls['traced'])}")
    print(f"queries/pass {len(queries)}  "
          f"attempted {run.attempted}  failed {run.failed}  "
          f"failed_ratio {record['failed_ratio']:.4g}")
    for line in run.checker.failures[:20]:
        print(f"FAIL {line}")
    for name, (value, unit) in (end_to_end | informative).items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {SETUP_REPEATS} fresh processes)"
        elif name == "wall_s":
            extra = (f"  (median of {len(run.walls['plain'])} passes; raw "
                     f"{statistics.median(run.raw_walls['plain']):.4g} s)")
        elif name == "latency_p50_ms":
            extra = f"  (n={samples})"
        elif name == "latency_tail_ms":
            extra = f"  (p{p:g}, n={samples}, {beyond} beyond)"
        print(f"{name:18s} {value:.6g} {unit}{extra}")

    metrics = end_to_end
    if args.trace:
        layer = tracing.summarize(run.tracer, run.traced_queries,
                                run.cache_stats)
        overhead = (statistics.median(run.walls["traced"])
                    - statistics.median(run.walls["plain"]))
        layer["trace.overhead_s"] = (overhead, "s")
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layer.items()}
        record["hot_spots"] = tracing.hot_spots(run.tracer)
        print(f"tracing overhead: traced wall_s - untraced wall_s = "
              f"{overhead:.4g} s")
        print("largest self times:")
        for name, self_s, calls in record["hot_spots"]:
            print(f"  {name:40s} {self_s:9.4f} s  {calls} calls")
        for name, (value, unit) in layer.items():
            print(f"{name:44s} {value:.6g} {unit}")
        metrics = layer

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        write_spans(run.tracer, out_dir / f"{stem}.spans.tsv.gz")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# references and comparison

def record_references(args) -> int:
    """Record digests of every fixture answer at the current commit."""
    preflight(need_references=False)
    inputs = BENCH / "out" / "inputs" / "record"
    refs = {}
    for workload in workloads.WORKLOADS:
        nok, queries = setup(workload, 0, inputs)
        for q in queries:
            if q.check is not None or q.key in refs:
                continue
            status, out = execute(nok, q)
            if status != 0:
                raise SetupError(f"{q.key} failed with status {status}")
            refs[q.key] = digest(canonical(answer(q, out)))
            print(f"recorded {q.key}", flush=True)
    REFERENCES.write_text(json.dumps(
        {"git_sha": git_sha(), "source_sha256": source_sha256(),
         "queries": dict(sorted(refs.items()))}, indent=1) + "\n")
    return 0


def load_results(directory: Path) -> dict:
    """{workload: {metric: [values]}} over every result file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        wl = record["meta"]["workload"]
        for section in ("metrics", "informative", "per_layer"):
            for name, m in record.get(section, {}).items():
                out[wl][name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_results(Path(args.compare[0])), load_results(Path(args.compare[1]))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    informative = {"latency_tail_ms": {}}
    flagged = 0
    for wl in sorted(set(a) & set(b)):
        print(f"== {wl}  (A = {args.compare[0]}, B = {args.compare[1]})")
        print(f"{'metric':44s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s}  B/A")
        for name, m in (e2e | informative | layer).items():
            if not a[wl].get(name) or not b[wl].get(name):
                continue
            qa, qb = quartiles(a[wl][name]), quartiles(b[wl][name])
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            note = ""
            if "bound" in m:
                worse = (ratio - 1 if m["better"] == "lower" else 1 - ratio)
                spread = max((q[2] - q[0]) / q[1] if q[1] else 0
                             for q in (qa, qb))
                if worse > m["bound"]:
                    note = f"  WORSE beyond bound {m['bound']}"
                    flagged += 1
                if spread > m["bound"]:
                    note += "  (spread beyond bound: unresolved)"
            print(f"{name:44s} {fmt(qa, len(a[wl][name])):>30s} "
                  f"{fmt(qb, len(b[wl][name])):>30s}  {ratio:.3f}{note}")
    print(f"{flagged} end-to-end metric(s) worse beyond their bound")
    return 1 if flagged else 0


def fmt(q, n):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20,
                        help="measuring time; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "out" / "results"),
                        help="directory for the full result records")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of result records")
    parser.add_argument("--record-references", action="store_true",
                        help="record digests of the fixture answers")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.compare:
            return compare(args)
        if args.record_references:
            return record_references(args)
        if not args.workload:
            parser.error("--workload is required")
        if args.setup_probe:
            return setup_probe(args)
        return measure(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
