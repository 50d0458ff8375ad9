"""One fresh process per workload run: set up, then repeat the pass.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --inputs FILE --results FILE --seconds S --trace 0|1

Set-up is `import polignac` from the checkout's src/ plus warming the
lazy prime table; the worker prints "ready" when it is done, which is
where the parent stops its set-up clock.  With --probe it exits there.

Otherwise it runs the pass (the workload's operation list) once to warm
up, then again for about --seconds, always finishing the pass it is
in.  It writes the timed passes' per-operation latencies, the
warm-up pass's answers, the operations of each timed pass whose answers
differ from them, and ru_maxrss to the results file.  The
answers are checked by the parent, which never imports polignac.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Host-speed probes are taken about this often, in operation time.
REF_EVERY_S = 0.02

# Set-up warms the prime table to this many primes: enough for every
# index the workloads reach (theorem3 at l = 9 needs about 1750).
WARM_PRIMES = 2000


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded


def setup():
    sys.path.insert(0, str(SRC))
    import polignac

    if Path(polignac.__file__).resolve().parent != SRC / "polignac":
        raise SystemExit(f"polignac imported from {polignac.__file__}, not {SRC}")
    polignac.nth_prime(WARM_PRIMES)
    polignac.primorial(25)
    return polignac


def call(pg, op: dict, trace_dir: str | None):
    """Run one operation; return its raw result."""
    kind, a = op["kind"], op["args"]
    if kind == "census":
        k, subset, lo, hi = a
        return pg.census.gap_census(k, subset=subset, lo=lo, hi=hi)
    if kind == "find_pair_above":
        return pg.primepairs.find_pair_above(*a)
    if kind == "prime_count_pi":
        return pg.arith.prime_count_pi(*a)
    if kind == "bound_report":
        return pg.primepairs.bound_report(*a)
    if kind == "is_prime":
        return pg.arith.is_prime(*a)
    if kind == "is_prime_big":
        signal.setitimer(signal.ITIMER_REAL, op["deadline_s"])
        try:
            return pg.arith.is_prime(*a)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if kind == "mhat":
        return pg.wheel.mhat(*a)
    if kind == "propagate":
        return pg.wheel.propagate(*a)
    if kind == "is_prospective":
        return pg.wheel.is_prospective(*a)
    if kind == "codec":
        cv = pg.codec.encode(*a)
        return cv, pg.codec.decode(cv)
    if kind == "classify":
        return pg.census.classify_propagation(tuple(a[:3]), a[3], a[4])
    if kind == "lineage":
        return pg.census.derive_pairs(tuple(a[:2]), a[2], a[3])
    if kind == "theorem3":
        return pg.primepairs.theorem3_lower_bound(*a)
    if kind == "table1":
        return pg.census.table1()
    if kind == "cli":
        return run_cli(op, trace_dir)
    raise ValueError(f"unknown operation kind {kind!r}")


def run_cli(op: dict, trace_dir: str | None) -> dict:
    if trace_dir is None:
        cmd = [sys.executable, "-m", "polignac.cli", *op["args"]]
    else:
        cmd = [sys.executable, str(HERE / "clishim.py"), trace_dir, *op["args"]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=op["deadline_s"])
    except subprocess.TimeoutExpired:
        return {"timeout": True}
    return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr[-2000:]}


def normalize(kind: str, raw):
    """JSON form of an answer, for the oracle and for pass-to-pass equality."""
    if kind == "census":
        return {str(g): c for g, c in sorted(raw.entries.items())}
    if kind == "find_pair_above":
        return None if raw is None else list(raw)
    if kind == "bound_report":
        return raw.to_json_dict()
    if kind == "mhat":
        return [raw.value, raw.alpha]
    if kind == "propagate":
        return [raw.value, raw.disallowed]
    if kind == "codec":
        cv, decoded = raw
        return [cv.base, list(cv.digits), decoded]
    if kind == "classify":
        return [[r.value for r in raw.roles], list(raw.gaps), raw.merged_gap]
    if kind == "lineage":
        return [list(leaf.pair) for leaf in raw.leaves]
    if kind == "theorem3":
        return f"{raw.exact.numerator}/{raw.exact.denominator}"
    if kind == "table1":
        return json.dumps(raw.to_json_dict(), sort_keys=True, indent=2) + "\n"
    return raw


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop: a probe of how fast the
    host runs interpreted code right now."""
    start = perf_counter()
    s = 0
    for i in range(20_000):
        s += i % 7
    return perf_counter() - start


def run_pass(pg, ops, tracer, trace_dir):
    """Latencies, normalized answers and host-speed probes of one pass.

    A reference() probe is taken before the first operation and then
    after every operation that ends at least REF_EVERY_S of operation
    time after the last probe; probes[i] is the mean of the probes
    either side of operation i.
    """
    latencies, answers, probes = [], [], []
    pending, last, since = [], reference(), 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            tracer.stack.clear()
        pending.append(i)
        start = perf_counter()
        try:
            raw = call(pg, op, trace_dir)
            latencies.append(perf_counter() - start)
            answers.append(normalize(op["kind"], raw))
        except DeadlineExceeded:
            latencies.append(perf_counter() - start)
            answers.append({"deadline": True})
        except Exception as exc:  # counted as a failure by the parent
            latencies.append(perf_counter() - start)
            answers.append({"raised": f"{type(exc).__name__}: {exc}"})
        since += latencies[-1]
        if since >= REF_EVERY_S or i == len(ops) - 1:
            now = reference()
            probes += [(last + now) / 2] * len(pending)
            pending, last, since = [], now, 0.0
    return latencies, answers, probes


def window_ints(fn, args, kwargs) -> int:
    """Integers of the clamped window range an enumerate_prospective call covers."""
    import polignac

    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    k, lo, hi = bound.arguments["k"], bound.arguments["lo"], bound.arguments["hi"]
    lo = 5 if lo is None else max(lo, 5)
    hi = 4 + polignac.primorial(k) if hi is None else min(hi, 4 + polignac.primorial(k))
    return max(hi - lo + 1, 0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--inputs")
    ap.add_argument("--results")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    pg = setup()
    print("ready", flush=True)
    if args.probe:
        return 0

    workload = json.loads(Path(args.inputs).read_text())
    ops = workload["ops"]
    signal.signal(signal.SIGALRM, _alarm)
    tracer = trace_dir = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, pg)
        trace_dir = str(Path(args.results).with_suffix(".cli-spans"))
        os.makedirs(trace_dir, exist_ok=True)

    # The first pass warms caches and the allocator; its answers are the
    # ones checked, its timings are not used.
    _, first, _ = run_pass(pg, ops, tracer, trace_dir)
    if tracer is not None:
        tracer.spans.clear()
        for stale in Path(trace_dir).glob("*.json"):
            stale.unlink()
    passes, probes, differs = [], [], []
    begin = perf_counter()
    # Start another pass only while it would end, on average, by the
    # deadline, so that a run measures about --seconds.
    while not passes or (perf_counter() - begin) * (1 + 0.5 / len(passes)) < args.seconds:
        latencies, answers, pass_probes = run_pass(pg, ops, tracer, trace_dir)
        passes.append(latencies)
        probes.append(pass_probes)
        differs.append([i for i, (a, b) in enumerate(zip(first, answers))
                        if _comparable(a) != _comparable(b)])

    out = {
        "passes": passes,
        "probes": probes,
        "answers": first,
        "differs": differs,
        "rss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    }
    if tracer is not None:
        derived = tracer.replay(window_ints)
        out["layers"] = tracing.layer_metrics(tracer.spans, derived, len(passes))
        out["derived"] = list(tracing.DERIVED)
        out["checks"] = _check_spans(trace_dir, len(passes))
        spans_path = Path(args.results).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "info"],
             "spans": tracer.spans}))
    Path(args.results).write_text(json.dumps(out))
    return 0


def _comparable(answer):
    """A CLI answer without its timing-dependent parts."""
    if isinstance(answer, dict) and "code" in answer:
        return answer["code"], answer["stdout"]
    return answer


def _check_spans(trace_dir: str, passes: int) -> dict[str, float]:
    """checks.<name>.s per pass, from the spans the traced CLI wrote
    (one file per subprocess, kept next to the results)."""
    totals: dict[str, float] = {}
    for path in sorted(Path(trace_dir).glob("*.json")):
        for name, start, end, *_ in json.loads(path.read_text()):
            totals[name + ".s"] = totals.get(name + ".s", 0.0) + end - start
    return {name: value / passes for name, value in totals.items()}


if __name__ == "__main__":
    sys.exit(main())
