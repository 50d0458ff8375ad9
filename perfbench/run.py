"""polignac benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/polignac.  The run

1. builds the workload's operation list from the seed (workloads.py);
2. times set-up: several fresh worker processes each import polignac
   and warm its prime table, and setup_s is their median;
3. runs the operation list in one more fresh worker, closed loop with a
   single caller, for S seconds (trace 0), or for S/2 seconds untraced
   and then S/2 seconds traced (trace 1);
4. checks every answer against an oracle that never imports polignac
   (oracles.py);
5. writes a run record to .perfbench_out/ and prints each metric by
   name and unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.

Trace 0 reports the end-to-end metrics, trace 1 the per-layer ones.
Known defects are kept in the workloads: their failures are counted in
"failed" and listed in the record with their cause.  "correct" is false
when any other failure occurs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import STATS  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must finish within 180 s
# worker.reference() on the baseline host in a quiet period; scaled
# times are seconds at that interpreter speed.
REF_NOMINAL_S = 0.0015

CLI_SUBCOMMANDS = ("gen", "census", "lineage", "verify", "subset-gaps", "table1",
                   "bounds", "ratios", "find-pair", "export")
CHECKS = ("prospective_counts", "twin_counts", "lineage_counts", "subset_gap_spectrum",
          "mhat_delta", "below_square", "bounds_vs_reality",
          "consecutive_primes_prospective", "ratio_monotonicity", "codec_roundtrip")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, stats in STATS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = "s" if stat in ("s", "self_s") else "count"
    units.update({f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS})
    units.update({f"checks.{name}.s": "s" for name in CHECKS})
    units.update({"bench.traced_wall_s": "s", "bench.trace_overhead_s": "s"})
    return units


class BenchError(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def _spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; return it and set-up seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    setup_s = time.perf_counter() - start
    if line != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker did not set up (said {line!r}, exit {proc.returncode})")
    return proc, setup_s


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.wait(timeout=_remaining(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.wait()
        raise BenchError("worker missed the run deadline") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def probe(deadline: float) -> float:
    proc, setup_s = _spawn(["--probe"], deadline)
    _finish(proc, deadline)
    return setup_s


def run_worker(inputs: Path, tag: str, seconds: float, trace: int, deadline: float) -> dict:
    results = OUT / f"{tag}.results.json"
    proc, setup_s = _spawn(["--inputs", str(inputs), "--results", str(results),
                            "--seconds", str(seconds), "--trace", str(trace)], deadline)
    _finish(proc, deadline)
    out = json.loads(results.read_text())
    out["setup_s"] = setup_s
    return out


# ---------------------------------------------------------------------------
# checking

def failure_cause(op: dict, answer) -> str | None:
    if op["kind"] == "cli":
        return oracles.check_cli(op, answer)
    if isinstance(answer, dict) and answer.get("deadline"):
        return f"missed the {op['deadline_s']} s deadline"
    if isinstance(answer, dict) and "raised" in answer:
        return f"raised {answer['raised']}"
    kind, args = op["kind"], op["args"]
    if kind == "census":
        k, subset, lo, hi = args
        full = subset is None and lo is None and hi is None
        if subset is not None:
            width = oracles.primorial(k - 1)
            lo, hi = 5 + subset * width, 4 + (subset + 1) * width
        elif full:
            lo, hi = 5, 4 + oracles.primorial(k)
        return oracles.check_census(k, lo, hi, full, {int(g): c for g, c in answer.items()})
    if kind == "find_pair_above":
        return oracles.check_pair_above(*args, answer)
    if kind == "prime_count_pi":
        return oracles.check_prime_count(*args, answer)
    if kind == "bound_report":
        return oracles.check_bound_report(*args, answer)
    return oracles.check_point(kind, args, answer)


def check_run(ops: list[dict], run: dict) -> tuple[int, int, list[dict]]:
    """(attempted, failed, failure list) of one worker run."""
    failures = []
    failing = set()
    for i, (op, answer) in enumerate(zip(ops, run["answers"])):
        cause = failure_cause(op, answer)
        if cause is not None:
            known = bool(op.get("known_defect")) and cause.startswith(op["known_cause"])
            failing.add(i)
            failures.append({"op": i, "kind": op["kind"], "args": _short(op["args"]),
                             "cause": cause, "known_defect": op.get("known_defect") if known else None})
    passes = len(run["passes"]) + 1  # the warm-up pass is attempted too
    failed = len(failing) * passes
    for n, differs in enumerate(run["differs"], start=2):
        for i in set(differs) - failing:
            failed += 1
            failures.append({"op": i, "kind": ops[i]["kind"], "args": _short(ops[i]["args"]),
                             "cause": f"pass {n} answer differs from pass 1", "known_defect": None})
    attempted = len(ops) * passes
    return attempted, failed, failures


def _short(args) -> str:
    text = json.dumps(args)
    return text if len(text) <= 120 else text[:117] + "..."


# ---------------------------------------------------------------------------
# metrics

def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scaled_passes(run: dict) -> list[list[float]]:
    """Latencies rescaled to the reference speed of the host.

    Each latency is multiplied by REF_NOMINAL_S over the host-speed probe
    taken around it.  A missed deadline keeps its wall time: a timer,
    not the interpreter, set it.
    """
    missed = {i for i, a in enumerate(run["answers"]) if isinstance(a, dict) and a.get("deadline")}
    return [[x if i in missed else x * REF_NOMINAL_S / probe
             for i, (x, probe) in enumerate(zip(lat, probes))]
            for lat, probes in zip(run["passes"], run["probes"])]


def end_to_end(run: dict, setup: list[float], workload: dict) -> tuple[dict, dict]:
    """(end-to-end metrics, extra figures for the record)."""
    metrics, extra = _latency_metrics(run["passes"], workload)
    if workload["calibrate"]:
        extra["raw"] = metrics
        metrics, extra_scaled = _latency_metrics(scaled_passes(run), workload)
        extra.update(extra_scaled)
    extra["probe_median_s"] = statistics.median(x for p in run["probes"] for x in p)
    metrics = {"setup_s": statistics.median(setup), **metrics,
               "peak_rss_mb": run["rss_kb"] / 1024}
    extra["setup_samples_s"] = setup
    return metrics, extra


def _latency_metrics(passes: list[list[float]], workload: dict) -> tuple[dict, dict]:
    walls = [sum(p) for p in passes]
    latencies = [x for p in passes for x in p]
    # The host's speed drifts over seconds, so the mean over every timed
    # pass is steadier than the median of a handful of passes.
    wall_s = statistics.fmean(walls)
    tail = percentile(latencies, workload["tail_pct"])
    metrics = {
        "wall_s": wall_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(latencies) / sum(walls),
    }
    extra = {
        "op_tail_pct": workload["tail_pct"],
        "op_tail_samples_beyond": sum(1 for x in latencies if x > tail),
        "op_samples": len(latencies),
        "passes": len(walls),
        "pass_walls_s": walls,
    }
    if workload["ints_per_pass"]:
        extra["ints_per_s"] = workload["ints_per_pass"] / wall_s
    return metrics, extra


def per_layer(base: dict, traced: dict, ops: list[dict]) -> dict:
    layers = dict(traced["layers"])
    passes = len(traced["passes"])
    for sub in CLI_SUBCOMMANDS:
        layers[f"cli.{sub}.s"] = sum(
            p[i] for p in traced["passes"] for i, op in enumerate(ops)
            if op["kind"] == "cli" and op["args"][0] == sub) / passes
    for name in CHECKS:
        layers[f"checks.{name}.s"] = traced["checks"].get(f"checks.{name}.s", 0.0)
    traced_wall = statistics.fmean(sum(p) for p in traced["passes"])
    layers["bench.traced_wall_s"] = traced_wall
    layers["bench.trace_overhead_s"] = traced_wall - statistics.fmean(
        sum(p) for p in base["passes"])
    return layers


# ---------------------------------------------------------------------------
# run record

def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    info["caches"] = caches
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "polignac" / "__init__.py").is_file():
        print(f"error: no polignac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.size, OUT.name)
    ops = workload["ops"]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    inputs = OUT / f"{tag}.inputs.json"
    inputs.write_text(json.dumps(workload))

    try:
        setup = [probe(deadline) for _ in range(SETUP_PROBES)]
        if args.trace:
            runs = [run_worker(inputs, tag + "-base", args.seconds / 2, 0, deadline),
                    run_worker(inputs, tag, args.seconds / 2, 1, deadline)]
        else:
            runs = [run_worker(inputs, tag, args.seconds, 0, deadline)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setup += [run["setup_s"] for run in runs]

    attempted = failed = 0
    failures = []
    for run in runs:
        a, f, fl = check_run(ops, run)
        attempted, failed = attempted + a, failed + f
        failures += fl
    correct = all(f["known_defect"] for f in failures)

    metrics, extra = end_to_end(runs[0], setup, workload)
    extra["ops_failed_frac"] = failed / attempted
    if args.trace:
        values = per_layer(runs[0], runs[1], ops)
        units = per_layer_units()
    else:
        values, units = metrics, END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "params": workload["params"],
        "ops_per_pass": len(ops), "machine": machine(), "git_commit": git_commit(),
        "end_to_end": metrics, "extra": extra,
        "per_layer": values if args.trace else None,
        "derived_metrics": runs[-1].get("derived", []),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": _dedupe(failures),
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))

    for name, value in values.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    for name in ("ints_per_s", "ops_failed_frac", "op_tail_pct", "op_tail_samples_beyond"):
        if name in extra:
            print(f"{name:44s} {extra[name]:14.6g}")
    for f in record["failures"]:
        tag_ = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"failed [{tag_}] op {f['op']} {f['kind']} {f['args']}: {f['cause']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def _dedupe(failures: list[dict]) -> list[dict]:
    """One entry per (op, cause): traced and untraced workers repeat them."""
    seen, out = set(), []
    for f in failures:
        key = (f["op"], f["cause"])
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


if __name__ == "__main__":
    sys.exit(main())
