"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload with --size tiny, untraced and traced, and checks
that each run exits 0, ends with the result line the benchmark promises,
reports exactly the metrics BENCHMARK.json names with their units, and
finds no failure outside the known defects.  Then it copies only
BENCHMARK.json and perfbench/ into an empty directory and checks that
the benchmark refuses to run there.  Not collected by pytest, so the
tier-1 suite does not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            done = run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
            assert done.returncode == 0, (name, trace, done.stderr[-2000:])
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (name, trace, done.stdout[-3000:])
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == wanted[trace], (name, trace, set(units) ^ set(wanted[trace]))
            print(f"ok  {name:14s} trace {trace}  attempted {result['attempted']}"
                  f"  failed {result['failed']}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  refuses to run without src/polignac")
    return 0


if __name__ == "__main__":
    sys.exit(main())
