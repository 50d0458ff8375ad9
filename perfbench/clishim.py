"""`python -m polignac.cli` with spans around each verification check.

    python3 perfbench/clishim.py SPANS_DIR ARG...

Used in place of `python -m polignac.cli ARG...` by traced runs.  The
check functions are wrapped from outside: `checks.ALL_CHECKS` is
replaced by a tuple of wrappers, which `run_all` reads at call time.
Spans, if any, go to SPANS_DIR/<pid>.json when the command exits.
"""

import json
import os
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402

import polignac.checks as checks  # noqa: E402

spans_dir, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
checks.ALL_CHECKS = tuple(
    tracer.wrap("checks." + fn.__name__.removeprefix("check_"), fn)
    for fn in checks.ALL_CHECKS
)
sys.argv = ["polignac", *argv]
try:
    runpy.run_module("polignac.cli", run_name="__main__", alter_sys=True)
finally:
    if tracer.spans:
        Path(spans_dir, f"{os.getpid()}.json").write_text(json.dumps(tracer.spans))
