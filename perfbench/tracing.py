"""Spans around polignac's public functions, installed from outside.

`install` rebinds each traced function on every polignac module object
that holds it, so names imported across modules (for example
`census.enumerate_prospective` or `primepairs.sieve_primes`) are traced
too.  No file under src/ changes.  Spans stay in memory as
[name, start, end, parent, op, info] and are written when the run ends.

Generators return before doing any work, so their span is empty.  Their
time is derived instead: every distinct call is drained once more,
after the traced passes, by a C-level consumer (`collections.deque`),
and that time stands in for the generator's span when self time is
computed.  Metrics built this way are listed as derived.
"""

from __future__ import annotations

import collections
import functools
import sys
from time import perf_counter

# (module, function, counter) for every traced public function.
# A counter maps (args, kwargs, result) to the work count kept in info.
TARGETS = (
    ("arith", "sieve_primes", lambda a, kw, r: {"ints": a[0] + 1 if a[0] >= 0 else 0}),
    ("arith", "prime_count_pi", lambda a, kw, r: {"ints": a[0]}),
    ("arith", "is_prime", None),
    ("wheel", "enumerate_prospective", "generator"),
    ("wheel", "mhat", None),
    ("wheel", "is_prospective", None),
    ("codec", "encode", None),
    ("codec", "decode", None),
    ("census", "gap_census", lambda a, kw, r: {"pairs": sum(r.entries.values())}),
    ("census", "derive_pairs", lambda a, kw, r: {"leaves": len(r.leaves)}),
    ("census", "classify_propagation", lambda a, kw, r: {"leaves": len(r.roles)}),
    ("primepairs", "find_pair_above", None),
    ("primepairs", "bound_report", None),
    ("primepairs", "actual_pair_count", None),
)

# Per-layer metric stats, by span name.  "s" is inclusive time, "self_s"
# inclusive time minus the time of direct child spans.
STATS = {
    "wheel.enumerate_prospective": ("calls", "s", "values", "ints"),
    "census.gap_census": ("calls", "s", "self_s", "pairs"),
    "arith.sieve_primes": ("calls", "s", "ints"),
    "arith.prime_count_pi": ("s", "ints"),
    "primepairs.find_pair_above": ("s", "self_s"),
    "primepairs.bound_report": ("s", "self_s"),
    "primepairs.actual_pair_count": ("s", "self_s"),
    "arith.is_prime": ("calls", "s", "deadline_exceeded"),
    "wheel.mhat": ("calls", "s"),
    "wheel.is_prospective": ("calls", "s"),
    "codec.encode": ("calls", "s"),
    "codec.decode": ("calls", "s"),
    "census.derive_pairs": ("s", "leaves"),
    "census.classify_propagation": ("s", "leaves"),
}
DERIVED = (
    "wheel.enumerate_prospective.s",
    "wheel.enumerate_prospective.values",
    "census.gap_census.self_s",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.generators: dict[str, tuple] = {}  # replay key -> (fn, args, kwargs)

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self.stack

        if counter == "generator":
            generators = self.generators

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                key = repr((args, sorted(kwargs.items())))
                generators.setdefault(key, (fn, args, kwargs))
                now = perf_counter()
                spans.append([name, now, now, stack[-1] if stack else -1, self.op, {"replay": key}])
                return fn(*args, **kwargs)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            ok = False
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec[2] = perf_counter()
                if stack:
                    stack.pop()
                if not ok:
                    rec[5] = {"error": type(sys.exc_info()[1]).__name__}
                elif counter is not None:
                    rec[5] = counter(args, kwargs, result)

        return wrapper

    def replay(self, window_ints) -> dict[str, tuple[float, int, int]]:
        """Drain every distinct generator call once.

        Returns key -> (seconds, values, ints), where
        `window_ints(fn, args, kwargs)` gives the integers the call covers.
        """
        out = {}
        for key, (fn, args, kwargs) in self.generators.items():
            start = perf_counter()
            last = collections.deque(enumerate(fn(*args, **kwargs), 1), maxlen=1)
            seconds = perf_counter() - start
            out[key] = (seconds, last[0][0] if last else 0, window_ints(fn, args, kwargs))
        return out


def install(tracer: Tracer, package) -> None:
    """Rebind each target on every loaded polignac module that holds it."""
    modules = [package] + [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith(package.__name__ + ".")
    ]
    for modname, fname, counter in TARGETS:
        original = getattr(getattr(package, modname), fname)
        wrapper = tracer.wrap(f"{modname}.{fname}", original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def layer_metrics(spans, derived, passes: int) -> dict[str, float]:
    """Every STATS metric, summed over `spans` and divided by `passes`.

    `derived` is Tracer.replay's output; a generator span's time is its
    drained time.  Self time is clamped at zero.
    """
    effective = []
    for rec in spans:
        info = rec[5] or {}
        if "replay" in info:
            effective.append(derived[info["replay"]][0])
        else:
            effective.append(max(rec[2] - rec[1], 0.0))
    child = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += effective[i]
    totals: collections.Counter = collections.Counter()
    for i, rec in enumerate(spans):
        name, info = rec[0], rec[5] or {}
        totals[name + ".calls"] += 1
        totals[name + ".s"] += effective[i]
        totals[name + ".self_s"] += max(effective[i] - child[i], 0.0)
        for key in ("ints", "pairs", "leaves"):
            totals[f"{name}.{key}"] += info.get(key, 0)
        if "replay" in info:
            _, values, ints = derived[info["replay"]]
            totals[name + ".values"] += values
            totals[name + ".ints"] += ints
        if info.get("error") == "DeadlineExceeded":
            totals[name + ".deadline_exceeded"] += 1
    return {
        f"{name}.{stat}": totals[f"{name}.{stat}"] / passes
        for name, stats in STATS.items()
        for stat in stats
    }
