"""Command-line front end.

Subcommands: gen, census, lineage, verify, subset-gaps, table1, bounds,
ratios, find-pair, export; ``export census`` and ``export bounds`` are
``census`` and ``bounds`` with csv and json as their default formats.
Exit codes: 0 success, 1 usage or range
error, 2 an empirical verification that failed.  The environment
variable POLIGNAC_CONFIG may point at a JSON run-config file; explicit
flags win over it.  Exact quantities appear in JSON output as decimal
strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from . import census as census_mod
from . import checks as checks_mod
from . import primepairs
from . import wheel
from .arith import SIEVE_BUDGET

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


@dataclass
class RunConfig:
    enumerable_cap: int = wheel.ENUMERABLE_CAP
    lineage_cap: int = census_mod.LINEAGE_CAP
    sieve_budget: int = SIEVE_BUDGET

    @classmethod
    def from_environment(cls) -> "RunConfig":
        config = cls()
        path = os.environ.get("POLIGNAC_CONFIG")
        if not path:
            return config
        with open(path) as handle:
            settings = json.load(handle)
        if not isinstance(settings, dict):
            raise ValueError(f"{path}: expected a JSON object")
        known = {f.name for f in fields(cls)}
        for key, value in settings.items():
            if key not in known:
                raise ValueError(f"{path}: unknown setting {key!r}")
            # bool is an int subclass; true must not pass as 1
            if type(value) is not int or value < 1:
                raise ValueError(f"{path}: {key} must be a positive integer, got {value!r}")
            setattr(config, key, value)
        return config


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(spec: str | None) -> tuple[int | None, int | None]:
    if spec is None:
        return None, None
    lo, _, hi = spec.partition(":")
    return int(lo), int(hi)


def _census_text(c: census_mod.GapCensus) -> str:
    lines = [f"level {c.level}  scope {c.scope}"]
    lines += [f"  gap {g:>4}  count {n}" for g, n in sorted(c.entries.items())]
    return "\n".join(lines) + "\n"


def _census_csv(c: census_mod.GapCensus) -> str:
    rows = ["level,scope,gap,count"]
    rows += [f"{lvl},{scope},{g},{n}" for lvl, scope, g, n in c.to_csv_rows()]
    return "\n".join(rows) + "\n"


def render_census(c: census_mod.GapCensus, fmt: str) -> str:
    if fmt == "json":
        return _canonical_json(c.to_json_dict())
    if fmt == "csv":
        return _census_csv(c)
    return _census_text(c)


def parse_census_csv(text: str) -> census_mod.GapCensus:
    lines = [line for line in text.splitlines() if line]
    if lines[0] != "level,scope,gap,count":
        raise ValueError("not a census CSV")
    entries: dict[int, int] = {}
    level, scope = 0, "full"
    for line in lines[1:]:
        lvl, scope, gap, count = line.split(",")
        level = int(lvl)
        entries[int(gap)] = int(count)
    return census_mod.GapCensus(level=level, scope=scope, entries=entries)


def _cmd_gen(args, config: RunConfig) -> int:
    lo, hi = _parse_range(args.range)
    values = list(
        wheel.enumerate_prospective(args.level, lo, hi, cap=config.enumerable_cap)
    )
    if args.format == "json":
        text = _canonical_json(
            {"level": args.level, "values": [str(v) for v in values]}
        )
    elif args.format == "csv":
        text = "value\n" + "\n".join(str(v) for v in values) + "\n"
    else:
        text = "\n".join(str(v) for v in values) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_census(args, config: RunConfig) -> int:
    lo, hi = _parse_range(args.range)
    result = census_mod.gap_census(
        args.level, subset=args.subset, lo=lo, hi=hi, cap=config.enumerable_cap
    )
    if args.gap is not None:
        count = result.entries.get(args.gap, 0)
        if args.format == "json":
            text = _canonical_json(
                {"level": args.level, "gap": args.gap, "count": str(count)}
            )
        else:
            text = f"level {args.level}  gap {args.gap}  count {count}\n"
        _emit(text, args.out)
        return EXIT_OK
    _emit(render_census(result, args.format), args.out)
    return EXIT_OK


def _cmd_lineage(args, config: RunConfig) -> int:
    root = census_mod.find_root_pair(args.root_level, args.gap)
    if root is None:
        print(
            f"no gap-{args.gap} pair at level {args.root_level}", file=sys.stderr
        )
        return EXIT_USAGE
    lineage = census_mod.derive_pairs(
        root, args.root_level, args.level, lineage_cap=config.lineage_cap
    )
    predicted = census_mod.predicted_derived_count(
        args.root_level, args.level, args.gap
    )
    if args.format == "json":
        payload = lineage.to_json_dict()
        payload["predicted"] = str(predicted)
        text = _canonical_json(payload)
    else:
        text = (
            f"root {root} level {args.root_level} -> {args.level}: "
            f"{len(lineage.leaves)} derived pairs (predicted {predicted})\n"
        )
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args, config: RunConfig) -> int:
    failed = False
    for result in checks_mod.run_all(max_level=args.max_level):
        status = "pass" if result.ok else "FAIL"
        line = f"{status}  {result.name}"
        if result.detail:
            line += f"  ({result.detail})"
        print(line)
        failed = failed or not result.ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_subset_gaps(args, config: RunConfig) -> int:
    spectrum = census_mod.subset_gap_spectrum(args.level, cap=config.enumerable_cap)
    if args.format == "json":
        text = _canonical_json(
            {"level": args.level, "gaps": [str(g) for g in spectrum]}
        )
    else:
        text = " ".join(str(g) for g in spectrum) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_table1(args, config: RunConfig) -> int:
    table = census_mod.table1()
    if args.format == "json":
        text = _canonical_json(table.to_json_dict())
    else:
        text = table.render_text() + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_bounds(args, config: RunConfig) -> int:
    report = primepairs.bound_report(
        args.root_level, args.from_level, args.gap, budget=config.sieve_budget
    )
    if args.format == "json":
        text = _canonical_json(report.to_json_dict())
    else:
        text = (
            f"r={report.r} l={report.l} g={report.g} k={report.k} "
            f"window=({report.window[0]}, {report.window[1]})\n"
            f"bound {float(report.bound):.3f}  observed {report.observed}  "
            f"holds {report.holds}\n"
        )
    _emit(text, args.out)
    return EXIT_VERIFY_FAILED if not report.holds else EXIT_OK


def _cmd_ratios(args, config: RunConfig) -> int:
    value = primepairs.growth_ratio(args.from_level)
    if args.format == "json":
        text = _canonical_json({"l": args.from_level, "ratio": round(value, 3)})
    else:
        text = f"{value:.1f}\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_find_pair(args, config: RunConfig) -> int:
    pair = primepairs.find_pair_above(
        args.gap, args.above, args.limit, budget=config.sieve_budget
    )
    if pair is None:
        _emit("not-found\n", args.out)
        return EXIT_OK
    if args.format == "json":
        text = _canonical_json(
            {"gap": args.gap, "pair": [str(pair[0]), str(pair[1])]}
        )
    else:
        text = f"({pair[0]}, {pair[1]})\n"
    _emit(text, args.out)
    return EXIT_OK


def _add_output(
    parser: argparse.ArgumentParser,
    formats: tuple[str, ...] = ("json", "text"),
    default: str = "text",
) -> None:
    parser.add_argument("--format", choices=formats, default=default)
    parser.add_argument("--out", default=None)


def _add_census(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("-k", "--level", type=int, required=True)
    parser.add_argument("-g", "--gap", type=int, default=None)
    parser.add_argument("-m", "--subset", type=int, default=None)
    parser.add_argument("--range", default=None, metavar="LO:HI")
    _add_output(parser, ("json", "csv", "text"), default_format)
    parser.set_defaults(func=_cmd_census)


def _add_bounds(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("-r", "--root-level", type=int, required=True)
    parser.add_argument("-l", "--from-level", "--l", type=int, required=True)
    parser.add_argument("-g", "--gap", type=int, required=True)
    _add_output(parser, default=default_format)
    parser.set_defaults(func=_cmd_bounds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polignac",
        description="Primorial-wheel prospective primes and prime-pair bounds",
    )
    parser.add_argument("--cap", type=int, default=None, help="enumerable level cap")
    parser.add_argument("--budget", type=int, default=None, help="sieve budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="enumerate prospective primes")
    p.add_argument("-k", "--level", type=int, required=True)
    p.add_argument("--range", default=None, metavar="LO:HI")
    _add_output(p, ("json", "csv", "text"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("census", help="gap census of a window, subset, or range")
    _add_census(p, "text")

    p = sub.add_parser("lineage", help="derive a pair lineage between levels")
    p.add_argument("-r", "--root-level", type=int, required=True)
    p.add_argument("-k", "--level", type=int, required=True)
    p.add_argument("-g", "--gap", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_lineage)

    p = sub.add_parser("verify", help="run the bounded verification sweep")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-level", type=int, default=6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("subset-gaps", help="subset boundary-gap spectrum")
    p.add_argument("-k", "--level", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_subset_gaps)

    p = sub.add_parser("table1", help="worked 113/121/127 propagation table")
    _add_output(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("bounds", help="prime-pair lower bound vs observed count")
    _add_bounds(p, "text")

    p = sub.add_parser("ratios", help="level-to-level bound growth factor")
    p.add_argument("-l", "--from-level", "--l", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("find-pair", help="least prime pair with a gap above M")
    p.add_argument("-g", "--gap", type=int, required=True)
    p.add_argument("-M", "--above", type=int, default=0)
    p.add_argument("--limit", type=int, default=10**6)
    _add_output(p)
    p.set_defaults(func=_cmd_find_pair)

    export = sub.add_parser(
        "export", help="write a census or bound report to a file"
    ).add_subparsers(dest="what", required=True)
    _add_census(export.add_parser("census", help="census, csv by default"), "csv")
    _add_bounds(export.add_parser("bounds", help="bound report, json by default"), "json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = RunConfig.from_environment()
        if args.cap is not None:
            config.enumerable_cap = args.cap
        if args.budget is not None:
            config.sieve_budget = args.budget
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
