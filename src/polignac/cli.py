"""Command-line front end.

Subcommands: gen, census, lineage, verify, subset-gaps, table1, bounds,
ratios, find-pair, export; ``export census`` and ``export bounds`` are
``census`` and ``bounds`` with csv and json as their default formats.

Every subcommand returns an ``Output``: its JSON payload, its text
rendering, its csv rendering where ``--format csv`` is offered (gen and
census), and its exit code.  ``main`` renders the chosen format once and
writes it to stdout or ``--out``.  So ``find-pair --format json`` with no
hit prints ``{"gap": g, "pair": null}``, and ``census -g G --format csv``
prints the census header and the one row ``K,<scope>,G,<count>``, count
0 when the gap is absent.

Exit codes: 0 success, 1 usage or range error, 2 an empirical
verification that failed.  A refusal prints nothing on stdout; a value
out of range, ``lineage`` with no root pair included, prints
``error: <message>`` on stderr.
The one global flag, ``--budget N``, sets the sieve budget: the most
integers one sieve pass of gen, census, lineage, bounds or find-pair may
cover.
The environment variable POLIGNAC_CONFIG may point at a JSON
run-config file with the keys ``lineage_cap`` and ``sieve_budget``;
the flag wins over it.  Exact quantities appear in JSON output as
decimal strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

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


class Output(NamedTuple):
    """What a subcommand produced, before it is rendered: the JSON
    payload, the text rendering, the csv rendering where csv is offered,
    and the exit code."""

    payload: object
    text: str
    csv: str | None = None
    code: int = EXIT_OK


def _parse_range(spec: str | None) -> tuple[int | None, int | None]:
    if spec is None:
        return None, None
    lo, _, hi = spec.partition(":")
    return int(lo), int(hi)


def parse_census_csv(text: str) -> census_mod.GapCensus:
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != "level,scope,gap,count":
        raise ValueError("not a census CSV")
    entries: dict[int, int] = {}
    level, scope = 0, "full"
    for line in lines[1:]:
        lvl, scope, gap, count = line.split(",")  # ValueError unless 4 fields
        level = int(lvl)
        entries[int(gap)] = int(count)
    return census_mod.GapCensus(level=level, scope=scope, entries=entries)


def _cmd_gen(args, config: RunConfig) -> Output:
    lo, hi = _parse_range(args.range)
    values = [
        str(v) for v in wheel.enumerate_prospective(args.level, lo, hi, config.sieve_budget)
    ]
    text = "".join(f"{v}\n" for v in values)
    return Output({"level": args.level, "values": values}, text, "value\n" + text)


def _cmd_census(args, config: RunConfig) -> Output:
    lo, hi = _parse_range(args.range)
    c = census_mod.gap_census(
        args.level, subset=args.subset, lo=lo, hi=hi, budget=config.sieve_budget
    )
    if args.gap is None:
        entries = sorted(c.entries.items())
        payload = c.to_json_dict()
        text = f"level {c.level}  scope {c.scope}\n" + "".join(
            f"  gap {g:>4}  count {n}\n" for g, n in entries
        )
    else:
        count = c.entries.get(args.gap, 0)
        entries = [(args.gap, count)]
        payload = {"level": args.level, "gap": args.gap, "count": str(count)}
        text = f"level {args.level}  gap {args.gap}  count {count}\n"
    csv = "level,scope,gap,count\n" + "".join(
        f"{c.level},{c.scope},{g},{n}\n" for g, n in entries
    )
    return Output(payload, text, csv)


def _cmd_lineage(args, config: RunConfig) -> Output:
    root = census_mod.find_root_pair(args.root_level, args.gap, config.sieve_budget)
    if root is None:
        raise ValueError(f"no gap-{args.gap} pair at level {args.root_level}")
    lineage = census_mod.derive_pairs(
        root, args.root_level, args.level, lineage_cap=config.lineage_cap
    )
    predicted = census_mod.predicted_derived_count(
        args.root_level, args.level, args.gap
    )
    return Output(
        {**lineage.to_json_dict(), "predicted": str(predicted)},
        f"root {root} level {args.root_level} -> {args.level}: "
        f"{len(lineage.leaves)} derived pairs (predicted {predicted})\n",
    )


def _cmd_verify(args, config: RunConfig) -> Output:
    results = list(checks_mod.run_all(max_level=args.max_level))
    text = "".join(
        f"{'pass' if r.ok else 'FAIL'}  {r.name}"
        + (f"  ({r.detail})" if r.detail else "")
        + "\n"
        for r in results
    )
    code = EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED
    return Output(None, text, code=code)


def _cmd_subset_gaps(args, config: RunConfig) -> Output:
    gaps = [str(g) for g in census_mod.subset_gap_spectrum(args.level)]
    return Output({"level": args.level, "gaps": gaps}, " ".join(gaps) + "\n")


def _cmd_table1(args, config: RunConfig) -> Output:
    table = census_mod.table1()
    return Output(table.to_json_dict(), table.render_text() + "\n")


def _cmd_bounds(args, config: RunConfig) -> Output:
    report = primepairs.bound_report(
        args.root_level, args.from_level, args.gap, budget=config.sieve_budget
    )
    text = (
        f"r={report.r} l={report.l} g={report.g} k={report.k} "
        f"window=({report.window[0]}, {report.window[1]})\n"
        f"bound {float(report.bound):.3f}  observed {report.observed}  "
        f"holds {report.holds}\n"
    )
    code = EXIT_OK if report.holds else EXIT_VERIFY_FAILED
    return Output(report.to_json_dict(), text, code=code)


def _cmd_ratios(args, config: RunConfig) -> Output:
    value = primepairs.growth_ratio(args.from_level)
    return Output({"l": args.from_level, "ratio": round(value, 3)}, f"{value:.1f}\n")


def _cmd_find_pair(args, config: RunConfig) -> Output:
    pair = primepairs.find_pair_above(
        args.gap, args.above, args.limit, budget=config.sieve_budget
    )
    if pair is None:
        return Output({"gap": args.gap, "pair": None}, "not-found\n")
    return Output(
        {"gap": args.gap, "pair": [str(pair[0]), str(pair[1])]},
        f"({pair[0]}, {pair[1]})\n",
    )


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
    parser.add_argument(
        "--budget", type=int, default=None, help="most integers one sieve pass may cover"
    )
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
    p.set_defaults(func=_cmd_verify, format="text", out=None)

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
        if args.budget is not None:
            config.sieve_budget = args.budget
        result = args.func(args, config)
        if args.format == "json":
            rendered = json.dumps(result.payload, sort_keys=True, indent=2) + "\n"
        else:
            rendered = result.csv if args.format == "csv" else result.text
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)
        return result.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
