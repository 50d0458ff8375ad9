"""Command-line front end.

Subcommands: gen, census, lineage, verify, subset-gaps, table1, bounds,
ratios, find-pair, export; ``export census`` is ``census`` with csv as
its default format.  ``verify`` runs every check of ``checks.ALL_CHECKS``
up to ``--max-level``; ``verify --all`` is accepted and ignored.  Both
stay while perfbench's cli workload runs them.

Every subcommand returns an ``Output``: its rendering in the chosen
format, as an iterable of text chunks, and its exit code; ``main``
writes the chunks to stdout or ``--out`` as they come.  Most subcommands
build a JSON payload, a text rendering and, where ``--format csv`` is
offered (gen and census), a csv rendering, and ``_render`` picks one.
So ``find-pair --format json`` with no hit prints
``{"gap": g, "pair": null}``, and ``census -g G --format csv`` prints
the census header and the one row ``K,<scope>,G,<count>``, count 0 when
the gap is absent.  ``gen`` and ``lineage`` stream instead: gen one
chunk per sieve segment in every format, so its memory does not grow
with its output, and lineage's json one chunk per leaf of its tree, so
only the tree is held, not its text.  Both json outputs
go through one writer, ``_json_stream``: the bytes ``json.dumps`` would
give for the whole document, its frame cut from ``json.dumps`` itself.

Exit codes: 0 success, 1 usage or range error, 2 an empirical
verification that failed.  A refusal prints nothing on stdout; a value
out of range, ``lineage`` with no root pair included, prints
``error: <message>`` on stderr.
The one global flag, ``--budget N``, sets the sieve budget
(``arith.SIEVE_BUDGET`` by default; a budget below 1 is refused): the
most integers one sieve pass of gen, census, lineage, bounds or
find-pair may cover, and the prefix of its range that ``lineage`` or
``find-pair`` searches for a pair.  It is the only setting: nothing is
read from the environment, and the lineage cap, the most leaves a
``lineage`` tree may hold, is the constant ``census.LINEAGE_CAP``; a
larger tree is refused from its closed-form count before anything is
struck.  Exact quantities appear in JSON output as
decimal strings, never floats.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterable, Iterator, NamedTuple

from . import census as census_mod
from . import checks as checks_mod
from . import primepairs
from . import wheel
from .arith import SIEVE_BUDGET

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


class Output(NamedTuple):
    """What a subcommand produced, in the chosen format: its text as an
    iterable of chunks, which ``main`` writes as they come, and its exit
    code."""

    chunks: Iterable[str]
    code: int = EXIT_OK


def _render(
    args, payload: object, text: str, csv: str | None = None, code: int = EXIT_OK
) -> Output:
    """The Output of a subcommand that builds its whole result: the JSON
    payload, the text rendering, or the csv rendering where csv is
    offered, as args.format asks."""
    if args.format == "json":
        return Output([json.dumps(payload, sort_keys=True, indent=2) + "\n"], code)
    return Output([csv if args.format == "csv" else text], code)


def _parse_range(spec: str | None) -> tuple[int | None, int | None]:
    if spec is None:
        return None, None
    lo, _, hi = spec.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--range must be LO:HI, two integers, got {spec!r}") from None


def _cmd_gen(args) -> Output:
    """One chunk per segment of the range, in every format, json through
    _json_stream, so only one segment's values are held at a time.  The
    first segment, if the range has one, is drawn here, before main
    writes anything or opens --out, so a refusal comes first."""
    lo, hi = _parse_range(args.range)
    segments = wheel.prospective_segments(args.level, lo, hi, args.budget)
    segments = itertools.chain(list(itertools.islice(segments, 1)), segments)
    if args.format == "json":
        values = ([f'"{start + o}"' for o in offsets.tolist()] for start, offsets in segments)
        return Output(_json_stream({"level": args.level}, "values", values))
    lines = (
        "".join(f"{start + offset}\n" for offset in offsets.tolist())
        for start, offsets in segments
    )
    return Output(itertools.chain(["value\n"] if args.format == "csv" else [], lines))


def _json_stream(payload: dict, key: str, chunks: Iterable[list[str]]) -> Iterator[str]:
    """The bytes of json.dumps({**payload, key: [...]}, sort_keys=True,
    indent=2) and a newline, the list's items arriving as JSON text
    indented to their depth, one chunk of them at a time.  The text
    around the list is json.dumps's own, cut at the list."""
    marker = f"{json.dumps(key)}: ["
    head, _, tail = json.dumps({**payload, key: []}, sort_keys=True, indent=2).partition(marker)
    yield head + marker
    sep = "\n    "
    for chunk in chunks:
        if chunk:
            yield sep + ",\n    ".join(chunk)
            sep = ",\n    "
        del chunk  # not held while the next chunk is built
    yield ("" if sep == "\n    " else "\n  ") + tail + "\n"


def _cmd_census(args) -> Output:
    lo, hi = _parse_range(args.range)
    if args.gap is not None:
        census_mod.require_gap(args.gap)
    c = census_mod.gap_census(
        args.level, subset=args.subset, lo=lo, hi=hi, budget=args.budget
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
    return _render(args, payload, text, csv)


def _cmd_lineage(args) -> Output:
    """Text prints one summary line; json streams the tree, one chunk
    per leaf, so the dicts of one leaf are held at a time."""
    root = census_mod.find_root_pair(args.root_level, args.gap, args.budget)
    if root is None:
        raise ValueError(f"no gap-{args.gap} pair at level {args.root_level}")
    lineage = census_mod.derive_pairs(root, args.root_level, args.level)
    predicted = census_mod.predicted_derived_count(args.root_level, args.level, args.gap)
    if args.format == "text":
        return Output([f"root {root} level {args.root_level} -> {args.level}: "
                       f"{len(lineage.leaves)} derived pairs (predicted {predicted})\n"])
    payload = {
        "root": root,
        "root_level": args.root_level,
        "target_level": args.level,
        "gap": args.gap,
        "predicted": str(predicted),
    }
    leaves = ([_leaf_json(lineage, leaf)] for leaf in lineage.leaves)
    return Output(_json_stream(payload, "leaves", leaves))


# json.dumps would build an encoder per leaf: the leaves share one, and
# a leaf's dict of ints and tuples holds no cycle to check for.
_LEAF_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, check_circular=False)


def _leaf_json(lineage: census_mod.PairLineage, leaf: census_mod.LineageLeaf) -> str:
    """One leaf of lineage, with its steps, as JSON, indented as an item
    of the document's list."""
    steps = [{"level": s.level, "m": s.chosen_m, "disallowed": s.disallowed}
             for s in lineage.steps(leaf)]
    text = _LEAF_ENCODER.encode({"pair": leaf.pair, "steps": steps})
    return text.replace("\n", "\n    ")


def _cmd_verify(args) -> Output:
    results = list(checks_mod.run_all(max_level=args.max_level))
    text = "".join(
        f"{'pass' if r.ok else 'FAIL'}  {r.name}"
        + (f"  ({r.detail})" if r.detail else "")
        + "\n"
        for r in results
    )
    code = EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED
    return _render(args, None, text, code=code)


def _cmd_subset_gaps(args) -> Output:
    gaps = [str(g) for g in census_mod.subset_gap_spectrum(args.level)]
    return _render(args, {"level": args.level, "gaps": gaps}, " ".join(gaps) + "\n")


def _cmd_table1(args) -> Output:
    table = census_mod.table1()
    return _render(args, table.to_json_dict(), table.render_text() + "\n")


def _cmd_bounds(args) -> Output:
    report = primepairs.bound_report(args.root_level, args.l, args.gap, budget=args.budget)
    text = (
        f"r={report.r} l={report.l} g={report.g} k={report.k} "
        f"window=({report.window[0]}, {report.window[1]})\n"
        f"bound {float(report.bound):.3f}  observed {report.observed}  "
        f"holds {report.holds}\n"
    )
    code = EXIT_OK if report.holds else EXIT_VERIFY_FAILED
    return _render(args, report.to_json_dict(), text, code=code)


def _cmd_ratios(args) -> Output:
    value = primepairs.growth_ratio(args.l)
    return _render(args, {"l": args.l, "ratio": round(value, 3)}, f"{value:.1f}\n")


def _cmd_find_pair(args) -> Output:
    pair = primepairs.find_pair_above(
        args.gap, args.above, args.limit, budget=args.budget
    )
    if pair is None:
        return _render(args, {"gap": args.gap, "pair": None}, "not-found\n")
    return _render(
        args,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polignac",
        description="Primorial-wheel prospective primes and prime-pair bounds",
    )
    parser.add_argument(
        "--budget", type=int, default=SIEVE_BUDGET, help="most integers one sieve pass may cover"
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
    p.add_argument("-r", "--root-level", type=int, required=True)
    p.add_argument("-l", "--l", type=int, required=True)
    p.add_argument("-g", "--gap", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("ratios", help="level-to-level bound growth factor")
    p.add_argument("-l", "--l", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("find-pair", help="least prime pair with a gap above M")
    p.add_argument("-g", "--gap", type=int, required=True)
    p.add_argument("-M", "--above", type=int, default=0)
    p.add_argument("--limit", type=int, default=10**6)
    _add_output(p)
    p.set_defaults(func=_cmd_find_pair)

    export = sub.add_parser("export", help="write a census to a file").add_subparsers(
        dest="what", required=True
    )
    _add_census(export.add_parser("census", help="census, csv by default"), "csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.budget < 1:
            raise ValueError(f"--budget must be a positive integer, got {args.budget}")
        result = args.func(args)
        if args.out:
            with open(args.out, "w") as handle:
                handle.writelines(result.chunks)
        else:
            sys.stdout.writelines(result.chunks)
        return result.code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
