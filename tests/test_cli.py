import csv
import io
import json
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from polignac import arith, checks, cli
from polignac.arith import primorial
from polignac.census import (
    GapCensus,
    derive_pairs,
    find_root_pair,
    gap_census,
    predicted_derived_count,
)
from polignac.cli import main
from polignac.primepairs import BoundReport
from conftest import oracle_prospective
from test_arith import deadline


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen(capsys):
    code, out, _ = run(capsys, "gen", "--level", "3")
    assert code == 0
    assert out.split() == ["7", "11", "13", "17", "19", "23", "29", "31"]


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", ""),
        ("csv", "value\n"),
        ("json", '{\n  "level": 2,\n  "values": []\n}\n'),
    ],
)
def test_gen_empty_range(capsys, fmt, expected):
    # The level-2 window is [5, 10]: 8:10 lies in it and holds no value;
    # 6:6 holds no odd integer, so its pass has no segment at all.
    for spec in ("8:10", "6:6"):
        code, out, _ = run(capsys, "gen", "-k", "2", "--range", spec, "--format", fmt)
        assert code == 0
        assert out == expected


# gen streams one chunk per segment; its bytes are those of the whole
# output built at once.  Segments of 8 integers, 4 odd ones, cross many
# edges, and at level 6 (gaps up to 22) some of them hold no value.
@pytest.mark.parametrize("segment", [8, None])
@pytest.mark.parametrize(
    "k, spec", [(2, None), (4, None), (6, None), (6, "1000:3000"), (6, "30031:30100")]
)
def test_gen_streams_whole_output(monkeypatch, capsys, segment, k, spec):
    if segment:
        monkeypatch.setattr(arith, "SEGMENT_SIZE", segment)
    lo, hi = map(int, spec.split(":")) if spec else (None, None)
    values = [str(v) for v in oracle_prospective(k, lo, hi)]
    text = "".join(f"{v}\n" for v in values)
    expected = {
        "text": text,
        "csv": "value\n" + text,
        "json": json.dumps({"level": k, "values": values}, sort_keys=True, indent=2) + "\n",
    }
    for fmt, out in expected.items():
        argv = ["gen", "-k", str(k), "--format", fmt] + (["--range", spec] if spec else [])
        assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv, window",
    [
        (["gen", "-k", "2", "--range", "100:200"], "[5, 10]"),
        (["gen", "-k", "3", "--range", "35:40"], "[5, 34]"),
        (["census", "-k", "3", "--range", "0:3"], "[5, 34]"),
        (["census", "-k", "25", "--range", "0:4", "-g", "2"], f"[5, {4 + primorial(25)}]"),
    ],
)
def test_range_missing_window_exits_1(capsys, argv, window):
    code, out, err = run(capsys, *argv)
    level, spec = argv[2], argv[4]
    assert code == 1 and out == ""
    assert err == f"error: range {spec} misses the level-{level} window {window}\n"


@pytest.mark.parametrize("spec", ["1:5", "34:100", "5:5"])
def test_range_overlapping_window_is_clamped(capsys, spec):
    # A range that meets the window in one value is answered, not refused.
    code, out, _ = run(capsys, "census", "-k", "3", "--range", spec, "--format", "json")
    assert code == 0 and json.loads(out)["entries"] == {}


def test_census_gap_count(capsys):
    code, out, _ = run(capsys, "census", "--level", "4", "--gap", "2")
    assert code == 0
    assert "count 15" in out


def test_census_json_exact_strings(capsys):
    code, out, _ = run(capsys, "census", "--level", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == {"2": "3", "4": "3", "6": "1"}


def test_lineage(capsys):
    code, out, _ = run(
        capsys, "lineage", "-r", "2", "-k", "4", "-g", "2"
    )
    assert code == 0
    assert "15 derived pairs (predicted 15)" in out


def test_table1_text(capsys):
    code, out, _ = run(capsys, "table1", "--format", "text")
    assert code == 0
    assert "2003" in out and "[961]" in out


def test_subset_gaps(capsys):
    code, out, _ = run(capsys, "subset-gaps", "--level", "4")
    assert code == 0
    assert out.split() == ["6", "6", "8", "6", "6", "6"]


def test_bounds(capsys):
    code, out, _ = run(
        capsys, "bounds", "-r", "2", "-l", "4", "-g", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 6 and payload["holds"] is True
    assert payload["observed"] == str(int(payload["observed"]))


def test_ratios_text_is_json_ratio(capsys):
    # Text prints the ratio JSON gives, rounded to 3 places, so a small
    # ratio is not printed as 0.0: 0.049 at l = 8, 1.387 at l = 9.
    for l in range(8, 21):
        code, out, _ = run(capsys, "ratios", "--l", str(l))
        assert code == 0
        _, js, _ = run(capsys, "ratios", "--l", str(l), "--format", "json")
        assert out == f"{json.loads(js)['ratio']}\n", l
    assert run(capsys, "ratios", "--l", "8")[1] == "0.049\n"
    assert run(capsys, "ratios", "--l", "9")[1] == "1.387\n"


def test_ratios_past_budget_refused_at_once(capsys):
    # P_30000000 ~ 5.6e8 lies past the sieve budget.  nth_prime sizes its
    # one sieve by Rosser's bound, so it is refused before anything is
    # sieved, not after doubling a prime table up to the budget.
    with deadline(2.0):
        code, out, err = run(capsys, "ratios", "--l", "30000000")
    assert code == 1 and out == ""
    assert err.startswith("error: sieving ") and "exceeds the sieve budget" in err


def test_find_pair(capsys):
    code, out, _ = run(capsys, "find-pair", "-g", "2", "-M", "100")
    assert code == 0
    assert out.strip() == "(101, 103)"


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_range_error_exits_1(capsys):
    code, _, err = run(capsys, "gen", "--level", "12")
    assert code == 1
    assert "error" in err


def test_census_subset_out_of_range_exits_1(capsys):
    code, out, err = run(capsys, "census", "-k", "4", "-m", "40")
    assert code == 1
    assert out == "" and "subset 40" in err


@pytest.mark.parametrize("command", ["gen", "census"])
def test_reversed_range_exits_1(capsys, command):
    code, out, err = run(capsys, command, "-k", "4", "--range", "200:100")
    assert code == 1
    assert out == "" and "200" in err


def test_format_csv_refused_where_not_rendered(capsys):
    code, out, err = run(capsys, "lineage", "-r", "2", "-k", "4", "-g", "2", "--format", "csv")
    assert code == 1
    assert out == "" and "csv" in err


def test_export_census_without_level_exits_1(capsys):
    code, _, err = run(capsys, "export", "census")
    assert code == 1
    assert "-k" in err


@pytest.mark.parametrize(
    "flags", [[], ["-l", "5", "-g", "2"], ["-r", "2", "-g", "2"], ["-r", "2", "-l", "5"]]
)
def test_bounds_without_flags_exits_1(capsys, flags):
    code, _, err = run(capsys, "bounds", *flags)
    assert code == 1
    assert "-r" in err


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max-level", "5")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("pass") >= 10


def test_export_census_roundtrip(tmp_path, capsys):
    path = tmp_path / "census.csv"
    code, _, _ = run(
        capsys, "export", "census", "--level", "3", "--format", "csv",
        "--out", str(path),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert {int(row["gap"]): int(row["count"]) for row in rows} == gap_census(3).entries
    assert {(row["level"], row["scope"]) for row in rows} == {("3", "full")}


def test_export_empty_census_header_only(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    code, _, _ = run(
        capsys, "export", "census", "--level", "4", "--range", "114:120",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    assert path.read_text() == "level,scope,gap,count\n"


def test_bounds_json_out(tmp_path, capsys):
    path = tmp_path / "bounds.json"
    code, _, _ = run(
        capsys, "bounds", "-r", "2", "-l", "5", "-g", "2", "--format", "json",
        "--out", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert {"r", "l", "g", "k", "bound", "observed"} <= set(payload)
    assert payload["r"] == 2 and payload["l"] == 5 and payload["k"] == 15


def test_export_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run(
            capsys, "export", "census", "--level", "4", "--format", "csv",
            "--out", str(path),
        )
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", [["census", "-k", "3"], ["gen", "-k", "3"]])
def test_budget_below_1_refused(capsys, budget, argv):
    code, out, err = run(capsys, "--budget", budget, *argv)
    assert code == 1
    assert out == "" and err.startswith("error:") and "--budget" in err


def test_budget_flag_respected(capsys):
    # The level-4 window [5, 214] spans 210 integers.
    code, out, _ = run(capsys, "--budget", "210", "gen", "--level", "4")
    assert code == 0 and out.split()[:3] == ["11", "13", "17"]
    code, out, err = run(capsys, "--budget", "209", "gen", "--level", "4")
    assert code == 1
    assert out == "" and err.startswith("error:") and "sieve budget" in err


@pytest.mark.parametrize("gap", ["-2", "0", "1", "3"])
def test_census_refuses_gap_not_even_and_at_least_2(capsys, gap):
    code, out, err = run(capsys, "census", "-k", "3", "-g", gap)
    assert code == 1
    assert out == "" and err == f"error: gap must be even and >= 2, got {gap}\n"


@pytest.mark.parametrize("spec", ["7", "7:", ":9", "a:9", "7:9:11", ""])
@pytest.mark.parametrize("command", ["gen", "census"])
def test_malformed_range_names_flag_and_form(capsys, command, spec):
    code, out, err = run(capsys, command, "-k", "3", "--range", spec)
    assert code == 1
    assert out == "" and err.startswith("error: --range") and "LO:HI" in err


def test_render_census_text(capsys):
    code, text, _ = run(capsys, "census", "--level", "3", "--format", "text")
    assert code == 0
    assert "level 3" in text and "gap" in text


def test_find_pair_json_without_hit_is_json(capsys):
    argv = ["find-pair", "-g", "2", "-M", "100", "--limit", "101"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"gap": 2, "pair": None}
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "not-found\n"


@pytest.mark.parametrize(
    "flags, row",
    [
        (["-g", "2"], "4,full,2,15"),
        (["-g", "30"], "4,full,30,0"),  # absent gap: count 0
        (["-m", "1", "-g", "2"], "4,subset:1,2,2"),  # (41, 43), (59, 61)
    ],
)
def test_census_gap_csv_is_one_census_row(capsys, flags, row):
    code, out, _ = run(capsys, "census", "-k", "4", *flags, "--format", "csv")
    assert code == 0
    assert out == f"level,scope,gap,count\n{row}\n"
    level, scope, gap, count = row.split(",")
    assert list(csv.DictReader(io.StringIO(out))) == [
        {"level": level, "scope": scope, "gap": gap, "count": count}
    ]


def test_lineage_without_root_is_an_error(capsys):
    code, out, err = run(capsys, "lineage", "-r", "2", "-k", "4", "-g", "8")
    assert code == 1
    assert out == "" and err == "error: no gap-8 pair at level 2\n"


@pytest.mark.parametrize("gap", ["3", "0", "-2"])
@pytest.mark.parametrize("r, k", [("3", "5"), ("10", "11")])
def test_lineage_refuses_bad_gap_before_sieving(capsys, monkeypatch, r, k, gap):
    # No gap but an even one >= 2 occurs, so the root search is refused
    # before it sieves: at level 10 it would strike 2^28 integers first.
    def no_sieve(*args):
        raise AssertionError("sieved for a gap that cannot occur")

    monkeypatch.setattr(cli.census_mod, "prospective_segments", no_sieve)
    code, out, err = run(capsys, "lineage", "-r", r, "-k", k, "-g", gap)
    assert code == 1 and out == ""
    assert err == f"error: gap must be even and >= 2, got {gap}\n"


def test_lineage_root_in_window_past_budget(capsys):
    # The level-10 window spans 6.5e9 integers, past the default budget,
    # but its least twin pair, (41, 43), sits a few values in.
    code, out, err = run(
        capsys, "lineage", "-r", "10", "-k", "11", "-g", "2", "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["root"] == [41, 43]
    assert len(payload["leaves"]) == int(payload["predicted"]) == 31 - 2


def test_lineage_root_search_meets_budget(capsys):
    # --budget reaches the root search: no level-10 value lies in [5, 14].
    code, out, err = run(capsys, "--budget", "10", "lineage", "-r", "10", "-k", "11", "-g", "2")
    assert code == 1 and out == "" and "sieve budget" in err
    # No gap-100 pair exists at level 10: refused, not answered "no pair".
    code, out, err = run(capsys, "--budget", "5000", "lineage", "-r", "10", "-k", "11", "-g", "100")
    assert code == 1 and out == "" and "sieve budget" in err


def test_lineage_tree_past_cap_refused_before_any_node(capsys, monkeypatch):
    # 20 -> 24 holds 38 525 949 leaves, about 10 GB as a tree: the cap of
    # 2^15 leaves refuses it from the closed-form count, before anything
    # is struck.
    def no_strike(*args):
        raise AssertionError("the digit space was struck before the refusal")

    monkeypatch.setattr(cli.census_mod, "_strike", no_strike)
    with deadline(2.0):
        code, out, err = run(capsys, "lineage", "-r", "20", "-k", "24", "-g", "2")
    assert code == 1 and out == ""
    assert err == (
        "error: 38525949 leaves exceed the lineage cap of 32768; "
        "use predicted_derived_count for the size\n"
    )


@pytest.mark.parametrize(
    "argv", [["gen", "-k", "1"], ["census", "-k", "1"], ["lineage", "-r", "1", "-k", "3", "-g", "2"]]
)
def test_level_below_2_refused(capsys, tmp_path, argv):
    path = tmp_path / "out"
    assert run(capsys, *argv) == (1, "", "error: level must be >= 2, got 1\n")
    assert run(capsys, *argv, "--out", str(path))[:2] == (1, "")
    assert not path.exists()


def test_census_subset_and_range_refused(capsys):
    code, out, err = run(capsys, "census", "-k", "5", "-m", "1", "--range", "5:100")
    assert (code, out) == (1, "")
    assert err == "error: give either subset or an explicit range, not both\n"


def test_lineage_text_builds_no_json_payload(capsys, monkeypatch):
    # Text prints one summary line: nothing is encoded as JSON.
    def no_json(*args, **kwargs):
        raise AssertionError("encoded JSON for text output")

    monkeypatch.setattr(cli.json, "dumps", no_json)
    code, out, err = run(capsys, "lineage", "-r", "2", "-k", "4", "-g", "2")
    assert (code, out, err) == (0, "root (5, 7) level 2 -> 4: 15 derived pairs (predicted 15)\n", "")


# lineage streams its json one leaf at a time; its bytes are those of
# the whole document dumped at once, built here from the tree.
@pytest.mark.parametrize("r, k, g", [(2, 4, 2), (3, 6, 4), (2, 7, 2), (4, 8, 2)])
def test_lineage_json_streams_whole_output(capsys, r, k, g):
    root = find_root_pair(r, g)
    lineage = derive_pairs(root, r, k)
    payload = {
        "root": list(root),
        "root_level": r,
        "target_level": k,
        "gap": g,
        "predicted": str(predicted_derived_count(r, k, g)),
        "leaves": [
            {
                "pair": list(leaf.pair),
                "steps": [
                    {"level": s.level, "m": s.chosen_m, "disallowed": list(s.disallowed)}
                    for s in lineage.steps(leaf)
                ],
            }
            for leaf in lineage.leaves
        ],
    }
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    argv = ["lineage", "-r", str(r), "-k", str(k), "-g", str(g), "--format", "json"]
    assert run(capsys, *argv) == (0, expected, "")


def test_lineage_json_holds_no_document(tmp_path, monkeypatch):
    # 4 -> 8 is 25 245 leaves, a 15.4 MB document; streamed, the peak is
    # the tree, about 6 MB, not the tree plus its text.  Each leaf's text
    # is encoded before tracing: the indenting encoder is pure Python and
    # runs ten times slower traced.  What main holds of it is traced.
    lineage = derive_pairs(find_root_pair(4, 2), 4, 8)
    texts = {leaf.pair: cli._leaf_json(lineage, leaf) for leaf in lineage.leaves}
    monkeypatch.setattr(cli, "_leaf_json", lambda lineage, leaf: texts[leaf.pair])
    path = tmp_path / "lineage.json"
    tracemalloc.start()
    try:
        code = main(["lineage", "-r", "4", "-k", "8", "-g", "2", "--format", "json",
                     "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and path.stat().st_size == 15_402_146
    assert peak < 10 * 2**20


# Theorem 3 bounds the descendants of a gap-g pair at level r: with no
# such pair the premise fails, and bounds refuses rather than report a
# failed check (-g 100) or a bound built from no root (-g 4).
@pytest.mark.parametrize("l, g", [("4", "100"), ("5", "4")])
def test_bounds_without_root_pair_is_an_error(capsys, l, g):
    code, out, err = run(capsys, "bounds", "-r", "2", "-l", l, "-g", g)
    assert code == 1
    assert out == "" and err == f"error: no gap-{g} pair at level 2\n"


def test_find_pair_budget_is_a_prefix(capsys):
    # find-pair searches (M, min(limit, M + budget)]: the answer does not
    # depend on whether the pair lies among the base primes.
    for above, pair in (("10", "(11, 13)\n"), ("50", "(59, 61)\n")):
        code, out, err = run(
            capsys, "--budget", "1000", "find-pair", "-g", "2", "-M", above, "--limit", "2000"
        )
        assert (code, out, err) == (0, pair, "")
    # (59, 61) ends 11 integers above 50: a budget of 10 stops short.
    code, out, _ = run(capsys, "--budget", "11", "find-pair", "-g", "2", "-M", "50", "--limit", "2000")
    assert (code, out) == (0, "(59, 61)\n")
    code, out, err = run(capsys, "--budget", "10", "find-pair", "-g", "2", "-M", "50", "--limit", "2000")
    assert code == 1 and out == ""
    assert err == (
        "error: no gap-2 pair among the first 10 integers above 50; "
        "searching on to 2000 exceeds the sieve budget\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bounds_past_int_str_digit_limit(capsys, monkeypatch, fmt):
    # The level-10 bound's exact numerator has 7 746 digits, past the
    # interpreter's 4300-digit default limit on int-to-str conversion.
    bound = Fraction(18932747 * 10**4993 + 7, 10**4993)
    report = BoundReport(
        r=2, l=10, g=2, k=7873, window=(80429, 6471719809),
        bound=bound, observed=18467911, n_root=1,
    )
    monkeypatch.setattr(cli.primepairs, "bound_report", lambda r, l, g, budget: report)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bounds", "-r", "2", "-l", "10", "-g", "2", "--format", fmt)
    assert code == 2 and err == ""  # ceil(bound) = 18932748 > observed
    assert sys.get_int_max_str_digits() == limit
    if fmt == "text":
        assert "bound 18932747.000  observed 18467911  holds False" in out
        return
    payload = json.loads(out)
    assert payload["observed"] == "18467911" and payload["holds"] is False
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(payload["bound_exact"]) == bound
    finally:
        sys.set_int_max_str_digits(limit)


# Every subcommand with the formats it offers (None: it has no --format).
CONTRACT = [
    (["gen", "-k", "3"], ("json", "csv", "text")),
    (["census", "-k", "4"], ("json", "csv", "text")),
    (["census", "-k", "4", "-g", "2"], ("json", "csv", "text")),
    (["lineage", "-r", "2", "-k", "4", "-g", "2"], ("json", "text")),
    (["verify", "--max-level", "3"], (None,)),
    (["subset-gaps", "-k", "4"], ("json", "text")),
    (["table1"], ("json", "text")),
    (["bounds", "-r", "2", "-l", "4", "-g", "2"], ("json", "text")),
    (["ratios", "--l", "9"], ("json", "text")),
    (["find-pair", "-g", "2", "-M", "100"], ("json", "text")),
    (["find-pair", "-g", "2", "-M", "100", "--limit", "101"], ("json", "text")),
    (["export", "census", "-k", "3"], ("json", "csv", "text")),
]
CSV_HEADERS = {"gen": "value\n", "census": "level,scope,gap,count\n", "export": "level,scope,gap,count\n"}


@pytest.mark.parametrize(
    "argv, fmt",
    [(argv, fmt) for argv, formats in CONTRACT for fmt in formats],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_output_contract(tmp_path, capsys, argv, fmt):
    argv = argv + (["--format", fmt] if fmt else [])
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if fmt == "json":
        json.loads(out)  # one document, nothing after it
    elif fmt == "csv":
        assert out.startswith(CSV_HEADERS[argv[0]])
    else:
        assert out.endswith("\n") and not out.startswith(("{", "["))
    if fmt:  # --out writes the same bytes and leaves stdout empty
        path = tmp_path / "out"
        code, written, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and written == "" and path.read_text() == out


# One refusal per subcommand: exit 1, nothing on stdout, a message on stderr.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-k", "12"],
        ["census", "-k", "4", "-m", "40"],
        ["lineage", "-r", "2", "-k", "4", "-g", "8"],
        ["verify", "--max-level", "1"],
        ["subset-gaps", "-k", "2"],
        ["table1", "--format", "csv"],
        ["bounds", "-r", "2", "-l", "2", "-g", "2"],
        ["ratios", "--l", "7"],
        ["find-pair", "-g", "3"],
        ["find-pair", "-g", "2", "-M", "5000000"],  # default --limit is below M
        ["export", "census"],
    ],
    ids=" ".join,
)
def test_refusal_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "error:" in err and "Traceback" not in err


# arith.primorial caps the level, so even a narrow range above the cap is
# refused, by its index.
@pytest.mark.parametrize(
    "argv", [["gen", "-k", "26", "--range", "5:10"], ["census", "-k", "26", "--range", "5:100"]],
    ids=" ".join,
)
def test_level_past_primorial_cap_exits_1(capsys, argv):
    assert arith.MAX_PRIMORIAL_INDEX == 25
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == "error: primorial index 26 exceeds configured bound 25\n"


# A window past the sieve budget is refused before the exact bound is
# built, and before anything is sieved: at l = 12 the bound alone takes
# over a minute, and from l = 15 on sqrt(P_l#) is itself past the budget.
# At l = 16 and 17 the window also runs past 2^63; the budget refuses it
# before the int64 bound is checked.
@pytest.mark.parametrize("level", range(11, 18))
def test_bounds_past_budget_refused_at_once(capsys, level):
    with deadline(2.0):
        code, out, err = run(capsys, "bounds", "-r", "2", "-l", str(level), "-g", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: sieving ")
    assert err.endswith(" exceeds the sieve budget of 268435456 integers\n")
    if level == 11:
        assert err == (
            "error: sieving 447841:200561561280 exceeds the sieve budget of 268435456 integers\n"
        )


def test_verify_reports_failed_check(capsys, monkeypatch):
    def check_broken(max_level):
        return f"max_level={max_level}"

    monkeypatch.setattr(
        checks, "ALL_CHECKS", (checks.check_codec_roundtrip, check_broken)
    )
    code, out, err = run(capsys, "verify", "--max-level", "3")
    assert code == 2 and err == ""
    assert out == "pass  codec-roundtrip\nFAIL  broken  (max_level=3)\n"


# Each check reads one name of checks that, off by one, fails it: the
# check, that name, the off-by-one stand-in, and the failure's detail.
OFF_BY_ONE = [
    (checks.check_prospective_counts, "map_segments",
     lambda f: lambda *args: [1, *f(*args)], "k=2: 3 != 2"),
    (checks.check_twin_counts, "gap_census",
     lambda f: lambda k: GapCensus(k, "full", {2: f(k).entries[2] + 1}), "k=3: 4 != 3"),
    (checks.check_lineage_counts, "predicted_derived_count",
     lambda f: lambda *args: f(*args) + 1, "l=2 k=3 g=2: 3 != 4"),
    (checks.check_subset_gap_spectrum, "subset_gap_spectrum",
     lambda f: lambda k: [g + 1 for g in f(k)], "k=3: [5, 5, 5, 7]"),
    (checks.check_per_subset_minima, "predicted_derived_count",
     lambda f: lambda *args: f(*args) + 1, "k=5: 11 < 12"),
    (checks.check_mhat_delta, "mhat_delta",
     lambda f: lambda k, g: f(k, g) + 1, "k=4 g=2 pair=(11,13): 6 != 7"),
    (checks.check_below_square, "verify_prospective_below_square",
     lambda f: lambda k: replace(f(k), least_composite=f(k).least_composite + 1),
     "k=3: least=50"),
    (checks.check_bounds_vs_reality, "k_for_level",
     lambda f: lambda l: f(l) + 1, "l=3: sieved k=3 != pi k=4"),
    (checks.check_consecutive_primes_prospective, "consecutive_primes_as_prospective",
     lambda f: lambda k: f(k) - 1, "k=3"),
    (checks.check_ratio_monotonicity, "distribution_ratio",
     lambda f: lambda k: f(k) + 1, "distribution ratio >= 1"),
    (checks.check_codec_roundtrip, "decode", lambda f: lambda cv: f(cv) + 1, "k=5 n=5"),
]


def test_off_by_one_covers_every_check():
    assert [check for check, *_ in OFF_BY_ONE] == list(checks.ALL_CHECKS)


@pytest.mark.parametrize(
    "check, name, off_by_one, detail", OFF_BY_ONE, ids=[c.__name__ for c, *_ in OFF_BY_ONE]
)
def test_verify_fails_each_check(capsys, monkeypatch, check, name, off_by_one, detail):
    monkeypatch.setattr(checks, name, off_by_one(getattr(checks, name)))
    code, out, err = run(capsys, "verify", "--max-level", "6")
    label = check.__name__.removeprefix("check_").replace("_", "-")
    assert code == 2 and err == ""
    assert f"FAIL  {label}  ({detail})" in out.splitlines()


# The failure details that no off-by-one stand-in above reaches: a bound
# above the observed count, and each monotone stretch of the ratios.
@pytest.mark.parametrize(
    "name, stand_in, label, detail",
    [
        ("bound_report", lambda f: lambda *args: replace(f(*args), observed=0),
         "bounds-vs-reality", "r=2 l=3 g=2: 0 < 3"),
        ("growth_ratio", lambda f: lambda l: -l,
         "ratio-monotonicity", "growth ratio not increasing"),
        ("distribution_ratio", lambda f: lambda k: 1 / k,
         "ratio-monotonicity", "distribution ratio not increasing on 4..8"),
    ],
    ids=["bound_report", "growth_ratio", "distribution_ratio"],
)
def test_verify_prints_failure_detail(capsys, monkeypatch, name, stand_in, label, detail):
    monkeypatch.setattr(checks, name, stand_in(getattr(checks, name)))
    code, out, err = run(capsys, "verify", "--max-level", "6")
    assert code == 2 and err == ""
    assert f"FAIL  {label}  ({detail})" in out.splitlines()


def test_verify_refuses_max_level_below_2_before_any_check(capsys, monkeypatch):
    ran = []

    def check_recording(max_level):
        ran.append(max_level)
        return None

    monkeypatch.setattr(checks, "ALL_CHECKS", (check_recording,))
    for level in ("1", "0", "-3"):
        code, out, err = run(capsys, "verify", "--max-level", level)
        assert code == 1 and out == ""
        assert err == f"error: max level must be >= 2, got {level}\n"
    assert ran == []
    code, out, _ = run(capsys, "verify", "--max-level", "2")
    assert code == 0 and out == "pass  recording\n" and ran == [2]
