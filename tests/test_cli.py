import json
import sys
from fractions import Fraction

import pytest

from polignac import checks, cli
from polignac.census import gap_census
from polignac.cli import main, parse_census_csv
from polignac.primepairs import BoundReport


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
    # The level-2 window is [5, 10]: 100:200 holds no value.
    code, out, _ = run(capsys, "gen", "-k", "2", "--range", "100:200", "--format", fmt)
    assert code == 0
    assert out == expected


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


def test_ratios_one_decimal(capsys):
    code, out, _ = run(capsys, "ratios", "--l", "9")
    assert code == 0
    assert out.strip() == "1.4"


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
def test_export_bounds_without_flags_exits_1(capsys, flags):
    code, _, err = run(capsys, "export", "bounds", *flags)
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
    parsed = parse_census_csv(path.read_text())
    assert parsed.entries == gap_census(3).entries
    assert parsed.level == 3


def test_export_empty_census_header_only(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    code, _, _ = run(
        capsys, "export", "census", "--level", "4", "--range", "114:120",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    assert path.read_text() == "level,scope,gap,count\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "level,scope,gap,count\n4,full,2\n",
        "level,scope,gap,count\n4,full,2,15,9\n",
    ],
)
def test_parse_census_csv_refuses_malformed(text):
    with pytest.raises(ValueError):
        parse_census_csv(text)


def test_export_bounds_json(tmp_path, capsys):
    path = tmp_path / "bounds.json"
    code, _, _ = run(
        capsys, "export", "bounds", "-r", "2", "-l", "5", "-g", "2",
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


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"sieve_budget": "9"}, "sieve_budget"),
        ({"sieve_budgte": 9}, "sieve_budgte"),
        ({"sieve_budget": True}, "sieve_budget"),
        ({"lineage_cap": 0}, "lineage_cap"),
        ([9], "JSON object"),
    ],
)
def test_config_file_rejects_bad_settings(tmp_path, capsys, monkeypatch, settings, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    monkeypatch.setenv("POLIGNAC_CONFIG", str(config))
    code, out, err = run(capsys, "gen", "--level", "3")
    assert code == 1
    assert out == "" and err.startswith("error:") and named in err


def test_config_file_respected(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sieve_budget": 30}))
    monkeypatch.setenv("POLIGNAC_CONFIG", str(config))
    code, _, err = run(capsys, "gen", "--level", "4")
    assert code == 1  # budget from config forbids level 4 (210 integers)
    code, out, _ = run(capsys, "--budget", "210", "gen", "--level", "4")
    assert code == 0  # flag overrides the config file


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
    parsed = parse_census_csv(out)
    level, scope, gap, count = row.split(",")
    assert (parsed.level, parsed.scope) == (int(level), scope)
    assert parsed.entries == {int(gap): int(count)}


def test_lineage_without_root_is_an_error(capsys):
    code, out, err = run(capsys, "lineage", "-r", "2", "-k", "4", "-g", "8")
    assert code == 1
    assert out == "" and err == "error: no gap-8 pair at level 2\n"


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
    (["export", "bounds", "-r", "2", "-l", "4", "-g", "2"], ("json", "text")),
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
        ["export", "bounds", "-r", "2", "-l", "2", "-g", "2"],
    ],
    ids=" ".join,
)
def test_refusal_contract(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "" and "error:" in err and "Traceback" not in err


def test_verify_reports_failed_check(capsys, monkeypatch):
    def check_broken(max_level):
        return checks.CheckResult("broken", False, f"max_level={max_level}")

    monkeypatch.setattr(
        checks, "ALL_CHECKS", (checks.check_codec_roundtrip, check_broken)
    )
    code, out, err = run(capsys, "verify", "--max-level", "3")
    assert code == 2 and err == ""
    assert out == "pass  codec-roundtrip\nFAIL  broken  (max_level=3)\n"


def test_verify_refuses_max_level_below_2_before_any_check(capsys, monkeypatch):
    ran = []

    def check_recording(max_level):
        ran.append(max_level)
        return checks.CheckResult("recording", True)

    monkeypatch.setattr(checks, "ALL_CHECKS", (check_recording,))
    for level in ("1", "0", "-3"):
        code, out, err = run(capsys, "verify", "--max-level", level)
        assert code == 1 and out == ""
        assert err == f"error: max level must be >= 2, got {level}\n"
    assert ran == []
    code, out, _ = run(capsys, "verify", "--max-level", "2")
    assert code == 0 and out == "pass  recording\n" and ran == [2]
