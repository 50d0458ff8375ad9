import json

import pytest

from polignac.census import gap_census
from polignac.cli import main, parse_census_csv, render_census


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen(capsys):
    code, out, _ = run(capsys, "gen", "--level", "3")
    assert code == 0
    assert out.split() == ["7", "11", "13", "17", "19", "23", "29", "31"]


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


def test_config_file_respected(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"enumerable_cap": 3}))
    monkeypatch.setenv("POLIGNAC_CONFIG", str(config))
    code, _, err = run(capsys, "gen", "--level", "4")
    assert code == 1  # cap from config forbids level 4
    code, out, _ = run(capsys, "--cap", "9", "gen", "--level", "4")
    assert code == 0  # flag overrides the config file


def test_render_census_text():
    text = render_census(gap_census(3), "text")
    assert "level 3" in text and "gap" in text
