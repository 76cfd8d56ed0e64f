"""Command-line front end tests: parsing, file outputs, determinism, reports."""

import argparse
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from pytest import approx, raises

import vaughanlab.cli as cli
from vaughanlab import arith, constants, frmodel, variance
from vaughanlab import (
    FRConfig,
    Mode,
    RestrictionMode,
    bdh_variance,
    build_sieve,
    build_tables,
    constant_set,
    mu2_over_phi_sum,
    theorem3_coupled_prediction,
    theorem3_prediction,
    variance_sum,
)
from vaughanlab.cli import (
    CONSTANT_COLUMNS,
    RESULT_COLUMNS,
    ExperimentConfig,
    UsageError,
    _fmt,
    _resolve_q,
    _resolve_q_low,
    _resolve_r,
    _resolve_weight,
    _sha256,
    config_from_text,
    main,
    report,
)


def read_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_file_parses_every_key():
    # A hand-written file that sets every key, each through its own parser,
    # parses to the config it spells out.
    text = """
        command = theorem4
        # a comment, then every setting with its own spacing
        x = 10000
        q=500
        b_exp = 2.5
        r = 10
        g_exp =  1.5
        n_shift = 30
        v_list = 1, 2,6,
        prime_cutoff = 100000
        q_low = auto
        weight = psi
        threads = 2
        scale = quick
        output_dir = runs/a b
        format = json
    """
    cfg = config_from_text(text)
    assert cfg == ExperimentConfig(
        command="theorem4", x=10_000, q=500, b_exp=2.5, r=10.0, g_exp=1.5, n_shift=30, v_list=[1, 2, 6],
        prime_cutoff=100_000, q_low="auto", weight="psi", threads=2, scale="quick", output_dir="runs/a b",
        format="json",
    )
    set_keys = {line.partition("=")[0].strip() for line in text.splitlines() if "=" in line and "#" not in line}
    assert set_keys == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert [type(getattr(cfg, k)) for k in ("x", "r", "b_exp", "v_list")] == [int, float, float, list]


def test_config_parse_errors():
    with raises(UsageError):
        config_from_text("no_such_key = 1\n")
    with raises(UsageError):
        config_from_text("just a line\n")
    cfg = config_from_text("# comment\n\nx = 100\nv_list = 1,2,3\nr = 2.5\n")
    assert cfg.x == 100 and cfg.v_list == [1, 2, 3] and cfg.r == 2.5


def test_run_checks_the_choices_of_a_config_built_in_code(tmp_path):
    for bad in ({"command": "suite", "scale": "huge"}, {"command": "constants", "format": "xml"}):
        with raises(UsageError):
            cli.run(ExperimentConfig(**bad, prime_cutoff=1000, output_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_q_and_r_resolution():
    with raises(UsageError):
        _resolve_q(ExperimentConfig(command="vaughan", x=100))
    with raises(UsageError):
        _resolve_q(ExperimentConfig(command="vaughan", x=100, q=10, b_exp=1.0))
    assert _resolve_q(ExperimentConfig(command="vaughan", x=100, q=10)) == 10
    got = _resolve_q(ExperimentConfig(command="vaughan", x=10_000, b_exp=1.0))
    assert got == int(10_000 / math.log(10_000))
    with raises(UsageError):
        _resolve_r(ExperimentConfig(command="vaughan", x=100))
    assert _resolve_r(ExperimentConfig(command="vaughan", x=10_000, g_exp=2.0)) == approx(
        math.log(10_000) ** 2, rel=1e-15
    )
    cfg = ExperimentConfig(command="vaughan", x=10_000, q_low="auto")
    assert _resolve_q_low(cfg, 10_000, 1_000, 50.0) == approx(200.0, rel=1e-15)
    with raises(UsageError):
        _resolve_q_low(ExperimentConfig(q_low="-3"), 100, 10, 5.0)
    with raises(UsageError):
        _resolve_q_low(ExperimentConfig(q_low="soon"), 100, 10, 5.0)
    with raises(UsageError):
        _resolve_weight(ExperimentConfig(weight="chi"))


def test_fmt_uses_12_significant_digits():
    assert _fmt(0.1) == "0.1"
    assert _fmt(1234567.8901234567) == "1234567.89012"
    assert _fmt(None) == "" and _fmt("") == ""
    assert _fmt(7) == "7"


def test_constants_command_writes_table(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "constants", "--cutoff", "100000", "--out", str(tmp_path)
    )
    assert code == 0 and err == ""
    header, rows = read_csv(tmp_path / "results.csv")
    assert header == CONSTANT_COLUMNS
    by_name = {r[0]: r for r in rows}
    # c0 = 1 + gamma + logp_sum at this cutoff
    assert float(by_name["c0"][1]) == approx(
        1.0 + 0.5772156649015332 + 0.7553566278090919, rel=1e-11
    )
    assert by_name["t(1)"][4] == "below 1"
    assert by_name["t(2)"][4] == ""
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["version"]
    assert "primes_sha256" in manifest["checksums"]
    assert (tmp_path / "results.json").exists()
    assert "c0" in out


def test_fr_table_command(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "fr-table", "--x", "50", "--R", "10", "--out", str(tmp_path)
    )
    assert code == 0, err
    header, rows = read_csv(tmp_path / "results.csv")
    assert header == ["n", "lambda", "fr", "delta"]
    assert len(rows) == 50
    tables = build_tables(build_sieve(50))
    first = rows[0]
    assert int(first[0]) == 1
    assert float(first[2]) == approx(mu2_over_phi_sum(10.0, tables), rel=1e-11)
    assert float(first[3]) == approx(-float(first[2]), rel=1e-11)


def _per_field_csv(columns, rows):
    """The per-field CSV writer the CLI had before it formatted by column, kept as its oracle."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


# No rows; plain float and int columns; columns of mixed types, numpy scalars
# (json's default hook), values the CSV must quote, a string that spells a row
# boundary, and non-finite floats.
WRITER_ROWS = [
    [],
    [{"n": n, "lambda": math.log(n) / 3, "fr": 1e-20 * n, "delta": -0.5 * n} for n in range(1, 6)],
    [
        {"n": 1, "lambda": 2.5, "fr": "", "delta": None, "mode": "all", "v": np.int64(3)},
        {"n": "", "lambda": 7, "fr": np.float64(0.1), "delta": float("inf"), "mode": 'a,b},\n      {"c', "v": True},
        {"n": 2**70, "lambda": float("nan"), "fr": -0.0, "delta": 1e300, "mode": 'q"', "v": None},
    ],
]


@pytest.mark.parametrize("rows", WRITER_ROWS, ids=["empty", "floats", "mixed"])
def test_writers_match_per_field_and_indenting_encoders(tmp_path, rows, monkeypatch):
    columns = list(rows[0]) if rows else ["n", "lambda"]
    payload = {"command": "fr-table", "columns": columns, "rows": rows}
    want = json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n"
    echo_want = json.dumps(rows, indent=2, sort_keys=True, default=_fmt) + "\n"
    # the writers format and encode the rows a chunk at a time; any chunk
    # size gives the same bytes, in the files and in the --format json echo
    for chunk in (1, 2, cli._ROW_CHUNK):
        monkeypatch.setattr(cli, "_ROW_CHUNK", chunk)
        buf = io.StringIO()
        cli._write_csv(buf, columns, rows)
        assert buf.getvalue() == _per_field_csv(columns, rows), chunk
        echo = io.StringIO()
        cli._write_json(tmp_path / "results.json", "fr-table", columns, rows, echo)
        assert (tmp_path / "results.json").read_text() == want, chunk
        assert echo.getvalue() == echo_want, chunk
    assert cli._rows_json(rows, 0) == json.dumps(rows, indent=2, sort_keys=True, default=_fmt)


def test_manifest_table_bytes_sums_the_held_arrays(tmp_path, capsys):
    runs = {
        "constants": ("--cutoff", "1000"),
        "bdh": ("--x", "3000", "--Q", "20"),
        "theorem3": ("--x", "3000", "--R", "10", "--v", "1,6"),
        "theorem5": ("--x", "3000", "--Q", "300", "--R", "10"),
    }
    for command, argv in runs.items():
        code, _, err = run_cli(capsys, command, *argv, "--out", str(tmp_path / command))
        assert code == 0, err
    derived = {c: json.loads((tmp_path / c / "manifest.json").read_text())["derived"] for c in runs}
    assert derived["constants"]["table_bytes"] == 0
    tables = cli._tables_for(3000)
    sieve_and_tables = sum(
        a.nbytes for a in (tables.sieve.spf, tables.sieve.primes(), tables.lam, tables.mu, tables.phi, tables.prime_powers)
    )
    assert derived["bdh"]["table_bytes"] == sieve_and_tables
    fr = cli._fr_for(3000, 10.0)
    # theorem3 and a band command hold the F_R weights and the F_R table on
    # the same config, and no residual: the class sums and the bands derive
    # it a chunk at a time, or for the band alone
    arrays = [f.name for f in dataclasses.fields(fr) if isinstance(getattr(fr, f.name), np.ndarray)]
    assert arrays == ["_coef", "_table"]
    held = sieve_and_tables + fr._coef.nbytes + fr.table().nbytes
    assert derived["theorem5"]["table_bytes"] == derived["theorem3"]["table_bytes"] == held


def test_theorem3_hypothesis_guard(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "theorem3", "--x", "1000", "--R", "11", "--out", str(tmp_path)
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert "x^(1/3)" in payload["message"]


def assert_run_telemetry(out_dir: Path):
    derived = json.loads((out_dir / "manifest.json").read_text())["derived"]
    assert derived["peak_rss_mb"] > 0
    assert derived["tables_s"] >= 0


def test_sha256_hashes_array_bytes_in_place():
    arrays = [np.arange(-50, 50, dtype=dt) for dt in (np.int8, np.int32, np.int64)]
    arrays.append(np.linspace(0.0, 3.0, 97))
    arrays.append(np.arange(40, dtype=np.int64)[3::7])  # non-contiguous view
    for arr in arrays:
        assert _sha256(arr) == hashlib.sha256(arr.tobytes()).hexdigest()


def test_theorem3_small_run(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "theorem3", "--x", "10000", "--R", "10", "--v", "1,2,3", "--out", str(tmp_path),
    )
    assert code == 0, err
    assert_run_telemetry(tmp_path)
    header, rows = read_csv(tmp_path / "results.csv")
    assert header == RESULT_COLUMNS
    assert [r[header.index("v")] for r in rows] == ["1", "2", "3"]
    assert all(r[header.index("mode")] == "progression" for r in rows)
    cs = constant_set()
    for row, v in zip(rows, (1, 2, 3)):
        assert row[header.index("predicted_total")] == _fmt(theorem3_prediction(10_000, v, 1, 10.0, cs).total)
        assert row[header.index("predicted_coupled")] == _fmt(
            theorem3_coupled_prediction(10_000, v, 1, 10.0, cs).total
        )


def test_variance_run_is_thread_invariant(tmp_path, capsys):
    outs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        code, _, err = run_cli(
            capsys,
            "vaughan", "--x", "10000", "--Q", "500", "--R", "10",
            "--threads", threads, "--out", str(out_dir),
        )
        assert code == 0, err
        assert_run_telemetry(out_dir)
        outs.append(read_csv(out_dir / "results.csv"))
    (h1, rows1), (h2, rows2) = outs
    assert h1 == h2 == RESULT_COLUMNS
    skip = {h1.index("wall_time_ms")}
    for r1, r2 in zip(rows1, rows2):
        for i, (a, b) in enumerate(zip(r1, r2)):
            if i not in skip:
                assert a == b


def test_bdh_command_matches_library(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "bdh", "--x", "1000", "--Q", "100", "--out", str(tmp_path)
    )
    assert code == 0, err
    header, rows = read_csv(tmp_path / "results.csv")
    want = bdh_variance(1000, 100, build_tables(build_sieve(1000))).empirical
    assert float(rows[0][header.index("empirical")]) == approx(want, rel=1e-11)
    assert rows[0][header.index("empirical")] == f"{want:.12g}"
    # results.json carries the full double, not the CSV's 12 digits
    assert json.loads((tmp_path / "results.json").read_text())["rows"][0]["empirical"] == want
    assert rows[0][header.index("mode")] == "bdh"
    assert rows[0][header.index("predicted_coupled")] == ""


def test_output_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VAUGHANLAB_OUT", str(tmp_path / "envout"))
    code, _, err = run_cli(capsys, "constants", "--cutoff", "100000")
    assert code == 0, err
    assert (tmp_path / "envout" / "results.csv").exists()


def test_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("x = 50\nr = 5\n")
    code, _, err = run_cli(
        capsys,
        "fr-table", "--config", str(cfg_file), "--R", "10", "--out", str(tmp_path),
    )
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["x"] == 50
    assert manifest["config"]["r"] == 10.0
    assert manifest["derived"]["R"] == 10.0


def test_commands_resolve_only_the_settings_they_read(tmp_path, capsys):
    # a config file may set keys a command does not read: fr-table runs no
    # band and reads no constants, bdh reads no constants, so neither checks
    # nor records those settings; bdh still records its threads
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("prime_cutoff = 5\nthreads = -3\n")
    code, _, err = run_cli(capsys, "fr-table", "--x", "100", "--R", "5", "--out", str(tmp_path / "fr"))
    assert code == 0, err
    assert "threads" not in json.loads((tmp_path / "fr" / "manifest.json").read_text())["derived"]
    code, _, err = run_cli(
        capsys, "fr-table", "--config", str(cfg_file), "--x", "100", "--R", "5", "--out", str(tmp_path / "frc")
    )
    assert code == 0, err
    cfg_file.write_text("prime_cutoff = 5\n")
    code, _, err = run_cli(
        capsys, "bdh", "--x", "1000", "--Q", "10", "--config", str(cfg_file), "--out", str(tmp_path / "bdh")
    )
    assert code == 0, err
    assert json.loads((tmp_path / "bdh" / "manifest.json").read_text())["derived"]["threads"] == variance._thread_count(0)


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "fr-table", "--config", str(tmp_path / "nope.cfg"), "--R", "2", "--x", "10"
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_report_requires_existing_manifest(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "missing" / "manifest.json"))
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_report_merges_runs_and_contrasts_modes(tmp_path, capsys):
    for cmd, sub in (("vaughan", "a"), ("theorem5", "b")):
        code, _, err = run_cli(
            capsys,
            cmd, "--x", "10000", "--Q", "500", "--R", "10", "--out", str(tmp_path / sub),
        )
        assert code == 0, err
    text = report([str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b" / "manifest.json")])
    assert "run comparison" in text
    assert "log R coefficient contrast" in text
    assert "-1.392073" in text
    assert "mode=coprime" in text


def test_band_rows_carry_the_all_and_excluded_parts(tmp_path, capsys):
    # a lag-route theorem5 row carries its ALL part and its excluded part
    # in results.csv, results.json and the report; a bucket-route row and a
    # vaughan row (no classes dropped) leave the excluded part empty
    runs = {
        "lag": ("theorem5", "--Q", "500"),
        "bucket": ("theorem5", "--Q", "500", "--q-low", "490"),
        "all": ("vaughan", "--Q", "500"),
    }
    rows = {}
    for name, (cmd, *argv) in runs.items():
        code, _, err = run_cli(capsys, cmd, "--x", "10000", "--R", "10", *argv, "--out", str(tmp_path / name))
        assert code == 0, err
        header, csv_rows = read_csv(tmp_path / name / "results.csv")
        rows[name] = dict(zip(header, csv_rows[0]))
        json_row = json.loads((tmp_path / name / "results.json").read_text())["rows"][0]
        if name == "lag":
            run = variance_sum(
                10_000, 500, cli._fr_for(10_000, 10.0), RestrictionMode(Mode.COPRIME), q_low=json_row["Q_low"]
            )
            assert (json_row["all_part"], json_row["excluded_part"]) == (run.all_part, run.excluded_part)
            assert json_row["empirical"] == run.empirical
    assert rows["lag"]["all_part"] != "" and float(rows["lag"]["excluded_part"]) < 0.0
    assert rows["bucket"]["all_part"] == rows["bucket"]["excluded_part"] == ""
    assert rows["all"]["all_part"] == rows["all"]["empirical"] and rows["all"]["excluded_part"] == ""
    text = report([str(tmp_path / name / "manifest.json") for name in runs])
    lines = [line for line in text.splitlines() if "mode=coprime" in line]
    assert len(lines) == 2 and "all_part=" in lines[0] and "excluded_part=" in lines[0]
    assert "_part=" not in lines[1]


def test_report_command_prints_the_merged_report(tmp_path, capsys):
    code, _, err = run_cli(capsys, "constants", "--cutoff", "1000", "--out", str(tmp_path))
    assert code == 0, err
    manifest = str(tmp_path / "manifest.json")
    code, out, err = run_cli(capsys, "report", manifest)
    assert code == 0 and err == ""
    assert out == report([manifest]) + "\n"
    assert f"[constants] from {manifest}" in out and "  c0 = " in out


def test_report_needs_the_results_beside_each_manifest(tmp_path, capsys):
    code, _, err = run_cli(capsys, "constants", "--cutoff", "1000", "--out", str(tmp_path))
    assert code == 0, err
    (tmp_path / "results.json").unlink()
    manifest = str(tmp_path / "manifest.json")
    with raises(FileNotFoundError, match="results.json missing"):
        report([manifest])
    code, _, err = run_cli(capsys, "report", manifest)
    assert code == 1 and json.loads(err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("command", ["fr-table", "theorem3", "vaughan", "theorem5", "theorem4", "bdh"])
def test_command_without_x_is_usage_error(command, tmp_path, capsys):
    code, _, err = run_cli(capsys, command, "--out", str(tmp_path))
    assert code == 2
    assert json.loads(err) == {"error": "usage", "message": f"command {command!r} requires --x"}
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, message", [("report", "report takes manifest paths"), ("nope", "unknown command 'nope'")]
)
def test_run_refuses_report_and_unknown_commands(command, message, tmp_path):
    with raises(UsageError, match=message):
        cli.run(ExperimentConfig(command=command, output_dir=str(tmp_path)))
    assert not any(tmp_path.iterdir())


def test_suite_quick_end_to_end(tmp_path, capsys):
    code, out, err = run_cli(capsys, "suite", "--scale", "quick", "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "report.txt").exists()
    text = (tmp_path / "report.txt").read_text()
    assert "run comparison" in text
    assert "below 1" in text  # t(1) flag survives into the merged report
    for sub in ("constants", "theorem3", "vaughan", "theorem5", "theorem4", "bdh"):
        assert (tmp_path / sub / "results.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["derived"]["runs"]) == 6
    # theorem3 lines carry the coupled form and its deviation; banded lines do not
    rows = json.loads((tmp_path / "theorem3" / "results.json").read_text())["rows"]
    for row in rows:
        emp, coupled = row["empirical"], row["predicted_coupled"]
        assert f" v={row['v']} " in text
        assert f"coupled={coupled} coupled_rel_dev={(emp - coupled) / coupled}" in text
    assert text.count("coupled=") == len(rows)


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_json_echo_format(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "fr-table", "--x", "10", "--R", "2", "--format", "json", "--out", str(tmp_path),
    )
    assert code == 0, err
    rows = json.loads(out)
    assert len(rows) == 10 and rows[0]["n"] == 1


def test_json_rows_are_encoded_once_and_the_peak_read_after_the_writers(tmp_path, capsys, monkeypatch):
    encodings, peak_reads = [], []
    rows_json, getrusage = cli._rows_json, cli.resource.getrusage
    monkeypatch.setattr(cli, "_rows_json", lambda rows, depth: encodings.append(depth) or rows_json(rows, depth))
    monkeypatch.setattr(
        cli.resource, "getrusage", lambda who: peak_reads.append((tmp_path / "results.json").exists()) or getrusage(who)
    )
    code, out, err = run_cli(
        capsys, "fr-table", "--x", "50", "--R", "3", "--format", "json", "--out", str(tmp_path)
    )
    assert code == 0, err
    assert len(encodings) == 1  # one encoding serves results.json and the echo
    assert peak_reads == [True]
    rows = json.loads((tmp_path / "results.json").read_text())["rows"]
    assert len(rows) == 50
    assert out == json.dumps(rows, indent=2, sort_keys=True, default=_fmt) + "\n"


def test_theorem4_shift_beyond_the_kernels_exits_2_quickly(tmp_path, capsys):
    # 2^61 - 1 is prime, far above the cutoff; 10^20 is beyond int64
    for n in (2**61 - 1, 10**20):
        t0 = time.perf_counter()
        code, _, err = run_cli(
            capsys, "theorem4", "--x", "1000", "--Q", "100", "--R", "10", "--N", str(n), "--out", str(tmp_path / "bad")
        )
        assert time.perf_counter() - t0 < 2.0, n
        assert code == 2, err
        assert json.loads(err)["error"] == "usage"
    assert not (tmp_path / "bad").exists()
    code, _, err = run_cli(
        capsys, "theorem4", "--x", "1000", "--Q", "100", "--R", "10", "--N", str(2**40), "--out", str(tmp_path / "ok")
    )
    assert code == 0, err
    header, rows = read_csv(tmp_path / "ok" / "results.csv")
    assert rows[0][header.index("N")] == str(2**40)


def test_cli_frees_the_tables_of_an_earlier_x(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fr-table", "--x", "60", "--R", "5", "--out", str(tmp_path / "a"))
    assert code == 0, err
    first = weakref.ref(cli._fr_for(60, 5.0))
    first_tables = weakref.ref(first().tables)
    code, _, err = run_cli(capsys, "fr-table", "--x", "70", "--R", "5", "--out", str(tmp_path / "b"))
    assert code == 0, err
    gc.collect()
    assert first() is None
    assert first_tables() is None


def config_file(text: str) -> str:
    """An argv placeholder for a config file that holds the one line `text`."""
    return f"<config {text}>"


CONFIG_FILE = config_file("x = abc")
BAD_VALUES = [
    ("vaughan", "--x", "1000", "--Q", "0", "--R", "10"),
    ("vaughan", "--x", "1000", "--Q", "1001", "--R", "10"),
    ("theorem5", "--x", "1000", "--B", "20", "--R", "10"),  # Q = floor(x (log x)^-20) = 0
    ("bdh", "--x", "1000", "--Q", "0"),
    ("theorem3", "--x", "1000", "--R", "5", "--v", "1,4"),
    ("theorem3", "--x", "1000", "--R", "5", "--v", "0"),
    ("theorem3", "--x", "1000", "--R", "5", "--v", "1001"),
    ("theorem3", "--x", "1000", "--R", "5", "--N", "-1"),
    ("theorem4", "--x", "1000", "--Q", "100", "--R", "10", "--N", "0"),
    ("vaughan", "--x", "1000", "--Q", "100", "--R", "10", "--threads", "-3"),
    ("vaughan", "--x", "1000", "--Q", "100", "--R", "10", "--cutoff", "5"),
    ("theorem3", "--x", "1000", "--R", "5", "--v", "1,a"),
    ("fr-table", "--config", CONFIG_FILE, "--R", "5"),
    ("vaughan", "--x", "1000", "--Q", "100", "--R", "0.5"),
    ("fr-table", "--x", "100", "--R", "101"),
    ("theorem5", "--x", "1000", "--Q", "50", "--R", "10", "--q-low", "auto"),  # Q_low = 100 >= Q
    ("theorem4", "--x", "1000", "--Q", "100", "--R", "10", "--N", "1009", "--cutoff", "1000"),
    ("theorem4", "--x", "1000", "--Q", "100", "--R", "10", "--N", "2305843009213693951"),  # 2^61 - 1, prime
    ("theorem4", "--x", "1000", "--Q", "100", "--R", "10", "--N", "100000000000000000000"),  # beyond int64
    ("vaughan", "--x", "3000000000", "--Q", "100", "--R", "10"),  # beyond the int32 sieve
    ("vaughan", "--x", "1000", "--Q", "100", "--R", "10", "--config", config_file("format = xml")),
    ("suite", "--config", config_file("scale = huge")),
    ("suite", "--threads", "-3"),
    ("theorem5", "--x", "1000", "--Q", "100", "--R", "10", "--q-low", "nan"),
    ("vaughan", "--x", "1000", "--B", "nan", "--R", "10"),
    ("vaughan", "--x", "1000", "--B=-inf", "--R", "10"),
    ("vaughan", "--x", "1000", "--B=-1000", "--R", "10"),  # (log x)^1000 overflows the double
    ("vaughan", "--x", "1000", "--Q", "100", "--G", "1000"),
    ("constants", "--cutoff", "100000000000"),  # a 50 GB odd-only sieve
    ("suite", "--cutoff", "2147483648"),
    # flags a command does not read are unknown arguments
    ("constants", "--threads", "2"),
    ("fr-table", "--cutoff", "1000"),
    ("fr-table", "--threads", "2"),
    ("theorem3", "--x", "1000", "--R", "5", "--threads", "2"),
    ("bdh", "--x", "1000", "--Q", "10", "--cutoff", "1000"),
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=[" ".join(a) for a in BAD_VALUES])
def test_bad_values_exit_2_before_any_table(argv, tmp_path, monkeypatch, capsys):
    def no_sieve(limit):
        pytest.fail(f"build_sieve({limit}) ran before the values were checked")

    def small_primes(cutoff):
        if cutoff >= 2**31:
            pytest.fail(f"prime_array({cutoff}) ran before the cutoff was checked")
        return arith.prime_array(cutoff)

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    monkeypatch.setattr(cli, "prime_array", small_primes)
    monkeypatch.setattr(constants, "prime_array", small_primes)
    cli._tables_for.cache_clear()
    cli._fr_for.cache_clear()
    cfg_file = tmp_path / "bad.cfg"
    for a in argv:
        if a.startswith("<config "):
            cfg_file.write_text(a.removeprefix("<config ").removesuffix(">") + "\n")
    argv = [str(cfg_file) if a.startswith("<config ") else a for a in argv]
    out = tmp_path / "fresh" / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2, err
    assert json.loads(err)["error"] == "usage"
    assert not (tmp_path / "fresh").exists()  # no output directory is made on a usage error


class _Reached(Exception):
    """Raised in place of the work that follows the bound checks."""


def _reached(*args):
    raise _Reached


@pytest.fixture(scope="module")
def fr_1000():
    return FRConfig(R=10.0, tables=build_tables(build_sieve(1000)))


# Each quantity with a bound: its CLI command (the value goes in {}), the
# library module and private check that own the bound, and the library entry
# that calls that check, given the value and an F_R config over [0, 1000].
BOUNDED = {
    "x": (
        "vaughan --x={} --Q 1 --R 1",
        arith, "_check_limit", lambda v, fr: build_sieve(v),
    ),
    "Q": (
        "vaughan --x 1000 --Q={} --R 10",
        variance, "_check_band", lambda v, fr: variance_sum(1000, v, fr, RestrictionMode(Mode.ALL)),
    ),
    "bdh Q": (
        "bdh --x 1000 --Q={}",
        variance, "_check_band", lambda v, fr: bdh_variance(1000, v, fr.tables),
    ),
    "Q_low": (
        "theorem5 --x 1000 --Q 100 --R 10 --q-low={}",
        variance, "_check_band", lambda v, fr: variance_sum(1000, 100, fr, RestrictionMode(Mode.COPRIME), q_low=v),
    ),
    "R": (
        "fr-table --x 1000 --R={}",
        frmodel, "_check_r", lambda v, fr: FRConfig(R=v, tables=fr.tables),
    ),
    "cutoff": (
        "constants --cutoff={}",
        constants, "_check_cutoff", lambda v, fr: constant_set(v),
    ),
    "threads": (
        "vaughan --x 1000 --Q 100 --R 10 --threads={}",
        variance, "_thread_count", lambda v, fr: variance_sum(1000, 100, fr, RestrictionMode(Mode.ALL), threads=v),
    ),
}

NON_FINITE = ["nan", "inf", "-inf"]
# Per quantity, the values both sides accept and those they reject: each
# bound, its neighbours, NaN, +-inf and -0.0.
BOUNDARY_VALUES = {
    "x": (["2", "3", "2147483647"], ["1", "2147483648", "2147483649", *NON_FINITE, "-0.0"]),
    "Q": (["1", "2", "999", "1000"], ["0", "1001", *NON_FINITE, "-0.0"]),
    "bdh Q": (["1", "2", "999", "1000"], ["0", "1001", *NON_FINITE, "-0.0"]),
    "Q_low": (["0", "-0.0", "1", "99"], ["-1", "100", "101", *NON_FINITE]),
    "R": (["1", "2", "1000", "1000.5"], ["0", "1001", *NON_FINITE, "-0.0"]),
    "cutoff": (["10", "11", "2147483647"], ["9", "2147483648", "2147483649", *NON_FINITE, "-0.0"]),
    "threads": (["0", "1"], ["-1", *NON_FINITE, "-0.0"]),
}
BOUNDARY_CASES = [
    (quantity, text, accepted)
    for quantity, (good, bad) in BOUNDARY_VALUES.items()
    for accepted, texts in ((True, good), (False, bad))
    for text in texts
]


@pytest.mark.parametrize("quantity, text, accepted", BOUNDARY_CASES, ids=[f"{k}={v}" for k, v, _ in BOUNDARY_CASES])
def test_cli_and_library_share_each_bound(quantity, text, accepted, fr_1000, tmp_path, monkeypatch, capsys):
    """The CLI exits 2 before any table exactly where the library entry raises ValueError.

    The CLI's table builds and the library's work after its check both raise
    _Reached, so no large value is ever built; the library value is the text
    as an int where it parses as one, else as a float.
    """
    argv, module, check_name, entry = BOUNDED[quantity]
    monkeypatch.setattr(cli, "build_sieve", _reached)
    monkeypatch.setattr(cli, "prime_array", _reached)
    monkeypatch.setattr(constants, "prime_array", _reached)
    cli._tables_for.cache_clear()
    cli._fr_for.cache_clear()
    out = tmp_path / "fresh" / "out"
    code, _, err = run_cli(capsys, *argv.format(text).split(), "--out", str(out))
    assert (code, json.loads(err)["error"]) == ((1, "_Reached") if accepted else (2, "usage")), err
    assert not (tmp_path / "fresh").exists()

    check = getattr(module, check_name)

    def check_then_stop(*args):
        check(*args)
        raise _Reached

    monkeypatch.setattr(module, check_name, check_then_stop)
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    with raises((ValueError, _Reached)) as caught:
        entry(value, fr_1000)
    assert (caught.type is _Reached) == accepted, caught.value


# Each subcommand's flags, written out by hand as a record of the parser's
# interface independent of the ExperimentConfig field metadata it is built from.
SUBCOMMAND_FLAGS = {
    "constants": {"--config", "--cutoff", "--out", "--format"},
    "fr-table": {"--config", "--x", "--out", "--format", "--R", "--G"},
    "theorem3": {"--config", "--x", "--cutoff", "--out", "--format", "--R", "--G", "--v", "--N"},
    "vaughan": {"--config", "--x", "--cutoff", "--threads", "--out", "--format",
                "--Q", "--B", "--R", "--G", "--q-low", "--weight"},
    "theorem5": {"--config", "--x", "--cutoff", "--threads", "--out", "--format",
                 "--Q", "--B", "--R", "--G", "--q-low", "--weight"},
    "theorem4": {"--config", "--x", "--cutoff", "--threads", "--out", "--format",
                 "--Q", "--B", "--R", "--G", "--q-low", "--weight", "--N"},
    "bdh": {"--config", "--x", "--threads", "--out", "--format", "--Q", "--B", "--weight"},
    "suite": {"--config", "--cutoff", "--threads", "--out", "--format", "--scale"},
    "report": set(),
}

# Config-file key for each flag, with a value both accept (as documented in the README).
FLAG_KEYS = {
    "--x": ("x", "1000"),
    "--Q": ("q", "100"),
    "--B": ("b_exp", "1.5"),
    "--R": ("r", "10"),
    "--G": ("g_exp", "2"),
    "--N": ("n_shift", "3"),
    "--v": ("v_list", "1,2,6"),
    "--cutoff": ("prime_cutoff", "1000"),
    "--q-low": ("q_low", "auto"),
    "--weight": ("weight", "psi"),
    "--threads": ("threads", "2"),
    "--scale": ("scale", "quick"),
    "--out": ("output_dir", "somewhere"),
    "--format": ("format", "json"),
}


def test_config_keys_are_field_names_and_flags_are_unchanged():
    text = "command = vaughan\n" + "".join(f"{key} = {val}\n" for key, val in FLAG_KEYS.values())
    cfg = config_from_text(text)
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {"command", *(k for k, _ in FLAG_KEYS.values())}
    assert cfg == ExperimentConfig(
        command="vaughan", x=1000, q=100, b_exp=1.5, r=10.0, g_exp=2.0, n_shift=3, v_list=[1, 2, 6],
        prime_cutoff=1000, q_low="auto", weight="psi", threads=2, scale="quick", output_dir="somewhere", format="json",
    )
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        flags = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == SUBCOMMAND_FLAGS[name], name
        for flag in flags - {"--config"}:
            key, val = FLAG_KEYS[flag]
            from_flag = cli._config_from_args(parser.parse_args([name, flag, val]))
            assert from_flag == dataclasses.replace(config_from_text(f"{key} = {val}\n"), command=name), flag
    assert set(subparsers.choices) == set(SUBCOMMAND_FLAGS)
