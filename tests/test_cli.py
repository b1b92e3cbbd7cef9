"""Command-line surface: exit codes, provenance headers, output formats,
parsing and figure-data generation."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vacfilter
from vacfilter import cli, fock
from vacfilter.cli import main

# minimal schema for the JSON output envelope
JSON_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "provenance", "columns", "rows"],
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "provenance": {
            "type": "object",
            "required": ["tool", "version", "command", "conventions"],
        },
        "columns": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array"},
    },
}


SRC = Path(vacfilter.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
# Oracle command outputs without the provenance command line, recorded with one
# BLAS thread (conftest.py) while fock.py still carried density operators.
ORACLE_GOLDEN = json.loads((DATA / "oracle_golden.json").read_text())["cases"]
# qkd command outputs, CSV and JSON, without the provenance command line;
# recorded while the key-rate kernel was still one function, _key_rate_grid.
QKD_GOLDEN = json.loads((DATA / "qkd_golden.json").read_text())["cases"]
# marginal (without and with each detector kind) and figures fig3 outputs, CSV
# and JSON, without the provenance command line; recorded while amplitudes
# were still complex and the posterior was a PostFilterMixture.
SIGNAL_GOLDEN = json.loads((DATA / "signal_golden.json").read_text())["cases"]
# sha256 of simulate's JSON output without the provenance command line, every
# detector kind at 1 and 2 workers over four blocks; recorded while simulate
# still binned every trial's verification quadrature.
SIMULATE_GOLDEN = json.loads((DATA / "simulate_golden.json").read_text())["cases"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def without_command_line(text):
    """Command output without its provenance command line (CSV or JSON)."""
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.lstrip().startswith(("# command:", '"command":')))


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    return rows[0], rows[1:]


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, ["error", "--detector", "ideal"])
        assert code == 0
        assert "error_probability" in out

    def test_validation_error(self, capsys):
        code, _, err = run_cli(capsys, ["acceptance", "--detector", "apd",
                                        "--eta", "2.0", "--grid", "0:1:0.5"])
        assert code == 2
        assert "error" in err

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                        "--grid", "nope"])
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["acceptance", "--detector", "ideal", "--grid=-1:1:0.5"], "must be >= 0"),
        (["gain", "--detector", "ideal", "--p", "0.5", "--grid=-1:1:0.5"], "must be >= 0"),
        (["marginal", "--p", "0.3", "--alpha-sq", "2", "--x", "0:inf:1"], "bad grid"),
        (["acceptance", "--detector", "ideal", "--grid", "0:nan:1"], "bad grid"),
        (["acceptance", "--detector", "ideal", "--grid", "0:1:inf"], "bad grid"),
    ])
    def test_negative_or_non_finite_grid_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["acceptance", "--detector", "ideal", "--grid", "0:1:1e-9"],
        ["marginal", "--p", "0.3", "--alpha-sq", "2", "--x", "0:1:1e-9"],
        ["acceptance", "--detector", "ideal", "--grid=-1e308:1e308:1e-300"],
    ])
    def test_grid_with_too_many_points_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"has more than {cli.MAX_GRID_POINTS} points" in err

    @pytest.mark.parametrize("argv, message", [
        (["error", "--detector", "apd"], "error: APD needs --eta\n"),
        (["error", "--detector", "hds"], "error: homodyne detector needs --eta\n"),
        (["error", "--detector", "hds", "--eta", "0.9"],
         "error: homodyne detector needs --threshold or --match-error\n"),
        (["qkd", "keyrate", "--p", "0.5", "--tap", "0.3"],
         "error: filtered scenario needs --eta (or pass --no-filter)\n"),
    ], ids=["apd-eta", "hds-eta", "hds-threshold", "keyrate-eta"])
    def test_missing_detector_parameter_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == message

    def test_exhausted_bisection_exits_3(self, capsys):
        code, out, err = run_cli(capsys, ["qkd", "pmin", "--no-filter", "--precision", "1e-300"])
        assert code == 3
        assert out == ""
        assert err == "numerical failure: bisection budget exhausted before reaching precision\n"

    def test_grid_point_limit_is_inclusive(self):
        assert len(cli._parse_grid("0:0.999999:1e-6")) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid("0:1:1e-6")

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                          "--grid", "0:1:0.5", "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot open --out {str(path)!r}: No such file or directory\n"

    def test_unwritable_out_path_fails_before_the_handler(self, capsys, monkeypatch):
        calls = []
        _, help_text, arguments = cli.COMMANDS["oracle noclick"]
        monkeypatch.setitem(cli.COMMANDS, "oracle noclick",
                            (calls.append, help_text, arguments))
        path = "/nonexistent/dir/x.csv"
        code, out, err = run_cli(capsys, ["oracle", "noclick", "--out", path])
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: cannot open --out {path!r}: No such file or directory\n"

    def test_unwritable_default_figure_file_fails_before_the_handler(self, capsys, tmp_path,
                                                                     monkeypatch):
        calls = []
        _, help_text, arguments = cli.COMMANDS["figures"]
        monkeypatch.setitem(cli.COMMANDS, "figures", (calls.append, help_text, arguments))
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()  # fig3.csv cannot be created in a removed working directory
        code, out, err = run_cli(capsys, ["figures", "fig3", "--trials", "2000000"])
        assert (code, out, calls) == (2, "", [])
        assert err == ("error: cannot open default output file 'fig3.csv': "
                       "No such file or directory\n")

    def test_failed_run_leaves_an_existing_out_file_alone(self, capsys, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier output\n")
        code, _, err = run_cli(capsys, ["simulate", "--detector", "ideal", "--p", "0.5",
                                        "--alpha-sq", "1", "--trials", "0", "--out", str(kept)])
        assert code == 2 and "need at least one trial" in err
        assert kept.read_text() == "earlier output\n"

    def test_out_file_replaced_whole(self, capsys, tmp_path):
        fresh, stale = tmp_path / "fresh.csv", tmp_path / "stale.csv"
        stale.write_text("x" * 100_000)
        for path in (fresh, stale):
            assert run_cli(capsys, ["acceptance", "--detector", "ideal", "--grid", "0:1:0.5",
                                    "--out", str(path)])[0] == 0
        assert stale.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["acceptance", "--detector", "ideal", "--grid", "0:1:0.5"],
        ["simulate", "--detector", "hdr", "--eta", "0.8", "--threshold", "0.4", "--p", "0.5",
         "--alpha-sq", "1", "--trials", "1000", "--format", "json"],
        ["figures", "fig4", "--trials", "1000"],
        ["simulate", "--detector", "ideal", "--p", "0.5", "--alpha-sq", "1", "--trials", "0"],
    ], ids=["table", "simulate", "figures", "failing"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_out_opened_once_and_never_truncated_to_zero(self, capsys, tmp_path, monkeypatch,
                                                         argv, existing):
        path = tmp_path / "out.csv"
        if existing:
            path.write_text("x" * 100_000)
        opened = []
        real_open = os.open

        def recording(file, flags, *args, **kwargs):
            if os.fspath(file) == str(path):
                opened.append(flags)
            return real_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        run_cli(capsys, [*argv, "--out", str(path)])
        assert len(opened) == 1
        assert opened[0] & os.O_TRUNC == 0

    def test_out_dev_null(self, capsys):
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                          "--grid", "0:1:0.5", "--out", os.devnull])
        assert (code, out, err) == (0, "", "")
        assert Path(os.devnull).is_char_device()

    def test_out_dev_stdout_appends_where_stdout_appends(self, tmp_path):
        log = tmp_path / "log.txt"
        log.write_text("a\nb\n")
        argv = ["error", "--detector", "apd", "--eta", "0.6", "--pd", "1e-3"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log, "a") as stdout:
            proc = subprocess.run([sys.executable, "-m", "vacfilter.cli", *argv,
                                   "--out", "/dev/stdout"], stdout=stdout, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        text = log.read_text()
        assert text.startswith("a\nb\n# vacfilter ")
        assert parse_csv(text[4:]) == (["detector", "error_probability"], [["apd", "0.001"]])

    def test_symlinked_out_rewrites_its_target(self, capsys, tmp_path):
        fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link"
        target.write_text("x" * 100_000)
        link.symlink_to(target)
        for path in (fresh, link):
            assert run_cli(capsys, ["acceptance", "--detector", "ideal", "--grid", "0:1:0.5",
                                    "--out", str(path)])[0] == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--detector", "ideal", "--p", "0.5", "--alpha-sq", "1", "--trials", "0"],
        ["figures", "fig4", "--trials", "0"],
        *(["figures", which, "--trials", "0"] for which in ("fig5a", "fig5b", "fig5c")),
        *(["figures", which, "--workers", "0"] for which in ("fig4", "fig5a", "fig5c")),
    ])
    def test_zero_trials_rejected(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert f"need at least one {'worker' if '--workers' in argv else 'trial'}" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["qkd", "pmin", "--no-filter", "--precision", "nan"],
        ["qkd", "keyrate", "--no-filter", "--V", "nan"],
        ["qkd", "keyrate", "--no-filter", "--V", "inf"],
        ["qkd", "keyrate", "--eta", "0.63", "--pd", "5e-3", "--V", "inf"],
    ])
    def test_nan_security_parameters_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        rule = "precision must lie in (0, 1)" if "--precision" in argv else \
            "squeezing variance must lie in [1, 10000]"
        assert f"error: {rule}, got {argv[-1]}" in err

    def test_nan_prep_error_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["simulate", "--detector", "ideal", "--p", "0.5",
                                          "--alpha-sq", "1", "--trials", "1000",
                                          "--prep-error", "nan", "--format", "json"])
        assert code == 2
        assert out == ""
        assert "prep_error" in err

    def test_infinite_prep_error_rejected(self, capsys):
        # an infinite verification quadrature has no histogram bin
        code, out, err = run_cli(capsys, ["simulate", "--detector", "ideal", "--p", "0.5",
                                          "--alpha-sq", "1", "--trials", "1000",
                                          "--prep-error", "inf"])
        assert code == 2
        assert out == ""
        assert err == "error: prep_error is an amplitude magnitude, must be finite and >= 0\n"

    def test_numerical_failure(self, capsys):
        # V = 1 with an ideal filter: the tap never clicks
        code, _, err = run_cli(capsys, ["qkd", "keyrate", "--V", "1.0", "--p", "1.0",
                                        "--tap", "0.5", "--eta", "1.0", "--pd", "0"])
        assert code == 3
        assert "numerical" in err


class TestProvenanceAndFormats:
    def test_csv_header_carries_provenance(self, capsys):
        code, out, _ = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                        "--grid", "0:1:0.5", "--seed", "99"])
        assert code == 0
        assert "# vacfilter" in out
        assert "# seed: 99" in out
        assert "# conventions:" in out

    def test_json_round_trips_schema(self, capsys):
        import jsonschema

        code, out, _ = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                        "--grid", "0:1:0.5", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, JSON_SCHEMA)
        assert payload["columns"] == ["R_alpha_sq", "P_accept"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                        "--grid", "0:1:0.5", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text().count("\n") >= 4


class TestGainCommand:
    @pytest.mark.parametrize("argv", [
        *(["--detector", "apd", "--eta", "0.9", "--pd", "1e-7", "--p", p]
          for p in ("1e-4", "1e-5", "1e-6")),
        ["--detector", "hds", "--eta", "0.9", "--match-error", "1e-9", "--p", "1e-4"],
    ])
    def test_small_p_tables_are_consistent(self, capsys, argv):
        code, out, err = run_cli(capsys, ["gain", *argv, "--grid", "0.05:1.65:0.01"])
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert header == ["R_alpha_sq", "P_accept", "P_S", "G"] and len(rows) == 161
        p = float(argv[-1])
        for _, p_acc, p_s, g in (map(float, row) for row in rows):
            assert g == pytest.approx(p_acc / p_s, rel=1e-12)
            assert g <= 1.0 / p


class TestSensitivityCommand:
    @pytest.mark.parametrize("argv", [
        ["--detector", "ideal", "--tap", "0.3"],
        ["--detector", "apd", "--eta", "1", "--pd", "0.005", "--tap", "0.5"],
        ["--detector", "apd", "--eta", "0.8", "--pd", "0.999999", "--tap", "0.5"],
        ["--detector", "hds", "--eta", "0.84", "--match-error", "5.3e-3", "--tap", "0.7"],
        ["--detector", "hdr", "--eta", "0.84", "--match-error", "1e-12", "--tap", "0.1"],
    ], ids=["ideal", "apd", "apd-pd-0.999999", "hds", "hdr-E-1e-12"])
    def test_s_is_the_closed_form_in_both_columns(self, capsys, argv):
        code, out, err = run_cli(capsys, ["sensitivity", *argv])
        assert (code, err) == (0, "")
        header, [row] = parse_csv(out)
        assert header == ["detector", "tap_reflectivity", "S", "S_over_R", "S_analytic"]
        assert row[2] == row[4]
        assert float(row[3]) == float(row[2]) / float(row[1])
        assert float(row[2]) > 0.0

    def test_full_error_homodyne_prints_positive_zero(self, capsys):
        code, out, err = run_cli(capsys, ["sensitivity", "--detector", "hds", "--eta", "0.8",
                                          "--match-error", "1", "--tap", "0.5"])
        assert (code, err) == (0, "")
        assert parse_csv(out)[1] == [["hds", "0.5", "0.0", "0.0", "0.0"]]


class TestAcceptanceCommand:
    def test_ideal_reduction(self, capsys):
        code, out, _ = run_cli(capsys, ["acceptance", "--detector", "apd",
                                        "--eta", "1", "--pd", "0", "--grid", "0:1.65:0.55"])
        header, rows = parse_csv(out)
        for n_str, p_str in rows:
            n = float(n_str)
            assert float(p_str) == pytest.approx(1 - math.exp(-n), rel=1e-10)

    def test_matched_error_trio(self, capsys):
        code, out, _ = run_cli(capsys, ["acceptance", "--matched-error", "5.3e-3",
                                        "--grid", "0:1.65:0.165"])
        header, rows = parse_csv(out)
        assert header == ["R_alpha_sq", "P_apd", "P_hds", "P_hdr"]
        for _, pa, ps, pr in rows:
            assert float(pa) >= float(ps) - 1e-12 >= float(pr) - 2e-12


class TestGridFlags:
    # with no dark counts P_S = 0 at R|alpha|^2 = 0, where the gain is undefined
    @pytest.mark.parametrize("detector", [["ideal"], ["apd", "--eta", "0.63"]],
                             ids=["ideal", "apd-without-pd"])
    def test_gain_default_grid_has_positive_success_probability(self, capsys, detector):
        code, out, err = run_cli(capsys, ["gain", "--detector", *detector, "--p", "0.02"])
        assert code == 0, err
        header, rows = parse_csv(out)
        assert float(rows[0][0]) == 0.05 and float(rows[-1][0]) == 1.65
        assert all(float(row[header.index("P_S")]) > 0.0 for row in rows)

    def test_negative_grid_start_in_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["marginal", "--help"])
        assert "--x=-1:2:0.25" in capsys.readouterr().out
        code, out, err = run_cli(capsys, ["marginal", "--p", "0.3", "--alpha-sq", "2",
                                          "--x=-1:2:0.25"])
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [float(rows[0][0]), float(rows[-1][0]), len(rows)] == [-1.0, 2.0, 13]

    def test_step_that_does_not_divide_the_span_is_rounded(self, capsys):
        # linspace(start, stop, round((stop - start) / step) + 1): 1 / 0.3 rounds to 3 steps
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                          "--grid", "0:1:0.3"])
        assert code == 0, err
        _, rows = parse_csv(out)
        assert [float(row[0]) for row in rows] == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0],
                                                                abs=1e-15)


class TestSimulateCommand:
    def test_frozen_columns(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--detector", "apd", "--eta", "0.63", "--pd", "1.4e-4",
            "--p", "0.5", "--alpha-sq", "3.3", "--tap", "0.5",
            "--trials", "20000", "--seed", "7",
        ])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["detector", "R_alpha_sq", "P_accept", "stderr", "E", "P_S", "G"]
        assert len(rows) == 1
        assert rows[0][0] == "apd"
        assert float(rows[0][1]) == pytest.approx(1.65)

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ["simulate", "--detector", "hdr", "--eta", "0.84",
                "--match-error", "5.3e-3", "--p", "0.3", "--alpha-sq", "2.0",
                "--trials", "30000", "--seed", "11"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv + ["--workers", "4"])
        strip = lambda t: [ln for ln in t.splitlines() if not ln.startswith("#")]
        assert strip(out1) == strip(out2)

    @pytest.mark.parametrize("case", SIMULATE_GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_output_bytes_pinned(self, capsys, case):
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        assert hashlib.sha256(without_command_line(out).encode()).hexdigest() == case["sha256"]


class TestQkdCommands:
    def test_keyrate_no_filter(self, capsys):
        code, out, _ = run_cli(capsys, ["qkd", "keyrate", "--V", "1.1", "--p", "1",
                                        "--no-filter", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        k = payload["rows"][0][0]
        assert k > 0.0

    def test_pmin_bounded_below_by_the_floor(self, capsys):
        # a lossless filter without dark counts keeps the bound positive at the floor
        code, out, err = run_cli(capsys, ["qkd", "pmin", "--eta", "1", "--pd", "0",
                                          "--format", "json"])
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["p_min"], payload["bounded_below"]) == (0.001, True)
        assert [row[0] for row in payload["rows"]] == [0.001]

    def test_pmin_no_filter(self, capsys):
        code, out, _ = run_cli(capsys, ["qkd", "pmin", "--no-filter",
                                        "--precision", "5e-3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["p_min"] == pytest.approx(0.87, abs=0.01)
        assert payload["bounded_below"] is False
        assert len(payload["rows"]) > 3  # optimizer trace

    def test_keyrate_with_filter_and_optimize(self, capsys):
        code, out, _ = run_cli(capsys, ["qkd", "keyrate", "--p", "0.5",
                                        "--eta", "0.63", "--pd", "0.005",
                                        "--optimize", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["K_lower"] > 0.0
        assert 0.0 < row["T"] < 1.0

    @pytest.mark.parametrize("argv", [
        ["qkd", "keyrate", "--V", "1.3", "--p", "0.5", "--no-filter"],
        ["qkd", "keyrate", "--V", "1.3", "--p", "0.5", "--eta", "0.63", "--pd", "5e-4"],
        ["qkd", "keyrate", "--optimize", "--p", "0.5", "--eta", "0.63", "--pd", "5e-4"],
        ["qkd", "keyrate", "--optimize", "--p", "0.95", "--no-filter"],
        ["qkd", "pmin", "--eta", "0.63", "--pd", "5e-4"],
        ["qkd", "pmin", "--no-filter"],
    ], ids=["single", "single-filtered", "optimize", "optimize-unfiltered", "pmin",
            "pmin-unfiltered"])
    def test_commands_run_without_the_reference_evaluator(self, capsys, no_reference_evaluator,
                                                          argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("case", QKD_GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_output_bytes_pinned(self, capsys, case):
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        assert without_command_line(out) == case["output"]


class TestOracleCommand:
    def test_noclick_check(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "noclick", "--V", "1.1",
                                        "--tap", "0.5", "--eta", "0.63",
                                        "--pd", "0.005", "--nmax", "25"])
        assert code == 0
        header, rows = parse_csv(out)
        values = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        fockp, gaussp = values["noclick_prob_fock"]
        assert fockp == pytest.approx(gaussp, abs=1e-9)
        assert values["max_cm_deviation"][0] < 1e-9

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "coherent", "--alpha", "nan"], "must be finite"),
        (["oracle", "beamsplitter", "--alpha", "nan", "--tap", "0.3"], "must be finite"),
        (["oracle", "noclick", "--V", "nan"], "variance must be >= 1"),
        (["oracle", "noclick", "--V", "inf"], "variance must be >= 1 and finite, got inf"),
        (["oracle", "noclick", "--pd", "1.5"], "--pd is a dark-count probability"),
        (["oracle", "beamsplitter", "--tap", "1.5"], "--tap is a reflectivity, must lie in"),
        (["oracle", "noclick", "--tap", "-0.5"], "--tap is a reflectivity, must lie in"),
        (["oracle", "noclick", "--eta", "0"], "--eta is a detector efficiency"),
        (["oracle", "noclick", "--pd", "1"], "--pd is a dark-count probability"),
        (["oracle", "coherent", "--nmax", "-1", "--alpha", "0"],
         "--nmax must lie in [0, 100], got -1"),
        (["oracle", "noclick", "--nmax", "100000"], "--nmax must lie in [0, 100], got 100000"),
        (["oracle", "beamsplitter", "--nmax", "101"], "--nmax must lie in [0, 100], got 101"),
    ], ids=["coherent", "beamsplitter", "noclick-V", "noclick-V-inf", "noclick-pd",
            "beamsplitter-tap", "noclick-tap", "noclick-eta-0", "noclick-pd-1",
            "coherent-nmax-negative", "noclick-nmax-huge", "beamsplitter-nmax-101"])
    def test_bad_inputs_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, flag", [
        (["coherent", "--alpha", "1e200"], "--alpha"),
        (["beamsplitter", "--alpha", "1e200"], "--alpha"),
        (["coherent", "--alpha", "100", "--nmax", "10"], "--alpha"),
        (["noclick", "--V", "1e6", "--nmax", "10"], "--V"),
    ], ids=["coherent-alpha-1e200", "beamsplitter-alpha-1e200", "coherent-alpha-100",
            "noclick-V-1e6"])
    def test_states_too_wide_for_the_cutoff_exit_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, ["oracle", *argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} does not fit --nmax ")

    def test_nmax_checked_before_any_state_is_built(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a Fock state was built")

        for name in ("vacuum_state", "coherent_state", "tmsv_state"):
            monkeypatch.setattr(fock, name, never)
        for command in ("coherent", "beamsplitter", "noclick"):
            code, _, err = run_cli(capsys, ["oracle", command, "--nmax", "100000"])
            assert code == 2
            assert "--nmax must lie in" in err

    @pytest.mark.parametrize("argv, message", [
        (["--eta", "0"], "--eta is a detector efficiency, must lie in (0, 1], got 0.0"),
        (["--eta", "1.5"], "--eta is a detector efficiency, must lie in (0, 1], got 1.5"),
        (["--pd", "1"], "--pd is a dark-count probability, must lie in [0, 1), got 1.0"),
    ], ids=["eta-0", "eta-1.5", "pd-1"])
    def test_noclick_detector_checked_before_any_state_is_built(self, capsys, monkeypatch,
                                                                argv, message):
        def never(*args, **kwargs):
            raise AssertionError("a Fock state was built")

        monkeypatch.setattr(fock, "tmsv_state", never)
        code, out, err = run_cli(capsys, ["oracle", "noclick", "--nmax", "100", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["noclick", "--V", "0.5"],
         "--V: two-mode squeezing variance must be >= 1 and finite, got 0.5"),
        (["noclick", "--V", "inf"],
         "--V: two-mode squeezing variance must be >= 1 and finite, got inf"),
        (["coherent", "--alpha", "nan"], "--alpha: coherent amplitude must be finite, got nan"),
        (["beamsplitter", "--alpha=-inf"],
         "--alpha: coherent amplitude must be finite, got -inf"),
    ], ids=["noclick-V-0.5", "noclick-V-inf", "coherent-alpha-nan", "beamsplitter-alpha-inf"])
    def test_state_parameters_checked_before_any_state_is_built(self, capsys, monkeypatch,
                                                                argv, message):
        def never(*args, **kwargs):
            raise AssertionError("a Fock state was built")

        for name in ("vacuum_state", "coherent_state", "tmsv_state"):
            monkeypatch.setattr(fock, name, never)
        code, out, err = run_cli(capsys, ["oracle", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("n_max", [0, cli.MAX_NMAX])
    def test_nmax_bounds_are_inclusive(self, capsys, n_max):
        code, _, err = run_cli(capsys, ["oracle", "coherent", "--alpha", "0",
                                        "--nmax", str(n_max)])
        assert code == 0, err

    @pytest.mark.parametrize("case", ORACLE_GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_output_bytes_pinned(self, capsys, case):
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        assert without_command_line(out) == case["output"]

    def test_beamsplitter_check(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "beamsplitter", "--alpha", "1.0",
                                        "--tap", "0.3", "--nmax", "25"])
        header, rows = parse_csv(out)
        assert float(rows[0][1]) > 1 - 1e-9


class TestFigures:
    def test_fig4_and_fig5(self, capsys, tmp_path):
        for which in ("fig4", "fig5a", "fig5b", "fig5c"):
            path = tmp_path / f"{which}.csv"
            code, _, err = run_cli(capsys, ["figures", which, "--out", str(path),
                                            "--trials", "5000", "--seed", "3"])
            assert code == 0, err
            text = path.read_text()
            assert text.startswith("# vacfilter")
            _, rows = parse_csv(text)
            assert len(rows) > 10

    def test_fig4_bytes_pinned(self, capsys, tmp_path):
        # recorded before the 33 Monte-Carlo points shared one sweep
        path = tmp_path / "fig4.csv"
        code, _, err = run_cli(capsys, ["figures", "fig4", "--out", str(path),
                                        "--trials", "20000", "--seed", "7"])
        assert code == 0, err
        kept = [ln for ln in path.read_text().splitlines(keepends=True)
                if not ln.startswith("#") or ln.startswith("# mc_points:")]
        assert "".join(kept) == (DATA / "fig4_seed7_trials20000.csv").read_text()

    def test_fig4_bit_identical_across_worker_counts(self, capsys, tmp_path):
        texts = []
        for workers in ("1", "2"):  # the default 200,000 trials span four blocks
            path = tmp_path / f"fig4-w{workers}.csv"
            code, _, err = run_cli(capsys, ["figures", "fig4", "--out", str(path),
                                            "--seed", "11", "--workers", workers])
            assert code == 0, err
            texts.append([ln for ln in path.read_text().splitlines()
                          if not ln.startswith("# command:")])
        assert texts[0] == texts[1]

    def test_fig3(self, capsys, tmp_path):
        path = tmp_path / "fig3.csv"
        code, _, err = run_cli(capsys, ["figures", "fig3", "--out", str(path),
                                        "--trials", "20000", "--seed", "3"])
        assert code == 0, err
        header, rows = parse_csv(path.read_text())
        assert "theory_filtered_apd_ideal" in header
        assert "mc_count_filtered" in header
        assert len(rows) == 80  # histogram bins

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_file_name_follows_format(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, ["figures", "fig5a", "--format", fmt])
        assert code == 0, err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig5a.{fmt}"]
        text = (tmp_path / f"fig5a.{fmt}").read_text()
        if fmt == "json":
            assert json.loads(text)["columns"][0] == "E"
        else:
            assert parse_csv(text)[0][0] == "E"

    def test_fig_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            run_cli(capsys, ["figures", "fig3", "--out", str(p),
                             "--trials", "10000", "--seed", "21"])
        strip = lambda t: [ln for ln in t.splitlines() if not ln.startswith("#")]
        assert strip(p1.read_text()) == strip(p2.read_text())


class TestSignalOutputs:
    @pytest.mark.parametrize("case", SIGNAL_GOLDEN, ids=lambda c: " ".join(c["argv"]))
    def test_output_bytes_pinned(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)  # figures writes its default file here
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        if case["argv"][0] == "figures":
            assert out == ""
            out = (tmp_path / f"{case['argv'][1]}.{case['argv'][-1]}").read_text()
        assert without_command_line(out) == case["output"]


@pytest.mark.usefixtures("wide_guard")
class TestWideCuts:
    """The pinned Monte-Carlo outputs with most trials decided by their
    computed tap quadrature instead of a cut."""

    @pytest.mark.parametrize("case", SIMULATE_GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_simulate_bytes(self, capsys, case):
        code, out, err = run_cli(capsys, case["argv"])
        assert code == 0, err
        assert hashlib.sha256(without_command_line(out).encode()).hexdigest() == case["sha256"]

    def test_fig4_bytes(self, capsys, tmp_path):
        path = tmp_path / "fig4.csv"
        code, _, err = run_cli(capsys, ["figures", "fig4", "--out", str(path),
                                        "--trials", "20000", "--seed", "7"])
        assert code == 0, err
        kept = [ln for ln in path.read_text().splitlines(keepends=True)
                if not ln.startswith("#") or ln.startswith("# mc_points:")]
        assert "".join(kept) == (DATA / "fig4_seed7_trials20000.csv").read_text()

    @pytest.mark.parametrize("case", [c for c in SIGNAL_GOLDEN if c["argv"][1:2] == ["fig3"]],
                             ids=lambda c: c["argv"][-1])
    def test_fig3_bytes(self, capsys, tmp_path, case):
        path = tmp_path / "fig3.out"
        code, _, err = run_cli(capsys, [*case["argv"], "--out", str(path)])
        assert code == 0, err
        assert without_command_line(path.read_text()) == case["output"]


class TestQkdPrefactor:
    def test_p_ps_scales_the_optimized_rate(self, capsys):
        argv = ["qkd", "keyrate", "--optimize", "--p", "0.5", "--eta", "0.63", "--pd", "5e-4",
                "--format", "json"]
        rows = {}
        for prefactor in ("ps", "p_ps"):
            code, out, err = run_cli(capsys, [*argv, "--prefactor", prefactor])
            assert code == 0, err
            rows[prefactor] = dict(zip(json.loads(out)["columns"], json.loads(out)["rows"][0]))
        ps, p_ps = rows["ps"], rows["p_ps"]
        assert (p_ps["V"], p_ps["T"]) == (ps["V"], ps["T"])
        assert p_ps["P_S"] == ps["P_S"]
        assert p_ps["multiplier"] == pytest.approx(0.5 * p_ps["P_S"], rel=1e-12)
        assert p_ps["K_lower"] == pytest.approx(0.5 * ps["K_lower"], rel=1e-12)

    def test_p_ps_scales_a_single_evaluation(self, capsys):
        argv = ["qkd", "keyrate", "--V", "1.1", "--p", "0.5", "--eta", "0.63", "--pd", "5e-4",
                "--format", "json"]
        rows = {}
        for prefactor in ("ps", "p_ps"):
            code, out, err = run_cli(capsys, [*argv, "--prefactor", prefactor])
            assert code == 0, err
            rows[prefactor] = dict(zip(json.loads(out)["columns"], json.loads(out)["rows"][0]))
        assert rows["p_ps"]["multiplier"] == pytest.approx(0.5 * rows["ps"]["multiplier"], rel=1e-12)


UNREAD_FLAGS = [
    ["acceptance", "--detector", "ideal", "--grid", "0:1:0.5", "--workers", "2"],
    ["acceptance", "--detector", "ideal", "--grid", "0:1:0.5", "--trials", "3"],
    ["qkd", "pmin", "--no-filter", "--V", "2"],
    ["qkd", "pmin", "--no-filter", "--p", "0.5"],
    ["qkd", "pmin", "--no-filter", "--prefactor", "ps"],
    ["qkd", "pmin", "--eta", "0.63", "--pd", "5e-3", "--tap", "0.3"],
    ["oracle", "coherent", "--V", "3"],
    ["oracle", "beamsplitter", "--eta", "0.2"],
    ["oracle", "noclick", "--alpha", "2"],
]

# One command line per subcommand that has a handler.
LEAF_ARGV = {
    "acceptance": ["acceptance", "--matched-error", "0.01", "--grid", "0:1:0.5"],
    "error": ["error", "--detector", "hds", "--eta", "0.8", "--threshold", "1"],
    "sensitivity": ["sensitivity", "--detector", "apd", "--eta", "0.6", "--tap", "0.3"],
    "gain": ["gain", "--detector", "hdr", "--eta", "0.8", "--match-error", "0.01", "--p", "0.1",
             "--format", "json"],
    "simulate": ["simulate", "--detector", "apd", "--eta", "0.6", "--p", "0.5", "--alpha-sq", "2",
                 "--error-target", "0.02", "--trials", "1000", "--workers", "2"],
    "marginal": ["marginal", "--p", "0.2", "--alpha-sq", "2", "--x=-1:2:0.25"],
    "figures": ["figures", "fig4", "--trials", "5000", "--seed", "3", "--out", "f.csv"],
    "qkd keyrate": ["qkd", "keyrate", "--optimize", "--eta", "0.63", "--pd", "5e-4",
                    "--prefactor", "p_ps"],
    "qkd pmin": ["qkd", "pmin", "--no-filter", "--precision", "1e-4"],
    "oracle coherent": ["oracle", "coherent", "--alpha", "0.5"],
    "oracle beamsplitter": ["oracle", "beamsplitter", "--tap", "0.3", "--nmax", "12"],
    "oracle noclick": ["oracle", "noclick", "--V", "1.5", "--eta", "0.9"],
}


# A typed value for every flag that CONFLICTS and DETECTOR_READS name, and the
# flags a subcommand requires before it parses.
FLAG_ARGV = {
    "matched_error": ["--matched-error", "0.01"], "detector": ["--detector", "hds"],
    "eta": ["--eta", "0.5"], "pd": ["--pd", "0.1"], "threshold": ["--threshold", "1"],
    "match_error": ["--match-error", "0.01"], "efficiency_model": ["--efficiency-model", "sqrt"],
    "error_target": ["--error-target", "0.02"], "prep_error": ["--prep-error", "0.2"],
    "no_filter": ["--no-filter"], "optimize": ["--optimize"], "V": ["--V", "1.5"],
    "tap": ["--tap", "0.3"], "prefactor": ["--prefactor", "p_ps"],
}
REQUIRED_ARGV = {"gain": ["--p", "0.1"], "simulate": ["--p", "0.5", "--alpha-sq", "1"],
                 "marginal": ["--p", "0.5", "--alpha-sq", "1"]}
# Every (subcommand, flag, flag it overrides, message) of the conflict table.
CONFLICT_PAIRS = [pytest.param(name, dest, other, message, id=f"{name}-{dest}-{other}")
                  for name, rules in cli.CONFLICTS.items()
                  for flags, overridden, message in rules
                  for dest in flags for other in overridden]
# Every (--detector kind, detector flag it does not read); None is no --detector.
UNREAD_DETECTOR_FLAGS = [(kind, dest) for kind, reads in cli.DETECTOR_READS.items()
                         for dest in cli._DETECTOR_KEYS[1:] if dest not in reads]


class TestCommandSurface:
    @pytest.mark.parametrize("argv", UNREAD_FLAGS)
    def test_flags_the_handler_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_every_subcommand_has_a_representative_command_line(self):
        assert set(LEAF_ARGV) == {name for name, (func, _, _) in cli.COMMANDS.items() if func}

    @pytest.mark.parametrize("name", sorted(LEAF_ARGV))
    def test_handler_returns_its_table_and_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                          name):
        monkeypatch.chdir(tmp_path)  # the figures command line names f.csv
        args = cli.build_parser().parse_args(LEAF_ARGV[name])
        table = cli.COMMANDS[name][0](args)
        assert isinstance(table, tuple) and len(table) in (2, 3)
        columns, rows, *extras = table
        assert rows and all(len(row) == len(columns) for row in rows)
        assert all(isinstance(extra, dict) and extra for extra in extras)
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(LEAF_ARGV))
    @pytest.mark.parametrize("cached", [False, True])  # True: the parser main parses with
    def test_one_parser_names_every_subcommand_it_parses(self, name, cached):
        parser = cli._parser() if cached else cli.build_parser()
        args = parser.parse_args(LEAF_ARGV[name])
        assert args.leaf == name  # main dispatches and checks CONFLICTS on this name
        assert vars(args) == vars(cli.build_parser().parse_args(LEAF_ARGV[name]))
        other = "oracle coherent" if name == "error" else "error"
        assert parser.parse_args(LEAF_ARGV[other]).leaf == other  # the same parser, another leaf

    def test_every_conflict_table_key_is_a_subcommand_with_a_handler(self):
        # args.leaf only ever names a leaf; a rule under any other key never fires
        assert set(cli.CONFLICTS) <= set(LEAF_ARGV)

    @pytest.mark.parametrize("argv", [
        *UNREAD_FLAGS,
        ["qkd", "keyrate", "--bogus"],
        ["simulate", "--detector", "laser"],
        ["--help"], ["--version"], ["qkd"], ["qkd", "bogus"], ["bogus"], [],
        ["gain", "--detector", "ideal", "--p", "x"],
        ["gain", "--detector", "ideal", "--grid", "0:1:0.5", "--p"],
    ])
    def test_errors_and_help_match_the_full_tree(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            out = capsys.readouterr()
            return exc.value.code, out.out, out.err

        expected = outcome(cli.build_parser().parse_args)
        assert outcome(main) == expected
        assert outcome(main) == expected  # again, through the parser the first call built

    @pytest.mark.parametrize("argv", [
        ["simulate", "--detector", "ideal", "--p", "0.5", "--alpha-sq", "1", "--trials", "1000",
         "--prep-error", "0.3", "--error-target", "0.02"],
        ["acceptance", "--matched-error", "0.01", "--detector", "apd", "--eta", "0.5"],
        ["acceptance", "--matched-error", "0.01", "--threshold", "1.0"],
        ["qkd", "keyrate", "--no-filter", "--eta", "0.5", "--pd", "0.1"],
        ["qkd", "keyrate", "--no-filter", "--pd", "0"],
        ["qkd", "pmin", "--no-filter", "--eta", "0.63"],
        ["qkd", "keyrate", "--optimize", "--V", "1.5"],
        ["qkd", "keyrate", "--optimize", "--eta", "0.63", "--pd", "5e-4", "--tap", "0.3"],
        ["qkd", "keyrate", "--no-filter", "--tap", "0.3"],
        ["qkd", "keyrate", "--no-filter", "--prefactor", "p_ps"],
        *([*cmd, "--detector", "hds", "--eta", "0.9", "--threshold", "0.5",
           "--match-error", "0.01"]
          for cmd in (["acceptance"], ["error"], ["sensitivity"], ["gain", "--p", "0.1"],
                      ["simulate", "--p", "0.5", "--alpha-sq", "1", "--trials", "1000"],
                      ["marginal", "--p", "0.5", "--alpha-sq", "1"])),
    ])
    def test_flags_another_flag_overrides_are_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv, flag", [
        (["error", "--detector", "ideal", "--eta", "0.5", "--pd", "0.3"], "--eta"),
        (["error", "--detector", "apd", "--eta", "0.9", "--threshold", "0.5"], "--threshold"),
        (["error", "--detector", "hds", "--eta", "0.9", "--threshold", "0.5", "--pd", "0.1"],
         "--pd"),
        (["error", "--detector", "apd", "--eta", "0.9", "--efficiency-model", "sqrt"],
         "--efficiency-model"),
        (["marginal", "--p", "0.5", "--alpha-sq", "1", "--eta", "0.5"], "--eta"),
    ])
    def test_detector_flags_the_kind_does_not_read_are_rejected(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("name, dest, other, message", CONFLICT_PAIRS)
    def test_every_pair_of_the_conflict_table_is_rejected(self, capsys, name, dest, other,
                                                          message):
        argv = [*name.split(), *REQUIRED_ARGV.get(name, [])]
        code, out, err = run_cli(capsys, [*argv, *FLAG_ARGV[dest], *FLAG_ARGV[other]])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        parser = cli.build_parser()
        for one in (dest, other):  # either side alone passes the check
            cli._check_conflicts(parser.parse_args([*argv, *FLAG_ARGV[one]]))

    @pytest.mark.parametrize("kind, dest", UNREAD_DETECTOR_FLAGS)
    def test_every_flag_the_detector_table_leaves_unread_is_rejected(self, capsys, kind, dest):
        flag = "--" + dest.replace("_", "-")
        argv = ["marginal", *REQUIRED_ARGV["marginal"], *(["--detector", kind] if kind else []),
                *FLAG_ARGV[dest]]
        code, out, err = run_cli(capsys, argv)
        message = (f"--detector {kind} does not read {flag}; drop it" if kind
                   else f"{flag} is read only with --detector")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", list(cli.DETECTOR_READS))
    def test_every_flag_the_detector_table_reads_passes(self, kind):
        argv = ["marginal", *REQUIRED_ARGV["marginal"], *(["--detector", kind] if kind else []),
                *(token for dest in cli.DETECTOR_READS[kind] for token in FLAG_ARGV[dest])]
        cli._check_detector_flags(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["error"],
        ["simulate", "--p", "0.5", "--alpha-sq", "1", "--trials", "10"],
        ["acceptance", "--grid", "0:1:0.5"],
        ["sensitivity"],
        ["gain", "--p", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_a_missing_detector_is_named(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: --detector is required: one of ideal, apd, hds, hdr\n"

    def test_prep_error_defaults_to_zero(self, capsys):
        argv = ["simulate", "--detector", "ideal", "--p", "0.5", "--alpha-sq", "1",
                "--trials", "1000", "--format", "json"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert json.loads(out)["prep_error"] == 0.0
        code, out, err = run_cli(capsys, [*argv, "--error-target", "0.02"])
        assert code == 0, err
        assert json.loads(out)["prep_error"] > 0.0


def counting_build_parser(monkeypatch) -> list:
    """Empty the parser cache and record every parser built after it."""
    built, real = [], cli.build_parser

    def counting():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    return built


class TestParserReuse:
    @pytest.mark.parametrize("name", sorted(LEAF_ARGV))
    def test_second_call_reuses_the_parser_and_writes_the_same_bytes(self, capsys, tmp_path,
                                                                     monkeypatch, name):
        monkeypatch.chdir(tmp_path)  # the figures command line writes f.csv
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, LEAF_ARGV[name])
            assert code == 0, err
            files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            outputs.append((out, err, files))
        assert outputs[0] == outputs[1]

    def test_every_subcommand_parses_with_the_one_parser(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the figures command line writes f.csv
        built = counting_build_parser(monkeypatch)
        for name, argv in LEAF_ARGV.items():
            code, _, err = run_cli(capsys, argv)
            assert code == 0, (name, err)
        assert len(built) == 1

    def test_handler_swapped_in_after_the_parser_was_built_runs(self, capsys, monkeypatch):
        argv = LEAF_ARGV["error"]
        built = counting_build_parser(monkeypatch)
        code, out, err = run_cli(capsys, argv)
        assert (code, len(built)) == (0, 1), err
        assert "error_probability" in out
        seen = []
        _, help_text, arguments = cli.COMMANDS["error"]
        monkeypatch.setitem(cli.COMMANDS, "error",
                            (lambda args: seen.append(args) or (["stub"], [[7]]), help_text,
                             arguments))
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert parse_csv(out) == (["stub"], [["7"]])
        assert [(a.detector, a.threshold) for a in seen] == [("hds", 1.0)]
        assert len(built) == 1  # the second call parsed with the first call's parser


def test_vacfilter_config_in_the_environment_has_no_effect(tmp_path):
    """The command line alone sets a command's behaviour: a VACFILTER_CONFIG
    naming a missing or a malformed file changes no byte and no exit code."""
    malformed = tmp_path / "malformed.conf"
    malformed.write_text("seed 78\nbogus_key = 1\nformat = xml\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("VACFILTER_CONFIG", None)
    runs = []
    for config in ({}, {"VACFILTER_CONFIG": str(tmp_path / "missing.conf")},
                   {"VACFILTER_CONFIG": str(malformed)}):
        proc = subprocess.run([sys.executable, "-m", "vacfilter.cli", "acceptance",
                               "--detector", "apd", "--eta", "0.63", "--pd", "5e-4"],
                              env={**env, **config}, capture_output=True, text=True, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs == [runs[0]] * 3


SIMULATE_APD = ["simulate", "--detector", "apd", "--eta", "0.8", "--pd", "1e-3", "--p", "0.5",
                "--alpha-sq", "2", "--trials", "1000"]


class TestInputValidation:
    @pytest.mark.parametrize("extra, message", [
        (["--error-target", "1.5"], "stays below 1"),
        (["--error-target", "nan"], "must be finite"),
        (["--tap", "0", "--error-target", "0.01"], "tap reflectivity 0"),
    ], ids=["above-one", "nan", "dark-tap"])
    def test_unreachable_error_target(self, capsys, extra, message):
        code, out, err = run_cli(capsys, [*SIMULATE_APD, *extra])
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv", [
        [*SIMULATE_APD, "--alpha-sq", "-1"],
        ["marginal", "--p", "0.5", "--alpha-sq", "-1"],
        ["marginal", "--p", "0.5", "--alpha-sq", "nan"],
    ], ids=["simulate", "marginal", "marginal-nan"])
    def test_negative_alpha_sq_names_the_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "--alpha-sq" in err

    @pytest.mark.parametrize("argv", [
        [*SIMULATE_APD, "--seed", "-1"],
        [*SIMULATE_APD, "--seed", str(2 ** 64)],
        ["figures", "fig3", "--trials", "1000", "--seed", str(2 ** 64 - 1)],  # vacuum at seed + 1
        # no trials drawn: the seed is still recorded in the provenance
        ["error", "--detector", "ideal", "--seed", "-1"],
        ["acceptance", "--detector", "ideal", "--seed", str(2 ** 64)],
        ["qkd", "pmin", "--no-filter", "--seed", "-1"],
        ["figures", "fig5a", "--seed", "-1"],
    ], ids=["negative", "2^64", "fig3-vacuum-at-2^64", "error", "acceptance", "qkd-pmin",
            "fig5a"])
    def test_seed_outside_the_philox_key_is_rejected(self, capsys, tmp_path, argv):
        out_file = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, [*argv, "--out", str(out_file)])
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must lie in [0, 2^64)")
        if argv[:2] == ["figures", "fig3"]:  # the message names fig3's second run and the typed seed
            assert err == ("error: seed must lie in [0, 2^64), and below 2^64 - 1 for fig3, which "
                           f"runs its vacuum reference at --seed + 1; got {2 ** 64 - 1}\n")
        assert not out_file.exists()
