"""Command-line surface: exit codes, provenance headers, output formats,
config-file merging and figure-data generation."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vacfilter
from vacfilter import cli, fock, montecarlo
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
        env.pop("VACFILTER_CONFIG", None)
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
        (["oracle", "noclick", "--pd", "1.5"], "dark_prob must lie in [0, 1]"),
        (["oracle", "beamsplitter", "--tap", "1.5"], "--tap is a reflectivity, must lie in"),
        (["oracle", "noclick", "--tap", "-0.5"], "--tap is a reflectivity, must lie in"),
        (["oracle", "noclick", "--eta", "0"], "efficiency must lie in (0, 1]"),
        (["oracle", "noclick", "--pd", "1"], "zero-probability POVM outcome"),
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

    def test_nmax_checked_before_any_state_is_built(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a Fock state was built")

        for name in ("vacuum_state", "coherent_state", "tmsv_state"):
            monkeypatch.setattr(fock, name, never)
        for command in ("coherent", "beamsplitter", "noclick"):
            code, _, err = run_cli(capsys, ["oracle", command, "--nmax", "100000"])
            assert code == 2
            assert "--nmax must lie in" in err

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
        args = cli.build_parser(invoked=name).parse_args(LEAF_ARGV[name])
        table = cli.COMMANDS[name][0](args)
        assert isinstance(table, tuple) and len(table) in (2, 3)
        columns, rows, *extras = table
        assert rows and all(len(row) == len(columns) for row in rows)
        assert all(isinstance(extra, dict) and extra for extra in extras)
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(LEAF_ARGV))
    @pytest.mark.parametrize("typed_only", [False, True])
    def test_pruned_parser_parses_as_the_full_tree(self, name, typed_only):
        argv = LEAF_ARGV[name]
        pruned = cli.build_parser(typed_only=typed_only, invoked=name)
        full = cli.build_parser(typed_only=typed_only)
        assert vars(pruned.parse_args(argv)) == vars(full.parse_args(argv))
        other = ["oracle", "coherent"] if name == "error" else ["error"]  # parse in a full tree
        with pytest.raises(SystemExit):  # only the invoked subcommand is declared
            pruned.parse_args(other)

    @pytest.mark.parametrize("argv", [
        *UNREAD_FLAGS,
        ["qkd", "keyrate", "--bogus"],
        ["simulate", "--detector", "laser"],
        ["--help"], ["--version"], ["qkd"], ["qkd", "bogus"], ["bogus"], [],
    ])
    def test_errors_and_help_match_the_full_tree(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            out = capsys.readouterr()
            return exc.value.code, out.out, out.err

        expected = outcome(cli.build_parser().parse_args)
        assert outcome(main) == expected
        assert outcome(main) == expected  # again, through the parsers the first call built

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

    @pytest.mark.parametrize("argv", [
        ["error"],
        ["simulate", "--p", "0.5", "--alpha-sq", "1", "--trials", "10"],
        ["acceptance", "--grid", "0:1:0.5"],
        ["sensitivity"],
        ["gain", "--p", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_a_missing_detector_is_named(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
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
    """Empty the parser cache and record the ``invoked`` of every later build."""
    built, real = [], cli.build_parser

    def counting(*args, **kwargs):
        built.append(kwargs.get("invoked"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    return built


class TestParserReuse:
    def test_config_calls_reuse_both_parsers(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("seed = 123\ngrid = 0:1:0.5\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        built = counting_build_parser(monkeypatch)
        outputs = [run_cli(capsys, ["acceptance", "--detector", "apd", "--eta", "0.6"])
                   for _ in range(3)]
        assert outputs[0][0] == 0 and "# seed: 123" in outputs[0][1]
        assert outputs == [outputs[0]] * 3
        assert built == ["acceptance", "acceptance"]  # the typed-only twin and the parser

    @pytest.mark.parametrize("name", sorted(LEAF_ARGV))
    def test_second_call_reuses_the_parser_and_writes_the_same_bytes(self, capsys, tmp_path,
                                                                     monkeypatch, name):
        monkeypatch.chdir(tmp_path)  # the figures command line writes f.csv
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        built = counting_build_parser(monkeypatch)
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, LEAF_ARGV[name])
            assert code == 0, err
            files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            outputs.append((out, err, files))
        assert outputs[0] == outputs[1]
        assert built == [name]

    def test_handler_swapped_in_after_the_parser_was_built_runs(self, capsys, monkeypatch):
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        argv = LEAF_ARGV["error"]
        built = counting_build_parser(monkeypatch)
        code, out, err = run_cli(capsys, argv)
        assert (code, built) == (0, ["error"]), err
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
        assert built == ["error"]  # the second call parsed with the first call's parser

    def test_config_file_is_read_on_every_call(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        typed = ["acceptance", "--detector", "apd", "--eta", "0.6"]
        code, plain, err = run_cli(capsys, typed)
        assert code == 0, err
        assert "# seed: 2024" in plain
        assert parse_csv(plain)[0] == ["R_alpha_sq", "P_accept"]
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("seed = 123\ngrid = 0:1:0.5\nmatched_error = 0.01\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, typed)  # typed detector flags win over matched_error
        assert code == 0, err
        header, rows = parse_csv(out)
        assert "# seed: 123" in out
        assert header == ["R_alpha_sq", "P_accept"]
        assert [row[0] for row in rows] == ["0.0", "0.5", "1.0"]
        code, out, err = run_cli(capsys, ["acceptance"])  # the configured matched_error acts
        assert code == 0, err
        assert parse_csv(out)[0] == ["R_alpha_sq", "P_apd", "P_hds", "P_hdr"]
        code, out, err = run_cli(capsys, [*typed, "--matched-error", "0.01"])
        assert (code, out) == (2, "")
        assert "--matched-error sets its own detectors" in err
        monkeypatch.delenv("VACFILTER_CONFIG")
        code, out, err = run_cli(capsys, typed)
        assert (code, out) == (0, plain), err
        code, out, err = run_cli(capsys, ["acceptance"])
        assert (code, out) == (2, "")


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


def run_with_config(tmp_path, config: str, argv: list):
    """``vacfilter argv`` in a fresh interpreter with a VACFILTER_CONFIG file."""
    path = tmp_path / "vacfilter.conf"
    path.write_text(config)
    env = dict(os.environ, VACFILTER_CONFIG=str(path), PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "vacfilter.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestConfigFile:
    def test_config_detector_default_yields_to_typed_matched_error(self, tmp_path):
        proc = run_with_config(tmp_path, "eta = 0.63\n",
                               ["acceptance", "--matched-error", "0.01", "--grid", "0:1:0.5"])
        assert proc.returncode == 0, proc.stderr
        assert parse_csv(proc.stdout)[0] == ["R_alpha_sq", "P_apd", "P_hds", "P_hdr"]

    def test_config_prep_error_yields_to_typed_error_target(self, tmp_path):
        proc = run_with_config(tmp_path, "prep_error = 0.2\n",
                               [*SIMULATE_APD, "--format", "json", "--error-target", "0.01"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["prep_error"] != 0.2

    def test_config_error_target_yields_to_typed_prep_error(self, capsys, tmp_path,
                                                             monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("error_target = 0.01\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, [*SIMULATE_APD, "--format", "json",
                                          "--prep-error", "0.2"])
        assert code == 0, err
        assert json.loads(out)["prep_error"] == 0.2

    def test_config_threshold_yields_to_typed_match_error(self, capsys, tmp_path,
                                                           monkeypatch):
        argv = ["error", "--detector", "hds", "--eta", "0.9", "--match-error", "0.01"]
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        code, plain, err = run_cli(capsys, argv)
        assert code == 0, err
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("threshold = 0.5\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert parse_csv(out) == parse_csv(plain)

    def test_config_detector_satisfies_the_missing_flag(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("detector = ideal\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["error"])
        assert code == 0, err
        assert parse_csv(out)[1][0][0] == "ideal"

    def test_config_detector_flag_the_kind_does_not_read_is_dropped(self, capsys, tmp_path,
                                                                     monkeypatch):
        argv = ["sensitivity", "--detector", "hds", "--eta", "0.9", "--threshold", "0.5"]
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        outputs = {}
        for model in ("linear", "sqrt"):
            code, outputs[model], err = run_cli(capsys, [*argv, "--efficiency-model", model])
            assert code == 0, err
        assert parse_csv(outputs["linear"]) != parse_csv(outputs["sqrt"])
        cfg = tmp_path / "vacfilter.conf"
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        cfg.write_text("pd = 0.1\nefficiency_model = sqrt\n")
        code, out, err = run_cli(capsys, argv)  # hds reads the model, not pd
        assert code == 0, err
        assert parse_csv(out) == parse_csv(outputs["sqrt"])
        code, out, err = run_cli(capsys, ["error", "--detector", "ideal"])
        assert code == 0, err
        code, out, err = run_cli(capsys, [*argv, "--pd", "0.1"])  # typed, it is rejected
        assert code == 2
        assert "--pd" in err

    def test_conflicting_config_values_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("matched_error = 0.01\neta = 0.5\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, _, err = run_cli(capsys, ["acceptance", "--grid", "0:1:0.5"])
        assert code == 2
        assert "--matched-error sets its own detectors" in err
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "apd", "--grid", "0:1:0.5"])
        assert code == 0, err
        assert parse_csv(out)[0] == ["R_alpha_sq", "P_accept"]

    def test_config_choice_validated(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("format = xml\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "ideal"])
        assert code == 2
        assert out == ""
        assert "config key 'format' must be one of csv, json" in err

    def test_config_prefactor_leaves_pmin_alone(self, capsys, tmp_path, monkeypatch):
        argv = ["qkd", "pmin", "--eta", "0.63", "--pd", "5e-4"]
        code, plain, err = run_cli(capsys, argv)
        assert code == 0, err
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("prefactor = p_ps\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert out == plain

    def test_config_tap_yields_to_typed_optimize(self, capsys, tmp_path, monkeypatch):
        single = ["qkd", "keyrate", "--p", "0.5", "--eta", "0.63", "--pd", "5e-4"]
        code, optimized, err = run_cli(capsys, [*single, "--optimize"])
        assert code == 0, err
        code, tapped, err = run_cli(capsys, [*single, "--tap", "0.3"])
        assert code == 0, err
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("tap = 0.3\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, [*single, "--optimize"])
        assert code == 0, err
        assert parse_csv(out) == parse_csv(optimized)
        code, out, err = run_cli(capsys, single)  # the configured tap still acts here
        assert code == 0, err
        assert parse_csv(out) == parse_csv(tapped)

    def test_typed_no_filter_wins_over_config_eta(self, capsys, tmp_path, monkeypatch):
        argv = ["qkd", "keyrate", "--no-filter", "--p", "0.95"]
        code, plain, err = run_cli(capsys, argv)
        assert code == 0, err
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("eta = 0.63\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        assert out == plain

    def test_config_satisfies_a_required_flag(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("p = 0.3\nalpha_sq = 2\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["marginal", "--x", "0:1:0.5"])
        assert code == 0, err
        assert len(parse_csv(out)[1]) == 3

    @pytest.mark.parametrize("config, argv, typed", [
        ("trials = 2000\n", ["figures", "fig4", "--out", "{out}"], ["--trials", "2000"]),
        ("x = -1:2:0.25\n", ["marginal", "--p", "0.2", "--alpha-sq", "2"], ["--x=-1:2:0.25"]),
        ("p = 0.1\n", ["gain", "--detector", "apd", "--eta", "0.8"], ["--p", "0.1"]),
        ("no_filter = true\n", ["qkd", "pmin"], ["--no-filter"]),
    ], ids=["before-the-positional", "negative-start", "required-p", "switch"])
    def test_config_line_acts_as_its_flag(self, capsys, tmp_path, monkeypatch, config, argv,
                                          typed):
        def output(extra):
            path = tmp_path / "out.csv"
            code, out, err = run_cli(capsys, [a.format(out=path) for a in argv] + extra)
            assert code == 0, err
            return path.read_text() if "--out" in argv else out

        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        expected = output(typed)
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text(config)
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        assert output([]) == expected

    def test_malformed_config_value_of_a_typed_option_is_never_read(self, capsys, tmp_path,
                                                                     monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("seed = abc\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["error", "--detector", "ideal", "--seed", "5"])
        assert code == 0, err
        assert "# seed: 5" in out
        with pytest.raises(SystemExit) as exc:
            main(["error", "--detector", "ideal"])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["gain", "--detector", "ideal", "--p", "x"],
                                      ["gain", "--detector", "ideal", "--grid", "0:1:0.5", "--p"]])
    def test_parse_error_usage_line_does_not_depend_on_the_config(self, capsys, tmp_path,
                                                                  monkeypatch, argv):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("seed = 11\n")
        monkeypatch.delenv("VACFILTER_CONFIG", raising=False)
        errors = []
        for _ in range(2):  # without a config, then with one
            with pytest.raises(SystemExit) as exc:
                main(argv)
            errors.append((exc.value.code, capsys.readouterr().err))
            monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        assert errors[0] == errors[1]
        assert errors[0][0] == 2 and " --p P " in errors[0][1]

    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("seed=123\ngrid=0:1:0.5\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        _, out, _ = run_cli(capsys, ["acceptance", "--detector", "ideal"])
        assert "# seed: 123" in out
        _, out, _ = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                     "--seed", "456"])
        assert "# seed: 456" in out

    def test_missing_config_file_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "missing.conf"
        monkeypatch.setenv("VACFILTER_CONFIG", str(path))
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "ideal"])
        assert code == 2
        assert out == ""
        assert err == (f"error: cannot open VACFILTER_CONFIG {str(path)!r}: "
                       "No such file or directory\n")

    def test_comment_and_blank_config_lines_are_skipped(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("# a comment = not a key\n\n  # indented comment\nseed = 77\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["error", "--detector", "ideal"])
        assert code == 0, err
        assert "# seed: 77" in out

    def test_config_line_without_equals_exits_2(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("seed = 77\nseed 78\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["error", "--detector", "ideal"])
        assert code == 2
        assert out == ""
        assert err == "error: bad config line 'seed 78', expected key=value\n"

    def test_unknown_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("bogus_key=1\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, _, err = run_cli(capsys, ["acceptance", "--detector", "ideal"])
        assert code == 2
        assert "unknown config key" in err

    def test_boolean_config_key_is_a_switch(self, capsys, tmp_path, monkeypatch):
        argv = ["qkd", "keyrate", "--V", "1.1", "--p", "1"]
        filter_flags = ["--eta", "0.63", "--pd", "5e-4"]
        _, filtered, _ = run_cli(capsys, [*argv, *filter_flags])
        _, unfiltered, _ = run_cli(capsys, [*argv, "--no-filter"])
        cfg = tmp_path / "vacfilter.conf"
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        # a configured switch acts; typed filter flags win over it
        for value, typed, expected in (("true", [], unfiltered),
                                       ("False", filter_flags, filtered),
                                       ("true", filter_flags, filtered)):
            cfg.write_text(f"no_filter = {value}\n")
            code, out, err = run_cli(capsys, [*argv, *typed])
            assert code == 0, err
            assert parse_csv(out) == parse_csv(expected)
        cfg.write_text("no_filter = yes please\n")
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "expected true or false" in err

    def test_known_key_ignored_where_the_subcommand_lacks_it(self, capsys, tmp_path,
                                                             monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("workers = 2\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, _, err = run_cli(capsys, ["acceptance", "--detector", "ideal",
                                        "--grid", "0:1:0.5"])
        assert code == 0, err
        seen = []
        real_run_trials = montecarlo.run_trials

        def recording_run_trials(cfg):
            seen.append(cfg.workers)
            return real_run_trials(cfg)

        monkeypatch.setattr(montecarlo, "run_trials", recording_run_trials)
        code, _, err = run_cli(capsys, ["simulate", "--detector", "ideal", "--p", "0.5",
                                        "--alpha-sq", "1", "--trials", "1000"])
        assert code == 0, err
        assert seen == [2]

    def test_help_is_not_a_config_key(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "vacfilter.conf"
        cfg.write_text("help = true\n")
        monkeypatch.setenv("VACFILTER_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, ["acceptance", "--detector", "ideal"])
        assert code == 2
        assert out == ""
        assert "unknown config key 'help'" in err
