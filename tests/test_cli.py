import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from readout_tradeoff import (
    GateNoise,
    RateParams,
    SchemeConfig,
    cli,
    peak_snr,
    scheme,
    scheme_snr,
    time_to_snr,
)
from readout_tradeoff.cli import COMMANDS, MAX_T_POINTS, main
from readout_tradeoff.cli import _build_parser, _t_grid, build_run_config, run_snr_sweep
from readout_tradeoff.gates import point_outcome


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, check=True, env=None):
    """A fresh interpreter that imports the package from this checkout.

    env holds environment variables to set on top of this process's.
    """
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check
    )


# run in a fresh interpreter: the names of the scipy modules loaded so far
_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestImportGraph:
    """What importing the package costs: no command or law loads a scipy module."""

    def test_cli_import_loads_no_scipy(self):
        out = run_python("-c", f"import sys, readout_tradeoff.cli; print({_SCIPY_LOADED})")
        assert out.stdout.strip() == "[]"

    def test_moment_route_and_sampler_load_no_scipy(self):
        # peak-snr and speedup solve on the moment route alone
        commands = [
            "snr-sweep",
            "compilation-dist",
            "peak-snr --n-max 2",
            "speedup --n-max 2 --target-snr 8",
        ]
        code = (
            "import contextlib, io, sys\n"
            "from readout_tradeoff import *\n"
            "from readout_tradeoff.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(command.split()) for command in sys.argv[1:]]\n"
            "rates = RateParams(3.5, 14.0, 0.02)\n"
            "scheme = SchemeConfig.noisy(4, rates, GateNoise(0.01))\n"
            "sample_full_scheme(McConfig(1000, 3, scheme, 2.0))\n"
            "sample_gate_outcomes(cascade_wiring(4), 0.01, 1000, 3)\n"
            "sample_photon_counts(rates, 1, 2.0, 1000, 3)\n"
            f"print(codes, {_SCIPY_LOADED})\n"
        )
        assert run_python("-c", code, *commands).stdout.strip() == "[0, 0, 0, 0] []"

    def test_laws_load_special_and_blocked_laws_fft(self):
        # mi-sweep's laws at its defaults all take the direct path; a law of
        # 64 decayed qubits over 20 ms outgrows it and is composed in blocks,
        # through numpy.fft: neither loads a scipy module
        code = (
            "import contextlib, io, sys\n"
            "from readout_tradeoff import *\n"
            "from readout_tradeoff.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['mi-sweep'])\n"
            f"print(code, {_SCIPY_LOADED})\n"
            "compose(SchemeConfig.noisy(64, RateParams(3.5, 14.0, 0.02), GateNoise(0.01)), 20.0)\n"
            f"print({_SCIPY_LOADED})\n"
        )
        out = run_python("-c", code)
        assert out.stdout.splitlines() == ["0 []", "[]"]

    def test_laws_built_on_first_import_match_this_process(self):
        # a fresh interpreter gets this process's laws to the bit: a
        # direct-path and a blocked compose, and a decayed single-qubit law
        code = (
            "import hashlib\n"
            "from readout_tradeoff import *\n"
            "rates = RateParams(3.5, 14.0, 0.02)\n"
            "laws = [decaying_poisson(DecayModelParams(rates, 3.0))]\n"
            "for n, t in ((5, 2.0), (64, 20.0)):\n"
            "    stats = compose(SchemeConfig.noisy(n, rates, GateNoise(0.01)), t)\n"
            "    laws += [stats.p0, stats.p1]\n"
            "for d in laws:\n"
            "    print(d.offset, repr(d.truncation_loss), hashlib.sha256(d.masses).hexdigest())\n"
        )
        fresh = run_python("-c", code).stdout
        here = io.StringIO()
        exec(code, {"print": functools.partial(print, file=here)})
        assert fresh == here.getvalue()

    def test_commands_that_solve_nothing_never_load_optimize(self):
        commands = [
            "snr-sweep --n-max 2 --t-points 3",
            "mi-sweep --n-max 2 --t-points 2",
            "compilation-dist --n-max 3",
            "validate",
        ]
        code = (
            "import contextlib, io, sys\n"
            "from readout_tradeoff.cli import main\n"
            "for command in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(command.split() + ['--shots', '1000', '--seed', '3'])\n"
            "    print(command.split()[0], code, 'scipy.optimize' in sys.modules)\n"
        )
        out = run_python("-c", code, *commands)
        assert out.stdout.splitlines() == [f"{c.split()[0]} 0 False" for c in commands]

    def test_solvers_load_no_scipy(self):
        # a fresh interpreter, which loads no scipy module to solve, gets this
        # process's results to the bit
        config = SchemeConfig.noisy(4, RateParams(3.5, 14.0, 0.02), GateNoise(0.01))
        expected = repr((peak_snr(config), time_to_snr(config, 5.0)))
        code = (
            "import sys\n"
            "from readout_tradeoff import *\n"
            "config = SchemeConfig.noisy(4, RateParams(3.5, 14.0, 0.02), GateNoise(0.01))\n"
            "print(repr((peak_snr(config), time_to_snr(config, 5.0))))\n"
            f"print({_SCIPY_LOADED})\n"
        )
        out = run_python("-c", code)
        assert out.stdout.splitlines() == [expected, "[]"]


class TestModuleEntry:
    """`python -m readout_tradeoff.cli` exits with main's code, as scripts/reproduce.sh needs."""

    def test_success_exits_zero(self):
        out = run_python("-m", "readout_tradeoff.cli", "peak-snr", "--n-max", "2", check=False)
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "n,s_max,t_max_ms"
        assert len(out.stdout.splitlines()) == 3

    def test_usage_error_exits_one_with_one_line(self):
        out = run_python("-m", "readout_tradeoff.cli", "snr-sweep", "--t-points", "1", check=False)
        assert out.returncode == 1
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestSnrSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "snr-sweep", "--n-min", "1", "--n-max", "2", "--t-points", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,t_ms,snr"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.1)

    def test_deterministic_output(self, capsys):
        args = ("snr-sweep", "--n-max", "2", "--t-points", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_linear_spacing(self, capsys):
        code, out, _ = run(
            capsys,
            "snr-sweep",
            "--n-max",
            "1",
            "--t-points",
            "3",
            "--t-spacing",
            "linear",
            "--t-start",
            "1",
            "--t-stop",
            "3",
        )
        ts = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert ts == [1.0, 2.0, 3.0]

    def test_rows_equal_one_call_per_window(self):
        # each n's grid maps the scheme's kernel; its rows are the scheme_snr calls'
        argv = ["snr-sweep", "--n-max", "4", "--t-points", "50", "--t-stop", "400"]
        cfg = build_run_config(_build_parser().parse_args(argv))
        _, rows = run_snr_sweep(cfg)
        want = [
            (n, t, scheme_snr(SchemeConfig.noisy(n, cfg.rates, cfg.noise), t))
            for n in range(1, 5)
            for t in _t_grid(cfg).tolist()
        ]
        assert rows == want

    @pytest.mark.parametrize("argv", [[], ["--p", "0", "--lambda", "0"]], ids=["defaults", "ideal"])
    def test_rows_are_scheme_snr_to_the_bit(self, capsys, argv):
        # JSON prints each float by its repr, which reads back to the same bits
        code, out, _ = run(capsys, "snr-sweep", *argv, "--format", "json")
        assert code == 0
        cfg = build_run_config(_build_parser().parse_args(["snr-sweep", *argv]))
        rows = json.loads(out)["rows"]
        assert len(rows) == 5 * 25
        for row in rows:
            want = scheme_snr(SchemeConfig.noisy(row["n"], cfg.rates, cfg.noise), row["t_ms"])
            assert row["snr"].hex() == want.hex()


class TestMiSweep:
    def test_envelope_edge_without_noise(self, capsys):
        # Poisson laws of means up to 9e5: their log-space terms summed past
        # DiscreteDist's mass check, and the sweep exited 1
        code, out, err = run(
            capsys, "mi-sweep", "--p", "0", "--lambda", "0", "--n-min", "60", "--n-max", "64",
            "--t-start", "900", "--t-stop", "1000", "--t-points", "2",
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 11

    def test_laws_far_apart(self, capsys):
        # the composite laws lie 4.0e9 counts apart: laid out densely, the
        # empty counts between them would take 30 GiB
        code, out, err = run(
            capsys, "mi-sweep", "--mu0", "0", "--mu1", "5e6", "--lambda", "0", "--p", "0",
            "--n-max", "1", "--t-start", "800", "--t-stop", "900", "--t-points", "2",
        )
        assert (code, err) == (0, "")
        assert out == "n,t_ms,mi,eta_opt\n1,800,0,1\n1,900,0,1\n"


class TestJson:
    def test_structure_and_echo(self, capsys):
        code, out, _ = run(
            capsys, "snr-sweep", "--n-max", "1", "--t-points", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config_echo"]["command"] == "snr-sweep"
        assert doc["config_echo"]["mu0"] == 3.5
        assert doc["config_echo"]["tpoints"] == 2
        assert "targetsnr" not in doc["config_echo"]
        assert len(doc["rows"]) == 2
        assert set(doc["rows"][0]) == {"n", "t_ms", "snr"}

    def test_echo_of_every_option(self, capsys, tmp_path):
        out = tmp_path / "dist.json"
        argv = [
            "compilation-dist", "--mu0", "2.5", "--mu1", "12", "--lambda", "0.003",
            "--p", "0.02", "--compilation", "flat", "--n-min", "2", "--n-max", "3",
            "--t-start", "0.5", "--t-stop", "4", "--t-points", "3", "--t-spacing", "linear",
            "--target-snr", "5", "--shots", "100", "--seed", "7", "--format", "json",
            "--out", str(out),
        ]
        assert run(capsys, *argv)[0] == 0
        # the command, then the options with a default, then the rest, in --help order
        assert list(json.loads(out.read_text())["config_echo"].items()) == [
            ("command", "compilation-dist"),
            ("mu0", 2.5),
            ("mu1", 12.0),
            ("lambda", 0.003),
            ("p", 0.02),
            ("compilation", "flat"),
            ("nmin", 2),
            ("nmax", 3),
            ("tstart", 0.5),
            ("tstop", 4.0),
            ("tpoints", 3),
            ("tspacing", "linear"),
            ("format", "json"),
            ("targetsnr", 5.0),
            ("shots", 100),
            ("seed", 7),
            ("out", str(out)),
        ]

    def test_infinite_values_become_null(self, capsys):
        code, out, _ = run(
            capsys,
            "peak-snr",
            "--p",
            "0",
            "--lambda",
            "0",
            "--n-max",
            "1",
            "--format",
            "json",
        )
        doc = json.loads(out)
        assert doc["rows"][0]["s_max"] is None
        assert doc["rows"][0]["t_max_ms"] is None


class TestPeakSnr:
    def test_infinity_sentinel_in_csv(self, capsys):
        code, out, _ = run(capsys, "peak-snr", "--p", "0", "--lambda", "0", "--n-max", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,inf,inf"

    def test_noisy_defaults_finite(self, capsys):
        code, out, _ = run(capsys, "peak-snr", "--n-max", "2")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_gate_noise_without_decay_reports_the_supremum(self, capsys):
        code, out, _ = run(capsys, "peak-snr", "--lambda", "0", "--n-max", "4")
        assert code == 0
        assert out.splitlines()[1:] == [
            "1,inf,inf",
            "2,19.8997487421,inf",
            "3,16.5491076333,inf",
            "4,16.2207920263,inf",
        ]


class TestSpeedup:
    def test_requires_target(self, capsys):
        code, _, err = run(capsys, "speedup")
        assert code == 1
        assert "target-snr" in err

    def test_ideal_ratio_is_qubit_count(self, capsys):
        code, out, _ = run(
            capsys,
            "speedup",
            "--p",
            "0",
            "--lambda",
            "0",
            "--target-snr",
            "8",
            "--n-max",
            "3",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for row in rows:
            assert float(row[2]) == pytest.approx(int(row[0]), rel=1e-9)
            assert row[3] == "true"

    def test_unreachable_target_flagged(self, capsys):
        code, out, _ = run(capsys, "speedup", "--target-snr", "50", "--n-max", "2")
        assert code == 0
        for row in out.splitlines()[1:]:
            cells = row.split(",")
            assert cells[3] == "false"
            assert cells[1] == "nan"


class TestCompilationDist:
    def test_cascade_values(self, capsys):
        code, out, _ = run(
            capsys, "compilation-dist", "--n-min", "3", "--n-max", "3", "--p", "0.01"
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        probs = {int(r[2]): float(r[3]) for r in rows}
        assert rows[0][0] == "cascade"
        assert probs[0] == pytest.approx(0.01)
        assert probs[1] == pytest.approx(0.0099)
        assert probs[2] == 0.0
        assert probs[3] == pytest.approx(0.9801)

    def test_flat_selection(self, capsys):
        code, out, _ = run(
            capsys,
            "compilation-dist",
            "--compilation",
            "flat",
            "--n-min",
            "2",
            "--n-max",
            "2",
        )
        assert out.splitlines()[1].startswith("flat,2,0,")


class TestConfigFile:
    def test_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu0 = 2.0\nnmax = 1\ntpoints = 2\n# comment\n\n")
        code, out, _ = run(
            capsys, "snr-sweep", "--config", str(cfg), "--format", "json"
        )
        doc = json.loads(out)
        assert doc["config_echo"]["mu0"] == 2.0
        assert doc["config_echo"]["nmax"] == 1

    def test_flags_beat_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu0=2.0\n")
        code, out, _ = run(
            capsys,
            "snr-sweep",
            "--config",
            str(cfg),
            "--mu0",
            "3.0",
            "--n-max",
            "1",
            "--t-points",
            "2",
            "--format",
            "json",
        )
        assert json.loads(out)["config_echo"]["mu0"] == 3.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu9=1.0\n")
        code, _, err = run(capsys, "snr-sweep", "--config", str(cfg))
        assert code == 1
        assert "mu9" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "snr-sweep", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mu0 2.0\n", "run.cfg:1: expected key=value, got 'mu0 2.0'"),
            ("nmax=1e3\n", "run.cfg:1: bad value for nmax"),
            ("compilation=tree\n", "compilation must be flat or cascade, got 'tree'"),
        ],
        ids=["no-equals", "non-integer", "bad-choice"],
    )
    def test_bad_line_is_one_error(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "snr-sweep", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestOutFile:
    def test_written_file_matches_stdout(self, capsys, tmp_path):
        args = ("snr-sweep", "--n-max", "1", "--t-points", "3")
        _, out, _ = run(capsys, *args)
        target = tmp_path / "rows.csv"
        code, silent, _ = run(capsys, *args, "--out", str(target))
        assert code == 0
        assert silent == ""
        assert target.read_bytes().decode() == out
        assert b"\r" not in target.read_bytes()

    @pytest.mark.parametrize(
        "flag, name, message",
        [
            ("--out", "missing/rows.csv", "cannot write"),
            ("--out", ".", "cannot write"),
            ("--config", "latin1.cfg", "cannot read config file"),
        ],
        ids=["out-in-missing-directory", "out-is-a-directory", "config-not-utf8"],
    )
    def test_file_error_is_one_line(self, capsys, tmp_path, flag, name, message):
        (tmp_path / "latin1.cfg").write_bytes(b"mu0=\xff\n")
        path = str(tmp_path / name)
        code, out, err = run(capsys, "peak-snr", "--n-max", "1", flag, path)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message} {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_bad_rates(self, capsys):
        code, _, err = run(capsys, "snr-sweep", "--mu0", "20", "--mu1", "10")
        assert code == 1

    def test_bad_sweep_grid(self, capsys):
        code, _, err = run(capsys, "snr-sweep", "--t-points", "1")
        assert code == 1

    def test_bad_qubit_range(self, capsys):
        code, _, err = run(capsys, "snr-sweep", "--n-min", "5", "--n-max", "2")
        assert code == 1

    @pytest.mark.parametrize("stop", ["1", "5"], ids=["reversed", "equal"])
    def test_t_start_must_be_below_t_stop(self, capsys, stop):
        code, out, err = run(capsys, "mi-sweep", "--t-start", "5", "--t-stop", stop)
        assert (code, out, err) == (1, "", "error: need t-start < t-stop\n")

    def test_linear_grid_needs_non_negative_start(self, capsys):
        code, _, err = run(capsys, "snr-sweep", "--t-spacing", "linear", "--t-start", "-1")
        assert code == 1
        assert err == "error: need t-start >= 0\n"

    def test_domain_error_is_one_line(self, capsys):
        code, out, err = run(capsys, "snr-sweep", "--n-max", "65")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_qubits" in err

    @pytest.mark.parametrize(
        "args",
        [
            # compose's check: the bright law's 64-fold power
            ["--n-min", "64", "--n-max", "64", "--t-start", "3e4", "--t-stop", "4e4"],
            # decaying_poisson's check: one decayed law of 1,062,829 counts
            ["--n-max", "1", "--t-start", "1e5", "--t-stop", "2e5"],
            # poisson_pmf's check: the bright law's window at mean 4.5e11
            ["--mu0", "0", "--mu1", "5e8", "--lambda", "0", "--p", "0", "--n-max", "1",
             "--t-start", "900", "--t-stop", "1000"],
        ],
        ids=["compose", "decaying-poisson", "poisson-window"],
    )
    def test_law_past_max_support_is_one_line(self, capsys, args):
        code, out, err = run(capsys, "mi-sweep", *args, "--t-points", "2")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("spans more than 1000000 counts\n")

    @pytest.mark.parametrize(
        "command, module, solver",
        [
            ("snr-sweep", scheme, "_snr_on_grid"),
            ("mi-sweep", cli, "compose"),
            ("speedup", cli, "time_to_snr"),
            ("peak-snr", cli, "peak_snr"),
        ],
        ids=[
            "snr-sweep-_snr_on_grid", "mi-sweep-compose", "speedup-time_to_snr", "peak-snr-peak_snr"
        ],
    )
    def test_qubit_range_is_checked_before_solving(
        self, capsys, monkeypatch, command, module, solver
    ):
        # every n is checked before any is solved, so a bad --n-max costs no solve
        def unexpected(*args):
            raise AssertionError(f"{solver} ran before every n was checked")

        monkeypatch.setattr(module, solver, unexpected)
        code, out, err = run(capsys, command, "--n-max", "65", "--target-snr", "8")
        assert (code, out) == (1, "")
        assert err == "error: n_qubits must be an integer in 1..64, got 65\n"

    def test_compilation_dist_checks_the_qubit_range_before_any_law(self, capsys, monkeypatch):
        def unexpected(*args):
            raise AssertionError("an outcome law was built before every n was checked")

        monkeypatch.setattr(scheme, "compiled_dist", unexpected)
        code, out, err = run(capsys, "compilation-dist", "--n-min", "64", "--n-max", "65")
        assert (code, out) == (1, "")
        assert err == "error: n_qubits must be an integer in 1..64, got 65\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("snr-sweep", "--t-stop", "inf"), "--t-stop"),
            (("mi-sweep", "--t-start", "nan"), "--t-start"),
            (("speedup", "--target-snr", "inf"), "--target-snr"),
            (("snr-sweep", "--n-max", "1", "--t-points", str(MAX_T_POINTS + 1)), "--t-points"),
        ],
    )
    def test_bad_flag_named_up_front(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    def test_window_beyond_poisson_range_is_one_line(self, capsys):
        code, out, err = run(
            capsys, "mi-sweep", "--t-stop", "1e300", "--n-max", "1", "--t-points", "2"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_moments_name_the_window(self, capsys):
        code, out, err = run(
            capsys, "snr-sweep", "--t-stop", "1e300", "--n-max", "1", "--t-points", "3"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "window length" in err

    @pytest.mark.parametrize(
        "argv, window",
        [
            (("--lambda", "0", "--t-stop", "1e300"), "t=1e+300 ms"),
            (("--p", "0", "--lambda", "0", "--t-stop", "1e308"), "t=3.1622776601683792e+153 ms"),
        ],
        ids=["gap-squared", "ideal-moments"],
    )
    def test_overflowing_composite_moments_name_the_window(self, capsys, argv, window):
        code, out, err = run(capsys, "snr-sweep", *argv, "--n-max", "1", "--t-points", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"window length {window}" in err


_FLAG_VALUES = {
    "--mu0": st.sampled_from(["0", "3.5", "20", "-1", "inf", "nan"]),
    "--mu1": st.sampled_from(["0", "14", "-3", "inf", "nan"]),
    "--lambda": st.sampled_from(["0", "0.0041", "10", "-1", "inf", "nan", "1e6"]),
    "--p": st.sampled_from(["0", "0.01", "1", "1.5", "-0.1", "nan"]),
    "--compilation": st.sampled_from(["flat", "cascade", "tree"]),
    "--n-min": st.sampled_from(["1", "2", "0", "-1", "x"]),
    "--n-max": st.sampled_from(["1", "3", "0", "65"]),
    "--t-start": st.sampled_from(["0", "0.1", "5", "-1", "inf", "nan", "1e300"]),
    "--t-stop": st.sampled_from(["0.5", "20", "1e3", "0", "-1", "inf", "nan", "1e300"]),
    "--t-points": st.sampled_from(["2", "3", "1", "0", "-5", str(MAX_T_POINTS + 1)]),
    "--t-spacing": st.sampled_from(["linear", "log", "cubic"]),
    "--target-snr": st.sampled_from(["8", "0.5", "1e300", "0", "-1", "inf", "nan"]),
    "--shots": st.sampled_from(["1", "30", "0", "-1"]),
    "--seed": st.sampled_from(["0", "7", "-3", "99999999999999999999999"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}


@st.composite
def _argv(draw):
    argv = [draw(st.sampled_from(sorted(COMMANDS)))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=5, unique=True)):
        argv += [flag, draw(_FLAG_VALUES[flag])]
    # keep the drawn runs small: few qubits, short grids, few shots
    for flag, value in (("--n-max", "2"), ("--t-points", "3"), ("--shots", "20"), ("--seed", "1")):
        if flag not in argv:
            argv += [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_never_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestValidate:
    def test_requires_shots_and_seed(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 1
        assert "shots" in err

    def test_rejects_zero_shots(self, capsys):
        code, out, err = run(capsys, "validate", "--shots", "0", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "shots" in err

    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--shots", "40000", "--seed", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,tv,threshold,status"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.split(",")[3] == "pass"

    def test_flat_compilation_checks_flat_law(self, capsys):
        code, out, _ = run(capsys, "validate", "--compilation", "flat",
                           "--shots", "40000", "--seed", "7")
        assert code == 0
        name, _, _, status = out.splitlines()[1].split(",")
        assert (name, status) == ("gates-flat-n10-p0.005", "pass")

    def test_failed_check_exits_two(self, capsys, monkeypatch):
        # a sampler that never keeps a qubit bright fails the gate-law check
        monkeypatch.setattr(
            cli, "sample_gate_outcomes", lambda wiring, p, shots, seed: point_outcome(10, 0)
        )
        code, out, _ = run(capsys, "validate", "--shots", "40000", "--seed", "7")
        assert code == 2
        statuses = [line.split(",")[3] for line in out.splitlines()[1:]]
        assert statuses == ["fail", "pass", "pass", "pass"]

    def test_tiny_run_inconclusive(self, capsys):
        # threshold scaled up to the trivial bound carries no information
        code, out, _ = run(capsys, "validate", "--shots", "25", "--seed", "7")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[3] == "inconclusive"
