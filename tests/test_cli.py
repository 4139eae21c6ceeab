import json
import math

import pytest

from readout_tradeoff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_domain_error_is_one_line(self, capsys):
        code, out, err = run(capsys, "snr-sweep", "--n-max", "65")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_qubits" in err


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

    def test_tiny_run_inconclusive(self, capsys):
        # threshold scaled up to the trivial bound carries no information
        code, out, _ = run(capsys, "validate", "--shots", "25", "--seed", "7")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[3] == "inconclusive"
