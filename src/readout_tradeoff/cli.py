"""Command line front end: sweeps, inverse solves and validation tables.

Every command emits a deterministic table, as CSV (default) or JSON, to
stdout or to --out. Parameter precedence is flags over config file over
built-in defaults. Config files are flat ``key=value`` lines whose keys
are the long flag names with the dashes stripped (``t-start`` becomes
``tstart``); blank lines and ``#`` comments are ignored.

Exit codes: 0 success, 1 usage or configuration error, 2 validation
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .decay import DecayModelParams, decaying_poisson
from .dist import DiscreteDist, DomainError, RateParams, tv_distance
from .gates import Compilation, GateNoise, compiled_dist
from .montecarlo import McConfig, sample_full_scheme, sample_gate_outcomes, sample_photon_counts
from .scheme import SchemeConfig, _grid_snrs, _moment_table, compose, mi_optimal, peak_snr, time_to_snr

__all__ = ["main", "run_snr_sweep", "run_speedup", "run_validate"]

# Every option once, in --help order: config-file key (the long flag name
# with the dashes stripped) -> (flag, type, default, choices). The defaults
# are the measured reference parameters used when neither flags nor config
# file override them: emission rates in 1/ms, decay rate in 1/ms, gate
# failure probability and circuit layout.
OPTIONS = {
    "mu0": ("--mu0", float, 3.5, None),
    "mu1": ("--mu1", float, 14.0, None),
    "lambda": ("--lambda", float, 0.0041, None),
    "p": ("--p", float, 0.01, None),
    "compilation": ("--compilation", str, "cascade", tuple(c.value for c in Compilation)),
    "nmin": ("--n-min", int, 1, None),
    "nmax": ("--n-max", int, 5, None),
    "tstart": ("--t-start", float, 0.1, None),
    "tstop": ("--t-stop", float, 10.0, None),
    "tpoints": ("--t-points", int, 25, None),
    "tspacing": ("--t-spacing", str, "log", ("linear", "log")),
    "targetsnr": ("--target-snr", float, None, None),
    "shots": ("--shots", int, None, None),
    "seed": ("--seed", int, None, None),
    "format": ("--format", str, "csv", ("csv", "json")),
    "out": ("--out", str, None, None),
}
# The JSON config echo lists the options with a default first.
_ECHO_ORDER = sorted(OPTIONS, key=lambda key: OPTIONS[key][2] is None)
# Largest sweep grid, so a mistyped --t-points cannot ask for a huge array.
MAX_T_POINTS = 10**5

# Base TV acceptance threshold for the validate command at this shot count.
_VALIDATE_BASE_SHOTS = 10**6
_VALIDATE_BASE_TV = 5e-3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    for key, (flag, kind, _, choices) in OPTIONS.items():
        common.add_argument(flag, dest=key, type=kind, choices=choices)
    common.add_argument("--config")
    parser = _Parser(prog="rt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = OPTIONS[key][1](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_run_config(ns: argparse.Namespace) -> argparse.Namespace:
    """The resolved parameters of one invocation.

    The options are merged under their config-file keys (``cfg.nmin``,
    ``cfg.tstart``, ...), except the model's five, which become ``rates``
    and ``noise``. ``echo`` lists ``command`` and every option that has a
    value, for the JSON output.
    """
    merged = {key: spec[2] for key, spec in OPTIONS.items()}
    if ns.config:
        merged.update(_read_config_file(ns.config))
    merged.update((key, value) for key in OPTIONS if (value := getattr(ns, key)) is not None)
    for key, (flag, _, _, choices) in OPTIONS.items():
        if choices and merged[key] not in choices:
            raise UsageError(f"{flag[2:]} must be {' or '.join(choices)}, got {merged[key]!r}")
    for key in ("tstart", "tstop", "targetsnr"):
        if merged[key] is not None and not math.isfinite(merged[key]):
            raise UsageError(f"{OPTIONS[key][0]} must be finite, got {merged[key]}")
    echo = {"command": ns.command} | {
        key: merged[key] for key in _ECHO_ORDER if merged[key] is not None
    }
    try:
        rates = RateParams(merged.pop("mu0"), merged.pop("mu1"), merged.pop("lambda"))
        noise = GateNoise(merged.pop("p"), Compilation(merged.pop("compilation")))
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    cfg = argparse.Namespace(command=ns.command, rates=rates, noise=noise, echo=echo, **merged)
    if not 1 <= cfg.nmin <= cfg.nmax:
        raise UsageError(f"need 1 <= n-min <= n-max, got {cfg.nmin}..{cfg.nmax}")
    if cfg.command in ("snr-sweep", "mi-sweep"):
        if not 2 <= cfg.tpoints <= MAX_T_POINTS:
            raise UsageError(f"sweeps need 2 <= --t-points <= {MAX_T_POINTS}, got {cfg.tpoints}")
        if not cfg.tstart < cfg.tstop:
            raise UsageError("need t-start < t-stop")
        if cfg.tspacing == "log" and cfg.tstart <= 0.0:
            raise UsageError("log spacing needs t-start > 0")
        if cfg.tstart < 0.0:
            raise UsageError("need t-start >= 0")
    if cfg.command == "speedup" and cfg.targetsnr is None:
        raise UsageError("speedup needs --target-snr")
    if cfg.command == "validate" and (cfg.shots is None or cfg.seed is None):
        raise UsageError("validate needs --shots and --seed")
    if cfg.shots is not None and cfg.shots < 1:
        raise UsageError(f"need shots >= 1, got {cfg.shots}")
    return cfg


def _t_grid(cfg: argparse.Namespace) -> np.ndarray:
    if cfg.tspacing == "log":
        return np.geomspace(cfg.tstart, cfg.tstop, cfg.tpoints)
    return np.linspace(cfg.tstart, cfg.tstop, cfg.tpoints)


def _schemes(cfg: argparse.Namespace) -> list[SchemeConfig]:
    """The scheme of every n in n-min..n-max, all built, and so checked, before any is solved."""
    return [SchemeConfig.noisy(n, cfg.rates, cfg.noise) for n in range(cfg.nmin, cfg.nmax + 1)]


def run_snr_sweep(cfg: argparse.Namespace):
    """Rows (n, t_ms, snr) over the qubit range and window grid."""
    header = ("n", "t_ms", "snr")
    rows = []
    schemes = _schemes(cfg)
    # build_run_config has checked every window of the grid; every n has the
    # same rates, so one moment table serves them all
    ts = _t_grid(cfg).tolist()
    table = _moment_table(cfg.rates, ts)
    for scheme in schemes:
        rows += zip(itertools.repeat(scheme.n_qubits), ts, _grid_snrs(scheme, ts, table))
    return header, rows


def run_mi_sweep(cfg: argparse.Namespace):
    """Rows (n, t_ms, mi, eta_opt) with thresholds optimised exhaustively."""
    header = ("n", "t_ms", "mi", "eta_opt")
    rows = []
    for scheme in _schemes(cfg):
        n = scheme.n_qubits
        rows += [(n, t, *mi_optimal(compose(scheme, t))) for t in _t_grid(cfg).tolist()]
    return header, rows


def run_speedup(cfg: argparse.Namespace):
    """Rows (n, t_ms, ratio, reachable) against the single-qubit solve."""
    header = ("n", "t_ms", "ratio", "reachable")
    schemes = _schemes(cfg)
    t1 = time_to_snr(SchemeConfig.noisy(1, cfg.rates, cfg.noise), cfg.targetsnr)
    rows = []
    for scheme in schemes:
        tn = time_to_snr(scheme, cfg.targetsnr)
        if t1 is None or tn is None:
            rows.append((scheme.n_qubits, math.nan, math.nan, False))
        else:
            rows.append((scheme.n_qubits, tn, t1 / tn, True))
    return header, rows


def run_peak_snr(cfg: argparse.Namespace):
    """Rows (n, s_max, t_max_ms); without decay t_max_ms is inf and s_max the supremum."""
    header = ("n", "s_max", "t_max_ms")
    return header, [(scheme.n_qubits, *peak_snr(scheme)) for scheme in _schemes(cfg)]


def run_compilation_dist(cfg: argparse.Namespace):
    """Rows (compilation, n, q, prob) of the entangling outcome laws."""
    header = ("compilation", "n", "q", "prob")
    rows = []
    for scheme in _schemes(cfg):
        for q, prob in enumerate(scheme.outcomes[1].probs):
            rows.append((cfg.noise.compilation.value, scheme.n_qubits, q, float(prob)))
    return header, rows


def run_validate(cfg: argparse.Namespace):
    """Monte Carlo cross-checks of the analytic laws, as TV distances.

    The acceptance threshold is calibrated for 1e6 shots and scaled with
    1/sqrt(shots); once the scaled threshold reaches the trivial bound of
    one the check carries no power and is reported inconclusive instead.
    """
    header = ("check", "tv", "threshold", "status")
    shots, seed = cfg.shots, cfg.seed
    threshold = _VALIDATE_BASE_TV * math.sqrt(_VALIDATE_BASE_SHOTS / shots)
    checks = []

    compilation = cfg.noise.compilation
    analytic = compiled_dist(10, GateNoise(0.005, compilation))
    empirical = sample_gate_outcomes(compilation.wiring(10), 0.005, shots, seed)
    tv = tv_distance(DiscreteDist(0, analytic.probs, 0.0), DiscreteDist(0, empirical.probs, 0.0))
    checks.append((f"gates-{compilation.value}-n10-p0.005", tv))

    w = decaying_poisson(DecayModelParams(cfg.rates, 3.0))
    emp_w = sample_photon_counts(cfg.rates, 1, 3.0, shots, seed + 1)
    checks.append(("decay-bright-t3", tv_distance(w, emp_w)))

    scheme = SchemeConfig.noisy(5, cfg.rates, cfg.noise)
    stats = compose(scheme, 2.0)
    emp0, emp1 = sample_full_scheme(McConfig(shots, seed + 2, scheme, 2.0))
    checks.append(("scheme-dark-n5-t2", tv_distance(stats.p0, emp0)))
    checks.append(("scheme-bright-n5-t2", tv_distance(stats.p1, emp1)))

    rows = []
    failed = False
    for name, tv in checks:
        if threshold >= 1.0:
            status = "inconclusive"
        elif tv <= threshold:
            status = "pass"
        else:
            status = "fail"
            failed = True
        rows.append((name, tv, threshold, status))
    return header, rows, failed


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(cfg: argparse.Namespace, header, rows) -> None:
    if cfg.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config_echo": cfg.echo,
            "rows": [
                {key: _jsonable(v) for key, v in zip(header, row)} for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


COMMANDS = {
    "snr-sweep": run_snr_sweep,
    "mi-sweep": run_mi_sweep,
    "speedup": run_speedup,
    "peak-snr": run_peak_snr,
    "compilation-dist": run_compilation_dist,
    "validate": run_validate,
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        cfg = build_run_config(ns)
        header, rows, *failed = COMMANDS[cfg.command](cfg)  # validate also reports failure
        _emit(cfg, header, rows)
        return 2 if any(failed) else 0
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
