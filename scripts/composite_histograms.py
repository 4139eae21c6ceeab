"""Analytic composite count laws next to a sampled million-shot histogram.

Columns (k, p0, p1, mc0, mc1) for one scheme; the mc columns make the
agreement (or any residual bias) visible bin by bin.
"""

import csv
import pathlib

from readout_tradeoff import (
    GateNoise,
    McConfig,
    RateParams,
    SchemeConfig,
    compose,
    sample_full_scheme,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

N = 5
T = 2.0
SHOTS = 10**6
SEED = 20260822


def _embed(dist, size):
    out = [0.0] * size
    for k, mass in zip(dist.support, dist.masses):
        out[k] = float(mass)
    return out


def main():
    OUT_DIR.mkdir(exist_ok=True)
    cfg = SchemeConfig.noisy(N, RateParams(3.5, 14.0, 0.0041), GateNoise(0.01))
    stats = compose(cfg, T)
    e0, e1 = sample_full_scheme(McConfig(SHOTS, SEED, cfg, T))
    size = 1 + max(stats.p0.k_max, stats.p1.k_max, e0.k_max, e1.k_max)
    cols = [_embed(d, size) for d in (stats.p0, stats.p1, e0, e1)]

    path = OUT_DIR / f"composite_n{N}_t{T:g}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "p0", "p1", "mc0", "mc1"])
        for k in range(size):
            w.writerow([k] + [f"{c[k]:.12g}" for c in cols])
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
