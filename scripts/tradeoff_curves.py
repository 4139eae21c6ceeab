"""SNR against window length for growing register sizes.

Writes one CSV per model (ideal and noisy defaults) with columns
(n, t_ms, snr), the raw material for the trade-off figure.
"""

import csv
import pathlib

import numpy as np

from readout_tradeoff import GateNoise, RateParams, SchemeConfig, scheme_snr

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

T_GRID = np.geomspace(0.05, 100.0, 160)
N_RANGE = range(1, 6)


def write_curves(path, make_config):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "t_ms", "snr"])
        for n in N_RANGE:
            for t, snr in zip(T_GRID, scheme_snr(make_config(n), T_GRID)):
                w.writerow([n, f"{t:.12g}", f"{snr:.12g}"])


def main():
    OUT_DIR.mkdir(exist_ok=True)
    clean = RateParams(3.5, 14.0)
    write_curves(OUT_DIR / "snr_ideal.csv", lambda n: SchemeConfig.ideal(n, clean))
    noisy = RateParams(3.5, 14.0, 0.0041)
    write_curves(
        OUT_DIR / "snr_noisy.csv",
        lambda n: SchemeConfig.noisy(n, noisy, GateNoise(0.01)),
    )
    print(f"wrote {OUT_DIR / 'snr_ideal.csv'} and {OUT_DIR / 'snr_noisy.csv'}")


if __name__ == "__main__":
    main()
