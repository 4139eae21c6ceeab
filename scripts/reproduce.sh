#!/bin/sh
# Regenerate every table under results/ from the source in this checkout.
#
# Five tables are rt commands, run at the CLI's defaults apart from the
# flags given here. The three scripts after them write the tables that no
# command prints. Run it from anywhere in the repository:
#
#   sh scripts/reproduce.sh
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p results

rt() {
    python -m readout_tradeoff.cli "$@"
}

# SNR against window length, ideal model and noisy defaults
curves="--n-max 5 --t-start 0.05 --t-stop 100 --t-points 160"
rt snr-sweep $curves --p 0 --lambda 0 --out results/snr_ideal.csv
rt snr-sweep $curves --out results/snr_noisy.csv
# misclassification infidelity against window length, per gate quality
for p in 0.001 0.01; do
    rt mi-sweep --n-max 5 --t-start 0.2 --t-stop 60 --t-points 96 --p "$p" --out "results/mi_p$p.csv"
done
rt peak-snr --n-max 10 --out results/peak_snr.csv

for script in speedup_scan outcome_laws composite_histograms; do
    python "scripts/$script.py"
done
