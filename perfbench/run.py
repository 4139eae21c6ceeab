"""Benchmark of the readout_tradeoff library, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. Inputs
come from --seed alone. With --trace 0 the run measures set-up time in
fresh interpreters, then repeats warm passes over the workload's rows for
at least S seconds (and until at least MIN_RESULTS results exist) and
reports the end-to-end metrics. With --trace 1 it alternates untraced and
traced passes for S seconds and reports the per-layer metrics from the
traced ones, with the tracing overhead as the gap between the two kinds.
Every run checks the outputs after the timed passes.

The second-to-last line of stdout records the seed, the environment and
the sample counts; the last line is the result object. Traced runs also
write their spans to .perfbench_out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3
MIN_RESULTS = 100
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# Stop measuring at this multiple of --seconds even if the minimums are not met.
MAX_SECONDS_FACTOR = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# The speed reference is timed between rows once this much row time has passed.
REF_EVERY_S = 0.2

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import readout_tradeoff.cli
import numpy as np
import workloads
workloads.WORKLOADS[sys.argv[1]].make_rows(np.random.default_rng(0))[0].run()
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    pass


def _cap_threads(cores: int) -> None:
    """Cap the BLAS/OpenMP pools at the core count before numpy loads."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cores:
            os.environ[var] = str(cores)


def _import_library() -> None:
    if not (SRC / "readout_tradeoff" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import readout_tradeoff
    import readout_tradeoff.cli  # noqa: F401  (fills the bytecode cache set-up runs read)

    if Path(readout_tradeoff.__file__).resolve().parent != SRC / "readout_tradeoff":
        raise BenchError(f"imported readout_tradeoff from {readout_tradeoff.__file__}, not {SRC}")


def _environment(cores: int) -> dict:
    import numpy as np
    import scipy
    import scipy.fft

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": cores,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "fft_workers": scipy.fft.get_workers(),
    }


def _setup_times(workload: str) -> list[float]:
    """Times to import readout_tradeoff.cli and make the workload's first
    result, each in a fresh interpreter. They are not speed-scaled: import
    time is mostly reading and unmarshalling, which the reference does not
    track, and scaling was found to widen their spread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    cmd = [sys.executable, "-c", SETUP_CODE, workload]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        times.append(float(done.stdout))
    return times


class Pass:
    """One pass over all rows: per-result latencies, digests and errors.

    The speed reference is timed before the first row and again after each
    REF_EVERY_S of row time; the rows in between are scaled by the mean of
    the two reference times around them. ``raw`` keeps the unscaled times.
    """

    def __init__(self, rows, recorder=None):
        self.raw = []
        self.latencies = []
        self.refs = [speed.reference()]
        self.digests = []
        self.errors = {}
        since = 0.0
        for i, row in enumerate(rows):
            if recorder is not None:
                recorder.result_id = i
            t0 = time.perf_counter()
            try:
                out = row.run()
            except Exception as exc:  # a failed result counts against error_rate
                self.raw.append(time.perf_counter() - t0)
                self.digests.append(None)
                self.errors[i] = f"{type(exc).__name__}: {exc}"
            else:
                self.raw.append(time.perf_counter() - t0)
                self.digests.append(row.digest(out))
            since += self.raw[-1]
            if since >= REF_EVERY_S or i == len(rows) - 1:
                self.refs.append(speed.reference())
                scale = speed.NOMINAL_S / (0.5 * (self.refs[-2] + self.refs[-1]))
                self.latencies += [x * scale for x in self.raw[len(self.latencies):]]
                since = 0.0


def _warm_up(rows) -> None:
    """Run the first row of each kind once, untimed, so lazy set-up is done."""
    seen = set()
    for row in rows:
        if row.kind not in seen:
            seen.add(row.kind)
            try:
                row.run()
            except Exception:  # counted when the timed passes repeat it
                pass


def _measure(rows, seconds: float, make_pass) -> list:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(make_pass(len(passes)))
        elapsed = time.perf_counter() - start
        results = sum(len(p.latencies) for p in passes)
        if elapsed >= MAX_SECONDS_FACTOR * seconds:
            return passes
        if elapsed >= seconds and len(passes) >= MIN_PASSES and results >= MIN_RESULTS:
            return passes


def _failures(rows, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a result fails if it raised, if its
    digest differs from the first pass's, or if the first digest fails its
    row's checks."""
    reference = passes[0].digests
    bad_rows = {}
    for i, (row, d) in enumerate(zip(rows, reference)):
        if d is None:
            continue
        try:
            errs = row.check(d)
        except Exception as exc:  # a check that cannot run is a failed check
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            bad_rows[i] = errs
    attempted = failed = 0
    messages = []
    for k, p in enumerate(passes):
        for i, d in enumerate(p.digests):
            attempted += 1
            why = p.errors.get(i) or bad_rows.get(i)
            if why is None and d != reference[i]:
                why = ["output differs from the first pass"]
            if why is not None:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"pass {k} row {i} ({rows[i].kind}): {why}")
    return attempted, failed, messages


def _pass_wall(passes, attr: str = "latencies") -> float:
    """Wall time of one warm pass, taken row by row: the sum over rows of each
    row's median latency across the passes, so that a slow stretch of one
    pass does not move it."""
    return sum(statistics.median(lat) for lat in zip(*(getattr(p, attr) for p in passes)))


def _speed_samples(passes) -> dict:
    refs = [r for p in passes for r in p.refs]
    return {
        "raw_wall_s": _pass_wall(passes, "raw"),
        "reference_s": {"median": statistics.median(refs), "min": min(refs),
                        "max": max(refs), "count": len(refs)},
    }


def _end_to_end(workload, rows, seconds: float) -> tuple[dict, dict, list]:
    setup = _setup_times(workload.name)
    _warm_up(rows)
    passes = _measure(rows, seconds, lambda k: Pass(rows))
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": _pass_wall(passes),
        "result_p50_ms": 1e3 * statistics.median(latencies),
        "result_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_repeats": len(setup),
        "passes": len(passes),
        "results": len(latencies),
        "results_per_pass": len(rows),
        **_speed_samples(passes),
    }
    return metrics, samples, passes


def _per_layer(workload, rows, seconds: float, header: dict) -> tuple[dict, dict, list]:
    import tracer

    recorder = tracer.Recorder()
    span_lines = []
    per_pass = []

    def make_pass(k):
        if k % 2 == 0:
            return Pass(rows)
        with recorder.installed() as spans:
            p = Pass(rows, recorder)
        per_pass.append(tracer.pass_stats(spans))
        span_lines.extend(tracer.encode(len(per_pass) - 1, spans))
        p.spans = len(spans)
        return p

    _warm_up(rows)
    passes = _measure(rows, seconds, make_pass)
    if len(passes) % 2:  # keep as many untraced passes as traced ones
        passes = passes[:-1]
    untraced = _pass_wall(passes[0::2])
    traced = _pass_wall(passes[1::2])
    metrics = tracer.median_stats(per_pass)
    metrics["trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    metrics["montecarlo.shots_per_s"] = workload.shots_per_pass / untraced
    samples = {
        "untraced_passes": len(passes[0::2]),
        "traced_passes": len(passes[1::2]),
        "results_per_pass": len(rows),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        **_speed_samples(passes),
        "spans_per_pass": passes[1].spans,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}.jsonl"
    tracer.dump(path, header, span_lines)
    samples["spans_file"] = str(path.relative_to(ROOT))
    return metrics, samples, passes


def _manifest_metrics(key: str, values: dict) -> dict:
    """Select and label the metrics BENCHMARK.json declares under key."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[key]
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(
            f"metrics computed and declared differ: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    cores = len(os.sched_getaffinity(0))
    _cap_threads(cores)
    try:
        _import_library()
        import numpy as np
        import workloads

        workload = workloads.WORKLOADS.get(args.workload)
        if workload is None:
            raise BenchError(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
        env = _environment(cores)
        rows = workload.make_rows(np.random.default_rng(args.seed))
        if args.trace:
            header = {"workload": workload.name, "seed": args.seed, "env": env}
            values, samples, passes = _per_layer(workload, rows, args.seconds, header)
        else:
            values, samples, passes = _end_to_end(workload, rows, args.seconds)
        attempted, failed, messages = _failures(rows, passes)
        if args.trace:
            values["error_rate"] = failed / attempted
        metrics = _manifest_metrics("per_layer" if args.trace else "end_to_end", values)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "samples": samples,
        "failures": messages,
    }
    if workload.shots_per_pass:
        record["sampler"] = {"shots_per_call": workloads.SAMPLER_SHOTS,
                             "n": workloads.SAMPLER_N, "calls_per_pass": len(rows)}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
