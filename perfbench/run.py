"""clawforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  NAME is one of `mixed-corpus`, `multipliers-direct`,
`verify-seeded`, or `all` for the three in turn.

Closed loop, one client: sweeps over the workload's job list run one after
another, each in a fresh Python process (so the PdeSystem prolongation memo
and the corpus cache start cold, as they do for a CLI user), until the next
sweep would end after S seconds.  The seed shuffles each sweep's job order,
picks each sweep's PYTHONHASHSEED and generates the verify-seeded inputs.

--trace 0 reports the end-to-end metrics: medians over sweeps, with
quartiles and sample counts printed above the last line.  --trace 1
alternates untraced and traced sweeps over the same inputs and reports the
per-layer metrics from the traced ones (see tracer.py), with the traced to
untraced sweep-time ratio as `trace.overhead_ratio`.  Every job's output is
checked; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PER_SWEEP = 2    # set-up-only processes before each sweep
MIN_SWEEPS = 3
SWEEP_TIMEOUT_S = 60     # a sweep takes about 5 s; keeps a run under 180 s

END_TO_END = {"setup_s": "s", "sweep_s": "s", "sweep_cpu_s": "s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# Layers whose calls and self time are reported (tracer.LAYERS names them).
TRACED_LAYERS = (
    "cli.main", "parse.parse", "modelfile.parse_model_text", "expr.arith",
    "expr.substitute", "expr.pdiff", "expr.collect", "calculus.reduce",
    "calculus.total_derivative", "calculus.euler", "lawgen.formal_lagrangian",
    "lawgen.symmetry_flux", "lawgen.mixed_method",
    "lawgen.multiplier_determining_system", "linsolve.nullspace",
    "linsolve.colspace", "linsolve.incremental", "lawgen.witness_space",
    "lawgen.is_trivial", "lawgen.strip_trivial",
)
# Size counters, ratios and tracing health reported besides: (metric, unit).
SIZE_METRICS = (
    ("expr.substitute.terms_out", "count"),
    ("calculus.reduce.terms_in", "count"),
    ("calculus.reduce.terms_out", "count"),
    ("calculus.reduce.noop_ratio", "ratio"),
    ("lawgen.determining.rows", "count"),
    ("lawgen.determining.cols", "count"),
    ("linsolve.nullspace.rows", "count"),
    ("linsolve.nullspace.cols", "count"),
    ("linsolve.nullspace.rank", "count"),
    ("linsolve.incremental.accept_ratio", "ratio"),
    ("lawgen.witness_space.ncols", "count"),
    ("lawgen.is_trivial.trivial_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_units():
    units = {}
    for layer in TRACED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(SIZE_METRICS)
    return units


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def run_sweep(jobs, hash_seed, trace=False, spans_out=None):
    """One sweep in a fresh interpreter; returns sweep.py's result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(hash_seed)
    spec = {"jobs": jobs, "trace": trace,
            "spans_out": str(spans_out) if spans_out else None}
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep.py")], input=json.dumps(spec),
        capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=SWEEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep process exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Sweeps:
    """The job list of each sweep of one workload, with the check of each
    job's output.  Sweep k's inputs depend on the seed and k only."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed

    def inputs(self, k):
        """(jobs, checks, hash_seed) for sweep k; checks[i](rc, stdout,
        sha256) is True when job i's result is correct."""
        rng = random.Random(f"{self.seed}/{self.workload}/{k}")
        hash_seed = rng.randrange(1, 2**32)
        if self.workload == "verify-seeded":
            jobs, checks = [], []
            for i, (text, expected) in enumerate(workloads.verify_files(rng)):
                path = WORK / f"verify-{i}.laws"
                path.write_text(text, encoding="utf-8")
                jobs.append(["verify", "gas3d", str(path.relative_to(ROOT))])
                checks.append(lambda rc, out, sha, e=expected:
                              workloads.check_verify_output(out, rc, e))
            return jobs, checks, hash_seed
        fixed = list(workloads.FIXED_JOBS[self.workload].items())
        rng.shuffle(fixed)
        jobs = [job.split() for job, _ in fixed]
        checks = [lambda rc, out, sha, job=job, want=want:
                  rc == 0 and sha == want
                  and workloads.check_paper_counts(job, out)
                  for job, want in fixed]
        return jobs, checks, hash_seed

    def run(self, k, trace=False, spans_out=None):
        """Run sweep k; returns (result, number of failed jobs)."""
        jobs, checks, hash_seed = self.inputs(k)
        result = run_sweep(jobs, hash_seed, trace, spans_out)
        failed = sum(not check(job["rc"], job["stdout"], job["sha256"])
                     for check, job in zip(checks, result["jobs"]))
        return result, failed


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure_untraced(sweeps, seconds):
    """End-to-end samples from sweeps run until the next one would end
    after `seconds`.  Set-up is also timed alone, SETUP_PER_SWEEP times
    before each sweep, so that its samples spread over the whole run."""
    samples = {name: [] for name in END_TO_END}
    run_sweep([], 1)    # fills __pycache__ on a fresh checkout; not timed
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        for i in range(SETUP_PER_SWEEP):
            rng = random.Random(f"{sweeps.seed}/setup/{k}/{i}")
            samples["setup_s"].append(
                run_sweep([], rng.randrange(1, 2**32))["setup_s"])
        result, bad = sweeps.run(k)
        k += 1
        attempted += len(result["jobs"])
        failed += bad
        samples["setup_s"].append(result["setup_s"])
        samples["sweep_s"].append(result["sweep_s"])
        samples["sweep_cpu_s"].append(result["cpu_s"])
        samples["peak_rss_mb"].append(result["rss_mb"])
        samples["pass_ratio"].append(1 - bad / len(result["jobs"]))
        elapsed = time.perf_counter() - start
        if k >= MIN_SWEEPS and elapsed * (k + 1) / k > seconds:
            break
    return samples, attempted, failed


def measure_traced(sweeps, seconds):
    """Pairs of sweeps over the same inputs, untraced then traced, until the
    next pair would end after `seconds`.  Returns the per-layer metrics."""
    spans_out = WORK / f"spans-{sweeps.workload}.tsv"
    plain, traced, summaries = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        for trace in (False, True):
            result, bad = sweeps.run(k, trace, spans_out if trace else None)
            attempted += len(result["jobs"])
            failed += bad
            (traced if trace else plain).append(result["sweep_s"])
            if trace:
                summaries.append(result["trace"])
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed * (k + 1) / k > seconds:
            break

    n = len(summaries)
    layers, job_s, covered_s = {}, 0.0, 0.0
    for summary in summaries:
        job_s += summary["job_s"]
        covered_s += summary["covered_s"]
        for layer, values in summary["layers"].items():
            total = layers.setdefault(layer, {})
            for key, value in values.items():
                total[key] = total.get(key, 0) + value

    def total(layer, key):
        return layers.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.calls"] = total(layer, "calls") / n
        metrics[f"{layer}.self_s"] = total(layer, "self_s") / n
    metrics["expr.substitute.terms_out"] = \
        total("expr.substitute", "terms_out") / n
    for key in ("terms_in", "terms_out"):
        metrics[f"calculus.reduce.{key}"] = total("calculus.reduce", key) / n
    metrics["calculus.reduce.noop_ratio"] = ratio(
        total("calculus.reduce", "noop"), total("calculus.reduce", "calls"))
    for key in ("rows", "cols"):
        metrics[f"lawgen.determining.{key}"] = (
            total("lawgen.mixed_method", key) +
            total("lawgen.multiplier_determining_system", key)) / n
    for key in ("rows", "cols", "rank"):
        metrics[f"linsolve.nullspace.{key}"] = \
            total("linsolve.nullspace", key) / n
    metrics["linsolve.incremental.accept_ratio"] = ratio(
        total("linsolve.incremental", "accepted"),
        total("linsolve.incremental", "calls"))
    metrics["lawgen.witness_space.ncols"] = \
        total("lawgen.witness_space", "ncols") / n
    metrics["lawgen.is_trivial.trivial_ratio"] = ratio(
        total("lawgen.is_trivial", "trivial"),
        total("lawgen.is_trivial", "calls"))
    metrics["trace.coverage"] = ratio(covered_s, job_s)
    metrics["trace.overhead_ratio"] = ratio(statistics.median(traced),
                                            statistics.median(plain))
    return metrics, attempted, failed


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result object, report lines)."""
    sweeps = Sweeps(workload, seed)
    WORK.mkdir(exist_ok=True)
    lines = [f"workload {workload}  seed {seed}  "
             f"{'traced' if trace else 'untraced'}"]
    metrics = {}
    if trace:
        values, attempted, failed = measure_traced(sweeps, seconds)
        for name, unit in per_layer_units().items():
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"  {name:<44} {values[name]:>14.6g} {unit}")
    else:
        samples, attempted, failed = measure_untraced(sweeps, seconds)
        lines.append(f"  {'metric':<14} {'median':>11} {'q1':>11} "
                     f"{'q3':>11} {'n':>4}  unit")
        for name, unit in END_TO_END.items():
            q1, median, q3 = statistics.quantiles(samples[name], n=4)
            metrics[name] = {"value": median, "unit": unit}
            lines.append(f"  {name:<14} {median:>11.5f} {q1:>11.5f} "
                         f"{q3:>11.5f} {len(samples[name]):>4}  {unit}")
    lines.append(f"  jobs attempted {attempted}, failed {failed}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "clawforge" / "cli.py").is_file():
        print(f"error: no clawforge sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
