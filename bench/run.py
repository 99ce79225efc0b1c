#!/usr/bin/env python3
"""Benchmark of ssofr: end-to-end times per workload, per-layer traces.

One workload, one process:

    python3 bench/run.py --workload rfpc_m_idw400 --seed 1 --seconds 35 --trace 0

With --trace 0 the run times the workload with nothing wrapped and reports
the end-to-end metrics. The timed loop starts a new round while one more
round still ends within --seconds; a round is a set-up, a fit and its
predicts. setup_s is the median of the rounds' set-ups (at least
SETUP_REPS), so it samples the whole run as the fits do; fit_s and
predict_s are the medians of the run's fits and predicts. The fastest and
the slowest sample are printed beside each, with the count.
peak_rss_mb is the process's peak resident set. With --trace 1 each round
is an untraced fit and predicts, then set-up, fit and predict with every
layer wrapped (see tracing.py); the run reports the per-layer metrics, the
layer shares of the traced fit and the tracing overhead (traced minus
untraced fit, medians over rounds).

Every operation is checked (see workloads.py). An operation that raises,
exits non-zero or returns wrong output counts in `failed`; one that only
reports converged=False or a large eta_norm counts in the traced run's
`fail_frac`. A repeated set-up or operation whose output differs, or traced
counters that differ between repetitions, make `correct` false.

All workloads, both modes, with a summary table:

    python3 bench/run.py --workload all --seed 1 --seconds 35

The last line of standard output is the JSON result. The run writes only
under .bench_work/ in the checkout and removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("rfpc_m_idw400", "rfpls_m_queen400", "cli_fpls_ml_rook900")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, within the CPUs the process may use. On a host shared
# with other tenants a multi-threaded BLAS call waits at every barrier for
# its slowest thread: six fits of rfpls + M on a 30 x 30 queen grid took
# 5.9-9.2 s with 2 threads and 7.5-9.7 s with 1 (2 vCPUs, Xeon, KVM).
BLAS_THREADS = 1
SETUP_REPS = 5
TRACED_REPS = 2
CHILD_TIMEOUT_S = 900

# Layers whose share of the traced fit is reported: the layer modules that
# run inside a fit, and "other" for time in no wrapped function.
SHARE_LAYERS = (
    "weights", "functional", "fpca", "fpls", "mscale",
    "sar", "pipeline", "io", "cli", "other",
)
COUNT_METRICS = (
    "mscale.columns_calls", "mscale.columns_scored", "mscale.info_calls",
    "sar.m_iters", "sar.m_converged", "sar.solves", "sar.trace_evals",
    "sar.eig_calls", "weights.eigvals_calls", "sar.logdet_evals",
    "fpls.rfpls_iters", "io.bytes_written", "trace.spans",
)


def cap_threads() -> tuple:
    """Set the BLAS thread count before numpy loads: BLAS_THREADS, at most
    the CPUs this process may use. Returns (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def environment(nproc: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc, "blas": blas, "blas_threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu": cpu,
    }


class Tally:
    """Attempted and failed operations, the reason for each failure, and the
    digest of each output. Outputs are deterministic, so an output seen
    before reuses its check outcome, and a second digest for the same
    operation is a determinism failure."""

    def __init__(self):
        self.attempted = 0
        self.hard = 0       # raised, non-zero exit or wrong output
        self.failed = 0     # hard, or converged=False / eta_norm too large
        self.reasons = Counter()
        self.digests = {"fit": set(), "predict": set()}
        self._outcomes = {}

    def run(self, fn):
        """Run fn, returning (result, seconds); a raise is a failed operation."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:  # the loop goes on; the failure is reported
            elapsed = perf_counter() - t0
            self.record([traceback.format_exc(limit=1).strip().splitlines()[-1]], [])
            return None, elapsed
        return result, perf_counter() - t0

    def check(self, kind, digest, check) -> None:
        """Record the outcome of check() for an output with this digest."""
        self.digests[kind].add(digest)
        if digest not in self._outcomes:
            self._outcomes[digest] = check()
        outcome = self._outcomes[digest]
        self.record(outcome.hard, outcome.soft)

    def record(self, hard, soft) -> None:
        self.hard += bool(hard)
        self.failed += bool(hard or soft)
        self.reasons.update(hard + soft)

    def problems(self) -> list:
        return [f"repeated {kind}s gave different outputs"
                for kind, seen in self.digests.items() if len(seen) > 1]


def checked_fit(tally, wl, inputs, model):
    tally.check("fit", wl.fit_digest(inputs, model), lambda: wl.check_fit(inputs, model))


def checked_predict(tally, wl, inputs, prediction):
    tally.check("predict", wl.predict_digest(inputs, prediction),
                lambda: wl.check_predict(inputs, prediction))


def timed_op(tally, wl, inputs):
    """One fit and its predicts, checked. Returns (fit_s, [predict_s])."""
    model, fit_s = tally.run(wl.fit_call(inputs))
    if model is None:
        return fit_s, []
    checked_fit(tally, wl, inputs, model)
    predict_times = []
    for _ in range(wl.predict_reps):
        prediction, seconds = tally.run(wl.predict_call(inputs, model))
        predict_times.append(seconds)
        if prediction is not None:
            checked_predict(tally, wl, inputs, prediction)
    return fit_s, predict_times


def fits_in_window(start: float, seconds: float, rounds: list) -> bool:
    """Whether one more round of the median length ends within the window.

    The first round always runs. Not starting a round that would overrun
    keeps every run close to --seconds, whatever the speed of the machine.
    """
    if not rounds:
        return True
    return perf_counter() - start + statistics.median(rounds) <= seconds


def run_untraced(wl, seed, seconds, problems) -> tuple:
    wl.warm_up(seed)
    tally = Tally()
    setup_times, input_digests = [], set()
    fit_times, predict_times, rounds = [], [], []

    def set_up():
        t0 = perf_counter()
        inputs = wl.setup(seed)
        setup_times.append(perf_counter() - t0)
        input_digests.add(inputs.digest())
        return inputs

    start = perf_counter()
    while fits_in_window(start, seconds, rounds):
        t0 = perf_counter()
        inputs = set_up()
        fit_s, pred_s = timed_op(tally, wl, inputs)
        rounds.append(perf_counter() - t0)
        fit_times.append(fit_s)
        predict_times += pred_s
    while len(setup_times) < SETUP_REPS:
        set_up()
    if len(input_digests) != 1:
        problems.append("set-up from one seed gave different inputs")
    problems += tally.problems()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "fit_s": (statistics.median(fit_times), "s"),
        "predict_s": (statistics.median(predict_times or [float("nan")]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": setup_times, "fit_s": fit_times, "predict_s": predict_times}
    return tally, metrics, samples


def layer_metrics(tracer, setup_tracer) -> dict:
    """Per-layer metrics of one traced set-up, fit and predict."""
    spans = tracer.spans
    roots, own = tracer.roots(), tracer.self_times()
    root_name = [spans[r][0] for r in roots]
    total, self_s = Counter(), Counter()
    layer_in = {"fit": Counter(), "predict": Counter()}
    for i, (name, layer, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_s[name] += own[i]
        if root_name[i] in layer_in:
            layer_in[root_name[i]][layer] += own[i]
    fit_wall = sum(s[3] - s[2] for s in spans if s[4] < 0 and s[0] == "fit")
    io_names = [n for n in self_s if n.startswith("io.")]

    def io_self(prefixes):
        return sum(self_s[n] for n in io_names if n[3:].startswith(prefixes))

    m = {
        "mscale.columns_s": (total["mscale.m_scale_columns"], "s"),
        "fpca.rfpc_s": (total["fpca.rfpc"], "s"),
        "sar.m_fit_s": (self_s["sar.m_fit"], "s"),
        "sar.resolvent_setup_s": (total["sar.ResolventCache"], "s"),
        "weights.build_s": (layer_in["fit"]["weights"] + layer_in["predict"]["weights"], "s"),
        "sar.ml_fit_s": (self_s["sar.ml_fit"], "s"),
        "pipeline.fit_self_s": (self_s["pipeline.fit"], "s"),
        "pipeline.predict_self_s": (self_s["pipeline.predict"], "s"),
        "io.read_s": (io_self(("read_",)), "s"),
        "io.write_s": (io_self(("write_", "atomic_write")), "s"),
        "cli.fit_self_s": (layer_in["fit"]["cli"], "s"),
        "cli.predict_self_s": (layer_in["predict"]["cli"], "s"),
        "functional.build_basis_s": (total["functional.build_basis"], "s"),
        "functional.project_curves_s": (total["functional.project_curves"], "s"),
        "fpls.fpls_s": (total["fpls.fpls"], "s"),
        "fpls.rfpls_s": (total["fpls.rfpls"], "s"),
        "simulation.simulate_s": (
            sum(s[3] - s[2] for s in setup_tracer.spans if s[0] == "simulation.simulate"), "s"
        ),
        "trace.fit_s": (fit_wall, "s"),
    }
    counts = dict(tracer.counts)
    counts["weights.eigvals_calls"] = counts.pop("weights.eig_calls", 0)
    counts["trace.spans"] = len(spans)
    for key in COUNT_METRICS:
        unit = "bytes" if key == "io.bytes_written" else "count"
        m[key] = (counts.get(key, 0), unit)
    for layer in SHARE_LAYERS:
        share = layer_in["fit"][layer] / fit_wall if fit_wall > 0 else 0.0
        m[f"share.{layer}"] = (share, "ratio")
    return m


def traced(tracer, root: str, call):
    """call, run under a root span with the tracer installed."""
    def run():
        with tracer.installed(), tracer.root(root):
            return call()
    return run


def run_traced(wl, seed, seconds, problems) -> tuple:
    from tracing import Tracer

    inputs = wl.setup(seed)
    wl.warm_up(seed)
    tally = Tally()
    reps, untraced, rounds = [], [], []
    start = perf_counter()
    while len(reps) < TRACED_REPS or fits_in_window(start, seconds, rounds):
        # an untraced fit next to each traced one, so that the overhead is
        # measured on the same state of the machine
        t0 = perf_counter()
        untraced.append(timed_op(tally, wl, inputs)[0])
        setup_tracer, tracer = Tracer(), Tracer()
        inputs = traced(setup_tracer, "setup", lambda: wl.setup(seed))()
        model, _ = tally.run(traced(tracer, "fit", wl.fit_call(inputs)))
        if model is None:
            break
        checked_fit(tally, wl, inputs, model)
        prediction, _ = tally.run(traced(tracer, "predict", wl.predict_call(inputs, model)))
        if prediction is None:
            break
        checked_predict(tally, wl, inputs, prediction)
        reps.append(layer_metrics(tracer, setup_tracer))
        rounds.append(perf_counter() - t0)
    problems += tally.problems()

    metrics = {}
    if reps:
        for name, (_, unit) in reps[0].items():
            values = [r[name][0] for r in reps]
            if unit in ("count", "bytes"):
                if len(set(values)) > 1:
                    problems.append(f"traced counter {name} differs between repetitions: {values}")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        untraced_fit_s = statistics.median(untraced)
        metrics["trace.untraced_fit_s"] = (untraced_fit_s, "s")
        metrics["trace.overhead_s"] = (metrics["trace.fit_s"][0] - untraced_fit_s, "s")
    metrics["fail_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    return tally, metrics, {}


def run_one(args) -> int:
    if not (SRC / "ssofr" / "__init__.py").is_file():
        print(f"error: no ssofr sources under {SRC}", file=sys.stderr)
        return 2
    nproc, threads = cap_threads()
    sys.path.insert(0, str(SRC))
    import ssofr

    if Path(ssofr.__file__).resolve().parent != (SRC / "ssofr").resolve():
        print(f"error: ssofr was imported from {ssofr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    problems = []
    try:
        wl = workloads.make(args.workload, str(work_dir))
        runner = run_traced if args.trace else run_untraced
        tally, metrics, samples = runner(wl, args.seed, args.seconds, problems)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("env " + json.dumps(environment(nproc, threads), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
        if name in samples:
            values = samples[name]
            print(f"    {len(values)} samples: fastest {min(values):.6g}, "
                  f"slowest {max(values):.6g}; {[round(v, 4) for v in values]}")
    print(f"  operations {tally.attempted}, failed {tally.hard}, "
          f"not converged or large eta_norm {tally.failed - tally.hard}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"    {count} x {reason}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": tally.hard == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.hard,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace {trace} exited with {proc.returncode}")
                return 1
            results[(name, trace)] = json.loads(lines[-1])

    print("\nsummary")
    for name in WORKLOAD_NAMES:
        plain, layered = results[(name, 0)], results[(name, 1)]
        m = layered["metrics"]
        print(f"{name}: correct {plain['correct'] and layered['correct']}, "
              f"failed {plain['failed'] + layered['failed']} of "
              f"{plain['attempted'] + layered['attempted']}, "
              f"fail_frac (incl. not converged) {m['fail_frac']['value']:.3g}")
        for metric, v in plain["metrics"].items():
            print(f"  {metric:<14} {v['value']:>12.6g} {v['unit']}")
        if "trace.overhead_s" in m:
            print(f"  tracing overhead {m['trace.overhead_s']['value']:.3g} s on a traced "
                  f"fit of {m['trace.fit_s']['value']:.4g} s")
        shares = sorted(((v["value"], k[6:]) for k, v in m.items() if k.startswith("share.")),
                        reverse=True)
        print("  fit self-time shares: " + ", ".join(f"{k} {v:.3f}" for v, k in shares))
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
