#!/usr/bin/env python3
"""cellmimo benchmark: the README's commands, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``cellmimo`` from
``src/`` and from nowhere else.  One process, one client, closed loop: each
pass runs the workload's ``cellmimo`` commands one after another through
``cellmimo.cli.main`` with the default ``--threads``.  The first pass fills
the caches and is not timed; passes then repeat for ``--seconds`` and each
command's median time, normalised for machine speed (see
``CALIBRATION_REF_S``), is reported.  Every output is checked (see
``checks.py``); a command that exits non-zero or fails a check is a failed
operation, and the run then exits 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics: spans come from
wrappers installed by ``tracing.py``, so ``src/`` is not edited.  The last
line of standard output is one JSON object; a summary and the full span
record go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import integrate, special

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# Four samples per command for its median, even when a pass is long.
MIN_TIMED_PASSES = 4
MAX_SECONDS = 60
SE_TARGET = 1e-3

# Speed normalisation.  On a shared 2-core host the speed of the same code
# drifts by 25-50 % within minutes (neighbours contend for the cores'
# caches), which no estimator inside a 15-second run can average away.  So a
# fixed calibration loop that uses no cellmimo code runs before and after
# every timed command, and each command's time is rescaled by
# CALIBRATION_REF_S / (mean loop time around it): reported seconds are
# seconds at the speed where the loop takes CALIBRATION_REF_S, about its
# median on a 2-vCPU KVM guest of an Intel Xeon (family 6, model 207).  Raw
# wall times are printed and written to the results file too.
CALIBRATION_REF_S = 0.027
_CALIBRATION_ARRAY = np.linspace(0.5, 1.0, 64 * 200).reshape(64, 200)
_CALIBRATION_B = np.linspace(0.3, 1.9, 48)

SETUP_CODE = """
import contextlib, io, json, sys
from cellmimo.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        sys.exit(10 + rc)
"""

_UNITS = {
    "peak_rss_mb": "MB", "mc_trials_per_s": "1/s", "mc_s_at_se1e-3": "s",
    "fail_frac": "fraction", "trace.overhead_frac": "fraction",
    "montecarlo.draw_bytes": "bytes", "montecarlo.draw_bytes_per_s": "bytes/s",
}


def unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


# --------------------------------------------------------------------------
# Running commands


class Run:
    """Counters and results of one benchmark invocation."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.ops, self.extra_ops = workloads.build(workload, seed)
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.context: dict[str, dict[str, float]] = {}
        self.worst_se: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def call(main, argv) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a failed operation, not the end of the run
        rc = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - started, rc, out.getvalue(), err.getvalue()


def check_output(run: Run, op: workloads.Op, text: str) -> list[str]:
    if op.kind == "anchor":
        return checks.check_anchor(op, text)
    if op.kind == "curve":
        counterpart = getattr(op.spec, "counterpart", None)
        return checks.check_curve(op, text, run.reference,
                                  run.context.get(counterpart) if counterpart else None)
    if op.kind == "rate":
        return checks.check_rate(op, text, run.reference)
    if op.kind == "validate":
        problems, run.worst_se[op.name] = checks.check_validate(op, text)
        return problems
    problems, run.worst_se[op.name] = checks.check_mc_curve(
        op, text, run.context.get(op.name + "_analytic", {}))
    return problems


def run_extra(run: Run, main) -> None:
    """Untimed commands whose outputs the checks compare against."""
    for op in run.extra_ops:
        run.attempted += 1
        _, rc, out, err = call(main, op.argv)
        if rc != 0:
            run.fail(f"{op.name}: exit {rc}: {err.strip()[-500:]}")
            continue
        run.context[op.name] = checks.coverage_by_z(out)


def _calibration_integrand(u: float, b: float) -> float:
    lu = math.log(u)
    return math.exp(3.5 * lu - float(special.gammaln(3.0)) - b * u * u - u)


def calibrate() -> float:
    """Seconds taken by a fixed mix of the three kinds of work the laws do:
    interpreter loops, small-array numpy, and ``quad`` over a Python
    integrand that calls scipy.special."""
    started = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i
    for _ in range(200):
        np.cumprod(_CALIBRATION_ARRAY, axis=0).sum(axis=0)
    for b in _CALIBRATION_B:
        integrate.quad(_calibration_integrand, 0.0, np.inf, args=(b,),
                       epsabs=1e-13, epsrel=1e-11, limit=200)
    return time.perf_counter() - started


@dataclass
class Pass:
    """Raw and speed-normalised seconds of each command of one pass."""

    raw: dict[str, float] = field(default_factory=dict)
    scaled: dict[str, float] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)

    @property
    def speed_factor(self) -> float:
        """CALIBRATION_REF_S over the pass's mean calibration time."""
        return CALIBRATION_REF_S * len(self.calibrations) / sum(self.calibrations)


def op_medians(passes: list[Pass], attr: str = "scaled") -> dict[str, float]:
    """Each command's median time over the passes.  Summing these is steadier
    than taking the median of pass sums: one slow command in a pass does not
    make the whole pass an outlier."""
    return {name: statistics.median(getattr(p, attr)[name] for p in passes)
            for name in getattr(passes[0], attr)}


def run_pass(run: Run, main, *, first: bool = False) -> Pass:
    """One pass over the workload, each command timed between calibrations.

    The first pass checks every output in full and records its sha256; later
    passes must reproduce those bytes exactly (for Monte Carlo commands this
    is the fixed-chunk seeding contract).
    """
    result = Pass()
    before = calibrate()
    result.calibrations.append(before)
    for op in run.ops:
        seconds, rc, out, err = call(main, op.argv)
        after = calibrate()
        result.calibrations.append(after)
        result.raw[op.name] = seconds
        result.scaled[op.name] = seconds * CALIBRATION_REF_S / (0.5 * (before + after))
        before = after
        run.attempted += 1
        if rc != 0:
            run.fail(f"{op.name}: exit {rc}: {err.strip()[-500:]}")
            continue
        digest = hashlib.sha256(out.encode()).hexdigest()
        if first:
            run.digests[op.name] = digest
            problems = check_output(run, op, out)
            if problems:
                run.fail("; ".join(problems[:5]))
        elif digest != run.digests.get(op.name):
            run.fail(f"{op.name}: output differs from the first pass "
                     f"({digest[:12]} vs {run.digests.get(op.name, 'none')[:12]})")
    return result


# --------------------------------------------------------------------------
# Metrics


def measure_setup(run: Run) -> float:
    """Median wall time of a fresh process that imports cellmimo and makes
    the cold first call of each law the workload uses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argvs = json.dumps([list(a) for a in workloads.COLD_CALLS[run.workload]])
    samples = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        run.attempted += 1
        started = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, argvs], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        except subprocess.TimeoutExpired:
            run.fail("set-up process timed out")
            continue
        seconds = time.perf_counter() - started
        after = calibrate()
        samples.append(seconds * CALIBRATION_REF_S / (0.5 * (before + after)))
        before = after
        if proc.returncode != 0:
            run.fail(f"set-up process exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return statistics.median(samples) if samples else math.nan


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def split_metrics(run: Run, passes: list[Pass]) -> dict[str, float]:
    """Per-kind sums of the commands' normalised medians, plus MC throughput
    and the time each MC call would need to reach a standard error of 1e-3."""
    med = op_medians(passes)
    kinds = {op.name: op.kind for op in run.ops}
    mc = [n for n, k in kinds.items() if k in ("validate", "mc_curve")]
    mc_time = sum(med[n] for n in mc)
    return {
        "curves_s": sum(med[n] for n, k in kinds.items() if k in ("curve", "anchor")),
        "rates_s": sum(med[n] for n, k in kinds.items() if k == "rate"),
        "mc_trials_per_s": sum(op.trials for op in run.ops) / mc_time if mc_time else 0.0,
        "mc_s_at_se1e-3": sum(
            med[n] * (run.worst_se.get(n, math.inf) / SE_TARGET) ** 2 for n in mc),
        "fail_frac": run.failed / max(1, run.attempted),
    }


def timed_loop(run: Run, main, seconds: float) -> list[Pass]:
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < MIN_TIMED_PASSES:
        passes.append(run_pass(run, main))
    return passes


def baseline_rows(run: Run, passes: list[Pass], main) -> list[tuple[str, str, float, str]]:
    """ROADMAP baseline rows that fall inside this workload, measured now
    (raw untraced medians, as the ROADMAP measured them):
    (row, ROADMAP value, now, unit)."""

    def op_median(name):
        return statistics.median(p.raw[name] for p in passes)

    rows = []
    if run.workload == "analytic_zero_noise":
        rows.append(("rate_profile MMSE 1x4 sst", "0.09 s", op_median("mmse_sst_1x4"), "s"))
        rows.append(("rate_profile PZF 1x4 m=2 sst, zero noise", "2.4 s",
                     op_median("pzf_sst_1x4_m2"), "s"))
        probe = ("coverage", "--rx", "pzf", "--nt", "1", "--nr", "4", "--m", "2",
                 "--alpha", "2.05", "--zdb", "20:20:1")
        samples = []
        for _ in range(3):
            seconds, rc, _, err = call(main, probe)
            run.attempted += 1
            if rc != 0:
                run.fail(f"alpha 2.05 probe: exit {rc}: {err.strip()[-500:]}")
            samples.append(seconds)
        rows.append(("PZF zero-noise point, alpha 2.05, z = 100", "0.50 s",
                     statistics.median(samples), "s"))
    if run.workload == "analytic_noisy":
        op = next(o for o in run.ops if o.name == "pzf_1x4_m2_s1")
        rows.append(("coverage_pzf noisy point 1x4 (curve mean)", "85 ms",
                     1e3 * op_median(op.name) / len(op.grid_db), "ms"))
    roadmap = {"validate_2x5_m2": "29 s (paired 2x5, 400 stations)",
               "validate_1x4_m2_a3.5": "94 s (paired 1x4 alpha 3.5, 3200 stations)",
               "mc_pzf_2x5_m2": "25 s (PZF only 2x5, 400 stations)"}
    for op in run.ops:
        if op.trials:
            rows.append((f"MC s per 1e5 trials, {op.name}, 1600 stations",
                         roadmap.get(op.name, "-"), 1e5 * op_median(op.name) / op.trials, "s"))
    return rows


def measure_end_to_end(run: Run, cli, seconds: float, setup_s: float):
    passes = timed_loop(run, cli.main, seconds)
    metrics = {"setup_s": setup_s, "wall_s": sum(op_medians(passes).values()),
               "peak_rss_mb": peak_rss_mb()}
    splits = split_metrics(run, passes)
    print(f"end-to-end ({len(passes)} timed passes, medians; seconds are normalised "
          f"to a {CALIBRATION_REF_S} s calibration loop):")
    for name, value in metrics.items():
        report(name, value, unit(name))
    report("raw wall_s (not normalised)", sum(op_medians(passes, "raw").values()), "s")
    for name, value in splits.items():
        if value > 0 or name == "fail_frac":
            report(name, value, unit(name))
    return metrics, {"passes": [vars(p) for p in passes], "splits": splits}


def measure_layers(run: Run, cli, seconds: float):
    """Alternate traced and untraced passes; per-layer metrics of the traced
    ones, the workload splits and the tracing overhead from both."""
    rec = tracing.SpanRecorder()
    traced_main = rec.span("cli", cli.main)
    traced, plain, times_per_pass, tables = [], [], [], []
    counts, first_spans, skipped, count_errors = None, None, [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        rec.reset()
        with tracing.Instrumentation(rec) as inst:
            traced.append(run_pass(run, traced_main))
        skipped = inst.skipped
        count_errors = rec.counts.get("trace.count_errors", 0)
        times, pass_counts = tracing.layer_metrics(rec)
        times_per_pass.append({k: v * traced[-1].speed_factor for k, v in times.items()})
        tables.append(tracing.span_table(rec.spans))
        if counts is None:
            counts = pass_counts
            t0 = rec.spans[0][1] if rec.spans else 0.0
            first_spans = [[n, round(a - t0, 7), round(b - t0, 7), p]
                           for n, a, b, p in rec.spans]
        elif pass_counts != counts:
            diff = {k: (counts[k], v) for k, v in pass_counts.items() if counts[k] != v}
            run.fail(f"traced counts differ between passes: {diff}")
        plain.append(run_pass(run, cli.main))

    layer = {name: statistics.median(t[name] for t in times_per_pass)
             for name in times_per_pass[0]}
    layer.update(counts)
    sim_s = layer["montecarlo.simulate.s"]
    layer["montecarlo.draw_bytes_per_s"] = (
        layer["montecarlo.draw_bytes"] / sim_s if sim_s > 0 else 0.0)
    layer["trace.overhead_frac"] = (
        sum(op_medians(traced).values()) / sum(op_medians(plain).values()) - 1.0)
    layer.update(split_metrics(run, plain))
    print(f"per-layer ({len(traced)} traced and {len(plain)} untraced passes; "
          "span times are inclusive, normalised medians per pass; counts are per pass):")
    for name, value in layer.items():
        note = " (computed from window and array shapes)" if name.startswith(
            ("montecarlo.draw", "montecarlo.stations")) else ""
        report(name + note, value, unit(name))
    if skipped:
        print(f"  not traced (absent in this version): {', '.join(skipped)}")
    if count_errors:
        print(f"  {count_errors:g} calls could not be counted (changed signatures)")
    rows = baseline_rows(run, plain, cli.main)
    if rows:
        print("ROADMAP baseline rows, measured now (untraced medians):")
        for label, then, now, row_unit in rows:
            print(f"  {label:<58} ROADMAP {then:<44} now {now:.4g} {row_unit}")
    return layer, {"traced_passes": [vars(p) for p in traced],
                   "untraced_passes": [vars(p) for p in plain],
                   "span_tables": tables, "baseline_rows": rows,
                   "first_pass_spans": first_spans}


# --------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in (0, {MAX_SECONDS}]")
    return args


def import_cli():
    """``cellmimo.cli`` from this checkout's ``src/``; exits 2 if it is absent."""
    if not (SRC / "cellmimo" / "__init__.py").is_file():
        print(f"error: no cellmimo sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cellmimo.cli

    if not Path(cellmimo.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cellmimo.cli.__file__}, not the checkout", file=sys.stderr)
        raise SystemExit(2)
    return cellmimo.cli


def report(label: str, value: float, unit: str) -> None:
    text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    print(f"  {label:<44} {text:>14} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    run = Run(args.workload, args.seed)
    cli = import_cli()
    setup_s = measure_setup(run) if args.trace == 0 else None

    env = envinfo.environment(ROOT, args.seed)
    print(f"cellmimo benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")

    run_extra(run, cli.main)
    run_pass(run, cli.main, first=True)
    result: dict = {"environment": env, "workload": args.workload,
                    "inputs": [" ".join(op.argv) for op in run.ops]}

    if args.trace == 0:
        metrics, details = measure_end_to_end(run, cli, args.seconds, setup_s)
    else:
        metrics, details = measure_layers(run, cli, args.seconds)
    result.update(details)

    print(f"operations: {run.attempted} attempted, {run.failed} failed "
          f"(fail_frac {run.failed / max(1, run.attempted):.3g})")
    summary = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
               "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()}}
    result.update(summary, problems=run.problems)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, default=str) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
