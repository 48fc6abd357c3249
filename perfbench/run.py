#!/usr/bin/env python3
"""nilcert benchmark: three workloads driven through the command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {certify,plan,sweep} --seed N \
        --seconds S --trace {0,1}

The benchmark runs nilcert from ``src/`` as separate processes, one at a
time (a closed loop with one client), with BLAS pinned to one thread and
every process pinned to one CPU.  It times one cold ``verify-matrix``
process as the set-up cost, then repeats whole rounds of the workload's
operations for ``--seconds`` and checks every output against values
recomputed with numpy (``checks.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

A speed probe (``probe.py``) samples the CPU nilcert runs on throughout
the run.  Each process's wall time is divided by the host's slowdown
while it ran: the mean probe sample in its interval over the probe's
time in the host's fast state (``FAST_SAMPLE_S``).  On a quiet host that
factor is about 1.

With ``--trace 0`` the metrics are end to end: ``wall_s`` (median round
wall time, slowdown divided out), ``setup_s`` (likewise) and
``peak_rss_mb``.  With ``--trace 1`` the run makes one untraced round and
one round under ``tracing.py`` and reports the per-module metrics
instead, with raw wall times.  Outputs go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# A probe sample's time, sharing its CPU with nilcert, when the host is in
# its fast state.  It was chosen on a 2-core Xeon VM (Sapphire Rapids,
# KVM) so that rescaled round times match the fastest raw ones there.
# Wall times are rescaled to this speed.
FAST_SAMPLE_S = 0.6e-3

DEFAULT_MATRIX = [[2, -3, 1], [-3, 6, -2], [1, -2, 1]]
# Companion matrices of x^3 - t x^2 + s x - 1.  Their lower-annulus
# avoidance sweeps need 3, 4, 5 and 6 grid doublings; (9, 6) has the
# default spectrum.
PLAN_FAMILY = [[[0, 0, 1], [1, 0, -s], [0, 1, t]] for t, s in ((9, 6), (12, 7), (15, 8), (19, 9))]
# The default construction with fewer samples, so that one certify fits
# a run: the full default takes 130-150 s on a 2-core Xeon VM without numba.
CERTIFY_CONFIG = {
    "matrix": DEFAULT_MATRIX,
    "theta_grid": 128,
    "robustness_grid": 100,
    "mc_trials": 50,
    "sample_count": 32,
    "probe_count": 4,
}
SWEEP_SUPPORTS = [0.05, 6.25e-3, 7.8125e-4, 9.765625e-5, 1.220703125e-5]


@dataclass
class Op:
    """One nilcert process: its command, config, and where its outputs go."""

    command: str
    config: dict
    out: Path


@dataclass
class Done:
    start: float  # time.monotonic() seconds
    end: float
    cpu_s: float
    rss_mb: float
    exit_code: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class SpeedProbe:
    """The ``probe.py`` process, sampling the speed of the CPU nilcert runs on."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), str(cpu)],
                                     cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.close()
            raise RuntimeError("the speed probe did not start")
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        out, _ = self.proc.communicate(b"", timeout=30)
        self.samples = [tuple(s) for s in json.loads(out)]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def slowdown(self, done: Done) -> float:
        """Mean probe sample while ``done`` ran, over the fast-state sample."""
        inside = [d for t, d in self.samples if done.start <= t <= done.end]
        if not inside:  # shorter than one probe interval
            mid = (done.start + done.end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.fmean(inside) / FAST_SAMPLE_S

    def steady_s(self, done: Done) -> float:
        """Wall time with the host's slowdown divided out."""
        return done.wall_s / self.slowdown(done)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv: list[str], out: Path, timeout: float, cpu: int) -> Done:
    """Run argv to completion on ``cpu`` through ``spawn.py``, with stdout and
    stderr in ``out``; wall time, CPU time and peak RSS are that child's own."""
    out.mkdir(parents=True, exist_ok=True)
    spawn = [sys.executable, "-S", str(BENCH_DIR / "spawn.py"), str(out), str(max(timeout, 1.0)),
             str(cpu), "--"]
    done = subprocess.run(spawn + argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(timeout, 1.0) + 30.0)
    start, end, cpu_s, maxrss_kib, code = json.loads(done.stdout)
    return Done(start, end, cpu_s, maxrss_kib / 1024.0, code)


def nilcert_argv(op: Op, seed: int, trace_file: Path | None = None) -> list[str]:
    op.out.mkdir(parents=True, exist_ok=True)
    cfg = op.out / "config.json"
    cfg.write_text(json.dumps(op.config))
    args = [op.command, "--config", str(cfg), "--out", str(op.out), "--seed", str(seed)]
    if trace_file is None:
        return [sys.executable, "-m", "nilcert.pipeline_cli", *args]
    return [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_file), "--", *args]


def check_output(op: Op) -> None:
    """Independent checks on one finished operation's outputs."""
    matrix = op.config["matrix"]
    if op.command == "verify-matrix":
        frag = json.loads((op.out / "stdout.txt").read_text())
        checks.check_roots(matrix, frag["roots"])
    elif op.command == "plan":
        frag = json.loads((op.out / "stdout.txt").read_text())
        checks.check_plan(matrix, frag, 0.05)
        checks.check_avoidance(matrix, frag)
    elif op.command == "certify":
        report = json.loads((op.out / "report.json").read_text())
        checks.check_certify_report(report, op.config)
        for name in ("margin_vs_n.csv", "support_sweep.csv", "psi_profile.csv"):
            if not (op.out / "curves" / name).is_file():
                raise checks.CheckFailure(f"certify wrote no curves/{name}")
    elif op.command == "sweep-support":
        lines = (op.out / "curves" / "support_sweep.csv").read_text().split()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        checks.check_sweep(rows, SWEEP_SUPPORTS)


def workload_ops(workload: str, seed: int, out: Path) -> tuple[list[Op], list[Op]]:
    """(set-up ops, one round of ops).  The first set-up op is the timed one."""
    if workload == "plan":
        order = list(range(len(PLAN_FAMILY)))
        random.Random(seed).shuffle(order)
        setup = [Op("verify-matrix", {"matrix": m}, out / f"setup{k}") for k, m in enumerate(PLAN_FAMILY)]
        round_ = [Op("plan", {"matrix": PLAN_FAMILY[k]}, out / f"plan{k}") for k in order]
        return setup, round_
    setup = [Op("verify-matrix", {"matrix": DEFAULT_MATRIX}, out / "setup0")]
    if workload == "certify":
        return setup, [Op("certify", CERTIFY_CONFIG, out / "certify")]
    return setup, [Op("sweep-support", {"matrix": DEFAULT_MATRIX}, out / "sweep")]


class Runner:
    """Runs operations, counts attempts and failures, checks outputs."""

    def __init__(self, seed: int, started: float, cpu: int) -> None:
        self.seed = seed
        self.started = started
        self.cpu = cpu
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.done: list[Done] = []

    def run(self, op: Op, trace_file: Path | None = None) -> Done:
        if op.out.exists():
            shutil.rmtree(op.out)
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        done = run_process(nilcert_argv(op, self.seed, trace_file), op.out, remaining, self.cpu)
        self.attempted += 1
        self.done.append(done)
        if done.exit_code != 0:
            self.failed += 1
            tail = (op.out / "stderr.txt").read_text()[-400:]
            print(f"{op.command} exited {done.exit_code}: {tail}", file=sys.stderr)
            return done
        try:
            check_output(op)
        except (checks.CheckFailure, OSError, ValueError, LookupError, TypeError) as exc:
            self.errors.append(f"{op.command} {op.out.name}: {exc!r}")
        return done

    def run_round(self, ops: list[Op], trace_dir: Path | None = None) -> list[Done]:
        return [
            self.run(op, None if trace_dir is None else trace_dir / f"{op.out.name}.json")
            for op in ops
        ]


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "plan", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilcert" / "pipeline_cli.py").is_file():
        print(f"no nilcert sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                           cwd=ROOT, env=child_env(), timeout=120)
    if build.returncode != 0:
        print("compiling src/ failed", file=sys.stderr)
        return 2

    # nilcert and the probe share one CPU; the benchmark's own checks use the others.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[0]
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[1:])

    out = WORK / args.workload
    if out.exists():
        shutil.rmtree(out)
    setup, round_ = workload_ops(args.workload, args.seed, out)
    runner = Runner(args.seed, started, cpu)
    probe = SpeedProbe(cpu)
    try:
        setup_done = runner.run(setup[0])
        for op in setup[1:]:
            runner.run(op)
        if args.trace:
            untraced = runner.run_round(round_)
            trace_dir = out / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced = runner.run_round(round_, trace_dir)
        else:
            measure_from = time.perf_counter()
            rounds: list[list[Done]] = []
            while True:
                rounds.append(runner.run_round(round_))
                last = sum(d.wall_s for d in rounds[-1])
                if time.perf_counter() - measure_from + last > args.seconds:
                    break
        probe.stop()
    finally:
        probe.close()
    (out / "probe.json").write_text(json.dumps({
        "samples": probe.samples,
        "processes": [[d.start, d.end] for d in runner.done]}))

    if args.trace:
        wall = sum(d.wall_s for d in untraced)
        traced_wall = sum(d.wall_s for d in traced)
        metrics = tracing.layer_metrics(sorted(trace_dir.glob("*.json")))
        metrics.update({
            "process.cpu_s": {"value": sum(d.cpu_s for d in untraced), "unit": "s"},
            "trace.wall_s": {"value": traced_wall, "unit": "s"},
            "trace.untraced_wall_s": {"value": wall, "unit": "s"},
            "trace.overhead_s": {"value": traced_wall - wall, "unit": "s"},
            "trace.host_slowdown": {"value": wall / sum(probe.steady_s(d) for d in untraced),
                                    "unit": "ratio"},
        })
    else:
        steady = [sum(probe.steady_s(d) for d in r) for r in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(steady), "unit": "s"},
            "setup_s": {"value": probe.steady_s(setup_done), "unit": "s"},
            "peak_rss_mb": {"value": max(d.rss_mb for r in rounds for d in r), "unit": "MiB"},
        }
        print(f"{args.workload} seed {args.seed}: rounds {[round(v, 3) for v in steady]} s, raw "
              f"{[round(sum(d.wall_s for d in r), 3) for r in rounds]} s; set-up "
              f"{setup_done.wall_s:.3f} s raw", file=sys.stderr)

    for err in runner.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
