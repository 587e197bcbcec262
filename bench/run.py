"""Benchmark of rindler-lab: four seeded workloads, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` and
runs the CLI with ``PYTHONPATH=src``.  Each workload is a closed loop with
one client: an op starts only after the previous one has completed, and the
loop stops at the end of the first mix cycle that brings the timed ops to
``--seconds``.  Every op's output is checked against the stored mpmath
references, or against the physics identities the CLI itself checks,
outside the timed interval.  Timings are scaled by a reference computation
timed just before each op, which takes out most of the shared host's speed
changes (see ``Loop.scaled``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: counts from a counting pass over the first mix cycle,
times from cycles that run once untraced and then again traced, and the
tracing overhead between those two.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with the environment and the sample count behind every
timing, goes to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.integrate import quad

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# times of calibration() and import_calibration() at the host's fast
# state; timings are scaled to them
CALIBRATION_REF_S = 1.2e-3
IMPORT_CALIBRATION_REF_S = 0.14
CALIBRATION_WINDOW = 9
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

VERIFY_CHECKS = (
    "gamma-identity",
    "quad-vs-closed",
    "kms-twist",
    "bogoliubov-norm",
    "roundtrip-coords",
    "ratio-thermal",
    "temperature-identity",
    "mirror-boundary",
)

PER_LAYER = {
    "numerics.quad.calls": "count",
    "numerics.quad.evals": "count",
    "numerics.quad.budget_errors": "count",
    "numerics.quad.s": "s",
    "numerics.osc.calls": "count",
    "numerics.osc.s": "s",
    "numerics.lig.series.calls": "count",
    "numerics.lig.ray.calls": "count",
    "numerics.lig.limit.calls": "count",
    "numerics.lig.cf.calls": "count",
    "numerics.lig.s": "s",
    "numerics.lgamma.calls": "count",
    "numerics.lgamma.s": "s",
    "perturbation.sweep.calls": "count",
    "perturbation.records": "count",
    "perturbation.sweep.self_s": "s",
    "vacua.kms.calls": "count",
    "vacua.kms.s": "s",
    "vacua.twist.calls": "count",
    "vacua.twist.self_s": "s",
    "modes.kg_inner.calls": "count",
    "modes.kg_inner.samples": "count",
    "modes.kg_inner.s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.write_s": "s",
    **{f"cli.verify.{check}.s": "s" for check in VERIFY_CHECKS},
    "trace.count_ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}

_clock = time.perf_counter


def calibration() -> float:
    """Seconds taken by a fixed computation that does not use rindler_lab.

    Python complex arithmetic and a scipy ``quad`` with a Python integrand,
    the two kinds of work the in-process workloads do.
    """
    start = _clock()
    acc = 0j
    for k in range(1, 2000):
        acc += cmath.exp(1j * k * 1e-3) / (k + 0.5j)
    quad(lambda t: cmath.exp(1j * t * t).real, 0.0, 20.0, limit=200)
    return _clock() - start


def import_calibration(env) -> float:
    """Seconds a fresh interpreter takes to ``import numpy``.

    The reference for timings of child interpreters, which spend most of
    their time importing.
    """
    return time_subprocess([sys.executable, "-c", "import numpy"], env)[0]


class Loop:
    """Latencies, checked values and failures of the ops one loop ran.

    Each op is preceded by a run of ``calibrate``, outside its timed
    interval, so that its latency can be scaled to the speed at which
    ``calibrate`` takes ``ref_s`` seconds.
    """

    def __init__(self, calibrate, ref_s: float):
        self.calibrate = calibrate
        self.ref_s = ref_s
        self.samples: list[tuple[str, float, int, float]] = []  # label, latency, points, calibration
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, call=None) -> None:
        self.attempted += 1
        calib = self.calibrate()
        start = _clock()
        try:
            out = call() if call is not None else op.run()
        except Exception as exc:  # any raise fails the op; the loop goes on
            self.elapsed += _clock() - start
            self.failed += 1
            self.errors.append(f"{op.label}: raised {exc!r}")
            return
        latency = _clock() - start
        self.elapsed += latency
        points, errors = op.check(out)
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
            return
        self.samples.append((op.label, latency, points, calib))

    def scaled(self) -> list[tuple[float, int]]:
        """``(latency, points)`` of every completed op, at the reference speed.

        The shared host runs the same code up to 1.5x slower for seconds to
        minutes at a time.  Each latency is multiplied by ``ref_s`` over the
        median calibration time of the nine ops around it, which takes most
        of that slowdown out.
        """
        calibs = [c for *_, c in self.samples]
        half = CALIBRATION_WINDOW // 2
        return [
            (latency * self.ref_s / _median(calibs[max(0, i - half): i + half + 1]), points)
            for i, (_, latency, points, _) in enumerate(self.samples)
        ]

    def ops_per_s(self) -> float:
        busy = sum(latency for latency, _ in self.scaled())
        return len(self.samples) / busy if busy > 0 else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RINDLER_LAB_THREADS", None)  # sweeps stay serial
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def time_subprocess(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    start = _clock()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    elapsed = _clock() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc


def parse_importtime(stderr: str) -> tuple[float, float]:
    """``(rindler_lab total, outermost scipy imports)`` in seconds.

    ``-X importtime`` prints children before their parent, indented two
    spaces per level; reading it backwards puts every ancestor on the stack
    before its descendants.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        entries.append(((len(raw) - len(raw.lstrip()) - 1) // 2, name, int(cumulative) * 1e-6))
    total = scipy = 0.0
    stack: list[str] = []
    for level, name, cumulative in reversed(entries):
        del stack[level:]
        if level == 0 and name.split(".")[0] == "rindler_lab":
            total += cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in stack):
            scipy += cumulative
        stack.append(name)
    return total, scipy


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def _cycle(stream):
    """The ops of the next mix cycle of ``stream``."""
    ops = []
    for op in stream:
        ops.append(op)
        if op.last_in_cycle:
            return ops
    return ops


# -- end to end ---------------------------------------------------------------


def run_end_to_end(args, stream, env, in_process: bool, new_loop):
    module = "rindler_lab.cli" if args.workload == "cli" else "rindler_lab"
    setup_raw, setup = [], []
    for _ in range(SETUP_REPEATS):
        calib = import_calibration(env)
        elapsed = time_subprocess([sys.executable, "-c", f"import {module}"], env)[0]
        setup_raw.append(elapsed)
        setup.append(elapsed * IMPORT_CALIBRATION_REF_S / calib)
    if in_process:
        for op in _cycle(stream):  # warm-up, neither timed nor counted
            op.run()
    loop = new_loop()
    for op in stream:
        loop.run(op)
        if op.last_in_cycle and loop.elapsed >= args.seconds:
            break
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    scaled = loop.scaled()
    busy = sum(latency for latency, _ in scaled)
    latencies_ms = [latency * 1e3 for latency, _ in scaled]
    p90 = _percentile(latencies_ms, 0.9)
    metrics = {
        "setup_s": _median(setup),
        "ops_per_s": len(scaled) / busy,
        "points_per_s": sum(points for _, points in scaled) / busy,
        "op_p50_ms": _percentile(latencies_ms, 0.5),
        "op_p90_ms": p90,
        # ru_maxrss is in KiB on Linux; for cli the children are the CLI
        # runs, whose peak is above the import-only set-up children
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    raw = [latency for _, latency, _, _ in loop.samples]
    samples = {
        "setup_s": len(setup),
        "ops": len(scaled),
        "op_p90_ms_beyond": sum(1 for x in latencies_ms if x > p90),
        "timed_s": loop.elapsed,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": _percentile(raw, 0.5) * 1e3,
        "raw_setup_s": _median(setup_raw),
        "calibration_median_ms": _median([c for *_, c in loop.samples]) * 1e3,
    }
    extra = {
        "setup_runs_s": setup_raw,
        "op_latencies_s": [[label, latency, calib] for label, latency, _, calib in loop.samples],
    }
    return metrics, samples, loop, extra


# -- traced -------------------------------------------------------------------


def _layer_metrics(count, timed, n_timed, count_ops, imports, plain, traced):
    def per_op(name, self_time=False):
        return timed.seconds(name, self_time) / n_timed if n_timed else 0.0

    m = {
        "numerics.quad.calls": count.calls("numerics.quad"),
        "numerics.quad.evals": count.counts["numerics.quad.evals"],
        "numerics.quad.budget_errors": count.counts["numerics.quad.raised.QuadratureBudgetError"],
        "numerics.quad.s": per_op("numerics.quad"),
        "numerics.osc.calls": count.calls("numerics.osc"),
        "numerics.osc.s": per_op("numerics.osc"),
        **{
            f"numerics.lig.{b}.calls": count.counts[f"numerics.lig.{b}.calls"]
            for b in ("series", "ray", "limit", "cf")
        },
        "numerics.lig.s": per_op("numerics.lig"),
        "numerics.lgamma.calls": count.calls("numerics.lgamma"),
        "numerics.lgamma.s": per_op("numerics.lgamma"),
        "perturbation.sweep.calls": count.calls("perturbation.sweep"),
        "perturbation.records": count.counts["perturbation.records"],
        "perturbation.sweep.self_s": per_op("perturbation.sweep", self_time=True),
        "vacua.kms.calls": count.calls("vacua.kms"),
        "vacua.kms.s": per_op("vacua.kms"),
        "vacua.twist.calls": count.calls("vacua.twist"),
        "vacua.twist.self_s": per_op("vacua.twist", self_time=True),
        "modes.kg_inner.calls": count.calls("modes.kg_inner"),
        "modes.kg_inner.samples": count.counts["modes.kg_inner.samples"],
        "modes.kg_inner.s": per_op("modes.kg_inner"),
        "cli.import_s": _median([t for t, _ in imports]),
        "cli.import.scipy_s": _median([s for _, s in imports]),
        "cli.write_s": per_op("cli.write"),
        **{f"cli.verify.{c}.s": per_op(f"cli.verify.{c}") for c in VERIFY_CHECKS},
        "trace.count_ops": count_ops,
        "trace.ops_per_s": traced.ops_per_s(),
        "trace.untraced_ops_per_s": plain.ops_per_s(),
    }
    m["trace.overhead_pct"] = (
        100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1.0) if traced.ops_per_s() else 0.0
    )
    return m


def run_traced(args, make_stream, env, workdir, in_process: bool, new_loop):
    import spans
    from workloads import cli_argv

    imports = [
        parse_importtime(
            time_subprocess([sys.executable, "-X", "importtime", "-c", "import rindler_lab.cli"], env)[1].stderr
        )
        for _ in range(IMPORTTIME_REPEATS)
    ]
    reports = []

    def run_cli_traced(loop, tracer, op, mode):
        report = workdir / f"report-{mode}-{len(reports)}.json"
        reports.append(report)
        loop.run(op, call=lambda: op.run(cli_argv(op.cli_args, report, mode)))
        if report.exists():
            tracer.merge(json.loads(report.read_text(encoding="utf-8")))

    # counting pass: the first mix cycle, with integrand evaluations counted
    count = spans.Tracer(count_evals=True)
    counting = new_loop()
    count_ops = _cycle(make_stream())
    if in_process:
        spans.install(count)
        try:
            for op in count_ops:
                count.op = counting.attempted
                counting.run(op)
        finally:
            count.uninstall()
    else:
        for op in count_ops:
            run_cli_traced(counting, count, op, "count")

    # timed passes: each cycle runs untraced, then again traced
    timed = spans.Tracer()
    plain, traced = new_loop(), new_loop()
    stream = make_stream()
    while plain.elapsed + traced.elapsed < args.seconds or traced.attempted == 0:
        cycle = _cycle(stream)
        for op in cycle:
            plain.run(op)
        if in_process:
            spans.install(timed)
            try:
                for op in cycle:
                    timed.op = traced.attempted
                    traced.run(op)
            finally:
                timed.uninstall()
        else:
            for op in cycle:
                run_cli_traced(traced, timed, op, "time")

    metrics = _layer_metrics(
        count, timed, traced.attempted, len(count_ops), imports, plain, traced
    )
    samples = {
        "counting_ops": counting.attempted,
        "untraced_ops": plain.attempted,
        "traced_ops": traced.attempted,
        "cli.import_s": len(imports),
        "cli.import.scipy_s": len(imports),
        "timed_s": plain.elapsed + traced.elapsed,
    }
    loop = new_loop()
    for part in (counting, plain, traced):
        loop.attempted += part.attempted
        loop.failed += part.failed
        loop.errors += part.errors
    n = max(traced.attempted, 1)
    layers = sorted(
        (
            (name, calls, total / n, self_s / n)
            for name, (calls, total, self_s) in timed.stats.items()
        ),
        key=lambda row: -row[3],
    )
    trace_record = {
        "self_time_per_op": [
            {"span": name, "calls": calls, "total_s": total, "self_s": self_s}
            for name, calls, total, self_s in layers
        ],
        "counting_pass": count.report(),
        "timed_pass": timed.report(),
        "cli_child_reports": [str(p.relative_to(ROOT)) for p in reports],
    }
    return metrics, samples, loop, trace_record


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rindler_lab" / "__init__.py").is_file():
        print(f"error: {SRC / 'rindler_lab'} not found; run from a rindler-lab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        refs = workloads.References()
    except (OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = child_env()
    os.environ.pop("RINDLER_LAB_THREADS", None)
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    in_process = args.workload != "cli"

    def make_stream():
        if in_process:
            return workloads.WORKLOADS[args.workload](args.seed, refs)
        return workloads.cli_commands(args.seed, refs, workdir, env)

    def new_loop():
        if in_process:
            return Loop(calibration, CALIBRATION_REF_S)
        return Loop(lambda: import_calibration(env), IMPORT_CALIBRATION_REF_S)

    try:
        if args.trace:
            metrics, samples, loop, extra = run_traced(
                args, make_stream, env, workdir, in_process, new_loop
            )
            units = PER_LAYER
        else:
            metrics, samples, loop, extra = run_end_to_end(
                args, make_stream(), env, in_process, new_loop
            )
            units = END_TO_END
    except (RuntimeError, subprocess.SubprocessError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {
        "environment": environment(args),
        "samples": samples,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_ratio": loop.failed / loop.attempted if loop.attempted else 1.0,
        "errors": loop.errors[:50],
        **({"trace": extra} if args.trace else extra),
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {loop.attempted} ops, "
        f"{loop.failed} failed; record in {out_path.relative_to(ROOT)}"
    )
    for error in loop.errors[:10]:
        print(f"  FAILED {error}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        print("  self time per traced op, by span:")
        for row in extra["self_time_per_op"]:
            print(f"    {row['span']:32s} {row['self_s'] * 1e3:10.3f} ms  ({row['calls']} calls)")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": loop.attempted > 0 and loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
