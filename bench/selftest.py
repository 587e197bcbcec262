"""Self-test of the benchmark; not part of the tier-1 suite.

    python3 bench/selftest.py

Run from the repository root; takes a few minutes.  It checks that

* ``run.py`` defines exactly the metrics and units ``BENCHMARK.json`` names;
* a one-second run of every workload prints every end-to-end metric
  (``--trace 0``) and every per-layer metric (``--trace 1``) with its unit,
  and no op fails at the seed;
* traced counts repeat exactly between two runs with the same seed, a KMS
  scan makes 501 twist-residual calls, and the README accel-atom ``quad``
  sweep makes 60 quadrature calls with 19,110 integrand evaluations;
* ``closed-sweeps`` and ``kms-kg`` make no quadrature call, and quadrature
  has the largest self time on ``quad-sweeps``;
* the benchmark fails without a result in a directory that holds only
  ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 1

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, defined in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[kind]}
        expect(named == defined, f"run.py defines the {kind} metrics of BENCHMARK.json")

    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(workload, trace)
            expect(code == 0 and result is not None, f"{workload} --trace {trace} prints a result")
            if result is None:
                continue
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"],
                f"{workload} --trace {trace}: result has exactly the four keys",
            )
            expect(
                {k: v["unit"] for k, v in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in spec[kind]},
                f"{workload} --trace {trace}: every {kind} metric with its unit",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{workload} --trace {trace}: no op fails at seed {SEED}",
            )
            if trace:
                traced[workload] = result["metrics"]

    for workload, metrics in traced.items():
        _, again = bench(workload, 1)
        counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
        repeat = {k: v["value"] for k, v in (again or {}).get("metrics", {}).items() if v["unit"] == "count"}
        expect(counts == repeat, f"{workload}: traced counts repeat with the same seed")

    kms = traced.get("kms-kg", {})
    if kms:
        expect(
            kms["vacua.twist.calls"]["value"] == 501 * kms["vacua.kms.calls"]["value"] > 0,
            "kms-kg: each KMS scan makes 501 twist-residual calls",
        )
    for workload in ("closed-sweeps", "kms-kg"):
        if workload in traced:
            expect(
                traced[workload]["numerics.quad.calls"]["value"] == 0,
                f"{workload}: no quadrature call",
            )
    record = json.loads((ROOT / ".bench_out" / f"quad-sweeps-seed{SEED}-trace1.json").read_text())
    top = record["trace"]["self_time_per_op"][0]["span"]
    expect(top == "numerics.quad", f"quad-sweeps: largest self time is numerics.quad (got {top})")

    import numpy as np
    from rindler_lab import perturbation
    from rindler_lab.perturbation import Method, Scenario, ScenarioSpec
    from rindler_lab.spacetime import DimensionlessParams

    tracer = spans.Tracer(count_evals=True)
    spans.install(tracer)
    try:
        perturbation.spectrum_sweep(
            ScenarioSpec(Scenario.ACCEL_ATOM, DimensionlessParams(), Method.QUADRATURE),
            list(np.geomspace(0.1, 3.0, 30)),
        )
    finally:
        tracer.uninstall()
    expect(
        (tracer.calls("numerics.quad"), tracer.counts["numerics.quad.evals"]) == (60, 19110),
        "README accel-atom quad sweep: 60 quadrature calls, 19110 integrand evaluations",
    )

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("quad-sweeps", 0, cwd=bare)
    expect(code != 0 and result is None, "without the package: nonzero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
