"""The four workloads: seeded op streams, and the output check of each op.

A workload is an endless stream of ``Op``s built from the seed.  The stream
runs in cycles that visit every entry of the workload's mix once, in a
seeded order, so a run that stops at the end of a cycle always holds the
same mix.  ``Op.run`` is the timed call; ``Op.check`` compares its output
with the references outside the timed interval and returns the number of
values it checked and a list of mismatches.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import pools

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# CODATA 2018 SI values (h, c, k exact since 2019), for the temperatures check
_H = 6.62607015e-34
_C = 299792458.0
_K = 1.380649e-23
_G = 6.67430e-11

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    # ops with the same label do the same amount of work
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]
    last_in_cycle: bool
    cli_args: list[str] | None = None


class References:
    """Stored mpmath probabilities, keyed by pool case id."""

    def __init__(self, path: Path = BENCH_DIR / "refs.npz"):
        data = np.load(path)
        if str(data["manifest"]) != pools.manifest():
            raise RuntimeError(
                f"{path} does not match pools.py; regenerate it with bench/make_refs.py"
            )
        self.probs = {k: data[k] for k in data.files if k != "manifest"}


def _compare(label, freqs, probs, ref, tol) -> list[str]:
    if len(probs) != len(ref):
        return [f"{label}: {len(probs)} records, expected {len(ref)}"]
    rel = np.abs(np.asarray(probs, dtype=float) / ref - 1.0)
    bad = np.flatnonzero(~(rel <= tol))
    if not bad.size:
        return []
    i = bad[0]
    return [
        f"{label}: {bad.size} probabilities off by more than {tol:g} "
        f"(first at freq {freqs[i]!r}: relative error {rel[i]:.3e})"
    ]


def _sweep_op(label, case, freqs, ref, last) -> Op:
    from rindler_lab import perturbation
    from rindler_lab.perturbation import Method, Scenario, ScenarioSpec
    from rindler_lab.spacetime import DimensionlessParams

    spec = ScenarioSpec(
        Scenario(case["scenario"]), DimensionlessParams(**case["params"]), Method(case["method"])
    )
    grid = [float(f) for f in freqs]
    tol = pools.TOLERANCE[pools.route(case)]

    def run():
        return perturbation.spectrum_sweep(spec, grid, max_workers=None)

    def check(spectrum):
        got_freqs = [r.freq for r in spectrum.records]
        errors = [] if got_freqs == grid else [f"{label}: record frequencies differ from the grid"]
        probs = [r.probability for r in spectrum.records]
        return len(probs), errors + _compare(label, got_freqs, probs, ref, tol)

    return Op(label, run, check, last)


def _cycles(rng, mix) -> Iterator[tuple[str, int, bool]]:
    """Yield ``(element, variant, last in cycle)`` forever.

    Each cycle visits every element of ``mix`` once in a seeded order, and
    each element steps through its variants in a seeded order.
    """
    elements = list(mix)
    variant_order = {e: rng.permutation(len(mix[e])) for e in elements}
    cycle = 0
    while True:
        order = rng.permutation(len(elements))
        for j, i in enumerate(order):
            e = elements[i]
            yield e, int(variant_order[e][cycle % len(mix[e])]), j == len(order) - 1
        cycle += 1


def quad_sweeps(seed: int, refs: References) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    for e, k, last in _cycles(rng, pools.QUAD_MIX):
        case = pools.QUAD_MIX[e][k]
        yield _sweep_op(f"quad:{e}:{k}", case, pools.grid(case), refs.probs[f"quad:{e}:{k}"], last)


def closed_sweeps(seed: int, refs: References) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    for e, k, last in _cycles(rng, pools.CLOSED_MIX):
        case = pools.CLOSED_MIX[e][k]
        # a seeded subset of the stored grid, the same size for every op
        keep = np.sort(
            rng.choice(pools.CLOSED_STORED_POINTS, pools.CLOSED_GRID_POINTS, replace=False)
        )
        yield _sweep_op(
            f"closed:{e}:{k}",
            case,
            pools.grid(case)[keep],
            refs.probs[f"closed:{e}:{k}"][keep],
            last,
        )


def kms_kg(seed: int, refs: References) -> Iterator[Op]:
    from rindler_lab import vacua
    from rindler_lab.spacetime import EventRindler

    rng = np.random.default_rng(seed)
    while True:
        ell = float(rng.uniform(0.5, 2.0))
        omega = float(rng.uniform(0.5, 2.0))
        coords = rng.uniform(-2.0, 2.0, size=(64, 4))
        pairs = [
            (EventRindler(float(a), float(b)), EventRindler(float(c), float(d)))
            for a, b, c, d in coords
        ]

        def run(pairs=pairs, ell=ell, omega=omega):
            scan = vacua.kms_residual(pairs, ell)
            return scan, vacua.alpha_numeric(omega, omega), vacua.beta_numeric(omega, omega)

        def check(out, ell=ell, omega=omega):
            scan, alpha, beta = out
            errors = []
            if not scan.max_residual < 1e-10:
                errors.append(f"kms: max residual {scan.max_residual:.3e} at ell={ell!r}")
            t_rel = abs(scan.t_extracted * 2.0 * math.pi * ell - 1.0)
            if not t_rel <= 1e-3:
                errors.append(f"kms: temperature off by {t_rel:.3e} at ell={ell!r}")
            ratio_rel = abs(abs(beta / alpha) / math.exp(-math.pi * omega) - 1.0)
            if not ratio_rel <= 0.02:
                errors.append(f"kg: |beta/alpha| off by {ratio_rel:.3e} at Omega={omega!r}")
            return 3, errors

        yield Op("kms-kg", run, check, True)


# -- cli ---------------------------------------------------------------------


def _parse_spectrum_csv(text: str):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not rows or not rows[0].startswith("freq,probability"):
        raise ValueError("missing CSV header")
    cols = [row.split(",") for row in rows[1:]]
    return [float(c[0]) for c in cols], [float(c[1]) for c in cols]


def _parse_spectrum_json(text: str):
    records = json.loads(text)["records"]
    return [r["freq"] for r in records], [r["probability"] for r in records]


def _spectrum_check(label, case, ref, path: Path, parse):
    tol = pools.TOLERANCE[pools.route(case)]
    grid = [float(f) for f in pools.grid(case)]

    def check(proc):
        freqs, probs = parse(path.read_text(encoding="utf-8"))
        errors = [] if freqs == grid else [f"{label}: frequencies differ from the grid"]
        return len(probs), errors + _compare(label, freqs, probs, ref, tol)

    return check


def _verify_check(stdout: str):
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    errors = [f"verify: {line}" for line in lines if not line.startswith("[PASS]")]
    if not lines:
        errors.append("verify: no check reported")
    return len(lines), errors


def _kms_check(ell_token: str):
    ell = float(ell_token)

    def check(stdout: str):
        values = {}
        for line in stdout.splitlines():
            key, _, rest = line.partition(":")
            values[key.strip()] = float(rest.split()[0])
        residual = values["max residual at shift 2 pi ell"]
        t_rel = abs(values["extracted temperature"] * 2.0 * math.pi * ell - 1.0)
        errors = []
        if not residual < 1e-10:
            errors.append(f"kms-check: max residual {residual:.3e}")
        if not t_rel <= 1e-3:
            errors.append(f"kms-check: temperature off by {t_rel:.3e}")
        return 2, errors

    return check


def _bogoliubov_check(stdout: str):
    lines = stdout.strip().splitlines()
    header = lines[0].split(",")
    errors = []
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        w = row["omega"]
        occupation = 1.0 / math.expm1(2.0 * math.pi * w)
        want = {
            "beta": math.sqrt(occupation),
            "alpha": math.sqrt(1.0 + occupation),
            "n_standard": occupation,
            "n_symmetric_half": 0.5 * occupation,
        }
        for key, value in want.items():
            if not abs(row[key] / value - 1.0) <= 1e-12:
                errors.append(f"bogoliubov: {key} at omega={w!r} is {row[key]!r}, want {value!r}")
        if not (abs(row["defect"]) <= 1e-12 and abs(row["symmetric_defect"] + 1.0) <= 1e-12):
            errors.append(f"bogoliubov: normalization defects at omega={w!r}")
    return len(lines) - 1, errors


def _temperatures_check(mass_token: str):
    mass = float(mass_token)
    hbar = _H / (2.0 * math.pi)
    want = hbar * _C**3 / (8.0 * math.pi * _G * mass * _K)

    def check(stdout: str):
        temps = [float(line.split("=")[1].split()[0]) for line in stdout.splitlines() if "=" in line]
        errors = [] if len(temps) == 3 else [f"temperatures: {len(temps)} values printed"]
        errors += [
            f"temperatures: {t!r} K, want {want!r} K" for t in temps if not abs(t / want - 1.0) <= 1e-9
        ]
        return len(temps), errors

    return check


def _exit_ok(label, check):
    def checked(proc):
        if proc.returncode != 0:
            return 0, [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            return check(proc)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            return 0, [f"{label}: unreadable output: {exc!r}"]

    return checked


def cli_argv(args: list[str], trace_report: Path | None = None, mode: str = "time") -> list[str]:
    """Command line of one CLI op, plain or under ``cli_child.py``."""
    if trace_report is None:
        return [sys.executable, "-m", "rindler_lab.cli", *args]
    return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_report), mode, *args]


def cli_commands(seed: int, refs: References, workdir: Path, env: dict) -> Iterator[Op]:
    """The README commands, one subprocess per op.

    ``Op.cli_args`` holds the arguments so a traced pass can rerun the same
    command under ``cli_child.py``; ``Op.run`` takes an optional argv.
    """
    rng = np.random.default_rng(seed)
    variant_order = rng.permutation(len(pools.CLI_ACCEL_ATOM))
    cycle = 0
    while True:
        k = int(variant_order[cycle % len(variant_order)])
        csv_case, json_case = pools.CLI_ACCEL_ATOM[k], pools.CLI_FREEFALL[k]
        csv_path = workdir / f"cycle{cycle}-accel-atom.csv"
        json_path = workdir / f"cycle{cycle}-freefall.json"
        params = [t for key, v in sorted(json_case["params"].items()) for t in ("--param", f"{key}={v!r}")]
        ell = f"{rng.uniform(0.5, 2.0):.6g}"
        kms_seed = str(int(rng.integers(1, 2**31)))
        bogoliubov_grid = f"{rng.uniform(0.05, 0.2):.4g}:{rng.uniform(2.0, 4.0):.4g}:13"
        mass = f"{10.0 ** rng.uniform(29.0, 32.0):.6g}"
        kms, temps = _kms_check(ell), _temperatures_check(mass)
        ops = [
            (
                "cli:spectrum-csv",
                ["spectrum", "--scenario", "accel-atom", "--grid", pools.grid_token(csv_case),
                 "--output", str(csv_path)],
                _spectrum_check(f"spectrum accel-atom {k}", csv_case, refs.probs[f"cli:accel-atom:{k}"],
                                csv_path, _parse_spectrum_csv),
            ),
            (
                "cli:spectrum-json",
                ["spectrum", "--scenario", "freefall-bh", *params, "--grid", pools.grid_token(json_case),
                 "--format", "json", "--output", str(json_path)],
                _spectrum_check(f"spectrum freefall {k}", json_case, refs.probs[f"cli:freefall:{k}"],
                                json_path, _parse_spectrum_json),
            ),
            ("cli:verify", ["verify"], lambda p: _verify_check(p.stdout)),
            # the README's named-check form; a seventh command also keeps the
            # median latency inside one command's samples
            ("cli:verify-named", ["verify", "gamma-identity", "kms-twist"], lambda p: _verify_check(p.stdout)),
            ("cli:kms-check", ["kms-check", "--ell", ell, "--seed", kms_seed], lambda p: kms(p.stdout)),
            ("cli:bogoliubov", ["bogoliubov", "--grid", bogoliubov_grid], lambda p: _bogoliubov_check(p.stdout)),
            ("cli:temperatures", ["temperatures", "--mass", mass, "--units", "si"], lambda p: temps(p.stdout)),
        ]
        for j, i in enumerate(rng.permutation(len(ops))):
            label, args, check = ops[i]

            def run(argv=None, args=args):
                return subprocess.run(
                    argv or cli_argv(args),
                    cwd=ROOT,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=CLI_TIMEOUT_S,
                )

            yield Op(label, run, _exit_ok(label, check), j == len(ops) - 1, args)
        cycle += 1


WORKLOADS = {
    "quad-sweeps": quad_sweeps,
    "closed-sweeps": closed_sweeps,
    "kms-kg": kms_kg,
    "cli": cli_commands,
}
