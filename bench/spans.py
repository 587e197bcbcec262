"""Span tracing of rindler_lab, installed from outside the package.

``install`` replaces the public functions of ``numerics``, ``perturbation``,
``vacua``, ``modes`` and, when it is imported, ``cli`` with wrappers that
record a span per call: name, start, end, parent span and op id.  Each
function is wrapped under the name its callers look it up by (module
globals), so calls from inside the package are seen too; ``kg_inner`` is
wrapped in ``vacua``, which imported it by name.

Spans nest through a stack; a span's self time is its duration minus the
time its child spans cover.  Every span is folded into per-name totals as it
closes, and the first ``KEEP_SPANS`` are also kept verbatim for the trace file.

With ``count_evals`` the integrand handed to ``adaptive_finite_quad`` is
wrapped in a counter as well.  That makes quadrature about three times
slower, so counts come from a counting pass and times from a separate pass
without the counter.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# spans kept verbatim per pass; all of them are folded into per-name totals
KEEP_SPANS = 20_000


class _Frame:
    __slots__ = ("name", "start", "child", "index", "kids")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.kids: set[str] = set()


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self, count_evals: bool = False):
        self.count_evals = count_evals
        self.op = 0
        self.origin = _clock()
        self.spans: list = []
        self.dropped = 0
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = _Frame(name, _clock(), index)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, name: str) -> None:
        end = _clock()
        self._stack.pop()
        duration = end - frame.start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame.child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
            parent.kids.add(frame.name)
        if frame.index >= 0:
            self.spans[frame.index] = (
                name,
                frame.start - self.origin,
                end - self.origin,
                parent.index if parent is not None else -1,
                self.op,
            )

    def wrap(self, fn, name, prepare=None, finish=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``prepare(args, kwargs)`` may replace the arguments;
        ``finish(frame, args, kwargs, result)`` may count and returns the
        name the span is filed under.  A call made while a span of the same
        name is open (``gamma_complex`` calling ``log_gamma_complex``) joins
        that span.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            frame = tracer._open(name)
            filed = name
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            else:
                if finish is not None:
                    filed = finish(frame, args, kwargs, result)
                return result
            finally:
                tracer._close(frame, filed)

        return traced

    def patch(self, owner, attr, name, prepare=None, finish=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by its traced form."""
        if isinstance(owner, dict):
            fn = owner[attr]
            owner[attr] = self.wrap(fn, name, prepare, finish)
            self._undo.append(lambda: owner.__setitem__(attr, fn))
        else:
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap(fn, name, prepare, finish))
            self._undo.append(lambda: setattr(owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def seconds(self, name: str, self_time: bool = False) -> float:
        if name not in self.stats:
            return 0.0
        return self.stats[name][2 if self_time else 1]

    def merge(self, report: dict) -> None:
        """Fold in the totals of a report written by a traced child process.

        The child's spans stay in its own report file.
        """
        for name, (calls, total, self_s) in report["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        for name, value in report["counts"].items():
            self.counts[name] += value

    def report(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [s for s in self.spans if s is not None],
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "dropped": self.dropped,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every rindler_lab layer in ``tracer``."""
    from rindler_lab import modes, numerics, perturbation, vacua

    counts = tracer.counts

    def count_integrand(args, kwargs):
        f = args[0]

        def counted(t):
            counts["numerics.quad.evals"] += 1
            return f(t)

        return (counted,) + args[1:], kwargs

    tracer.patch(
        numerics,
        "adaptive_finite_quad",
        "numerics.quad",
        prepare=count_integrand if tracer.count_evals else None,
    )
    tracer.patch(numerics, "oscillatory_power_integral", "numerics.osc")

    def lig_branch(frame, args, kwargs, result):
        # branch of lower_incomplete_gamma, classified from outside
        x = complex(args[1] if len(args) > 1 else kwargs["x"])
        if "numerics.quad" in frame.kids:
            branch = "ray"
        elif abs(x) > numerics.LARGE_X_SWITCH and abs(x.imag) >= abs(x.real):
            branch = "limit"
        elif abs(x) > numerics.LARGE_X_SWITCH and x.real > 0.0:
            branch = "cf"
        else:
            branch = "series"
        counts[f"numerics.lig.{branch}.calls"] += 1
        return "numerics.lig"

    tracer.patch(numerics, "lower_incomplete_gamma", "numerics.lig", finish=lig_branch)
    tracer.patch(numerics, "log_gamma_complex", "numerics.lgamma")
    tracer.patch(numerics, "gamma_complex", "numerics.lgamma")

    def sweep_records(frame, args, kwargs, result):
        counts["perturbation.records"] += len(result.records)
        return "perturbation.sweep"

    tracer.patch(perturbation, "spectrum_sweep", "perturbation.sweep", finish=sweep_records)
    tracer.patch(vacua, "kms_residual", "vacua.kms")
    tracer.patch(vacua, "kms_twist_residual", "vacua.twist")

    def kg_samples(frame, args, kwargs, result):
        sampling = args[2] if len(args) > 2 else kwargs["sampling"]
        counts["modes.kg_inner.samples"] += sampling.samples
        return "modes.kg_inner"

    tracer.patch(vacua, "kg_inner", "modes.kg_inner", finish=kg_samples)
    tracer.patch(modes, "kg_inner", "modes.kg_inner", finish=kg_samples)

    cli = sys.modules.get("rindler_lab.cli")
    if cli is not None:
        tracer.patch(cli, "write_spectrum_csv", "cli.write")
        tracer.patch(cli, "write_spectrum_json", "cli.write")
        for check in list(cli.CHECKS):
            tracer.patch(cli.CHECKS, check, f"cli.verify.{check}")
