"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``instrument`` swaps selected
podlab functions for wrappers that open a span, call the original and close
the span, and puts the originals back on exit.  Every module attribute that
is bound to the original function is swapped, so ``from .x import f``
bindings and local imports are traced too.  The wrappers pass arguments and
results through unchanged.

This module imports only the standard library, so importing it costs nothing
in the timed set-up.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" attributes patch the class.
# Span names are "<layer>.<function>"; the layer of podlab._sim is "sim",
# as metric names start with a letter.
TARGETS = [
    ("podlab._sim", "zoh_lsim", "sim.zoh_lsim"),
    ("podlab.sysid", "gen_prbs", "sysid.gen_prbs"),
    ("podlab.sysid", "estimate_frf", "sysid.estimate_frf"),
    ("podlab.sysid", "fit_rational", "sysid.fit_rational"),
    ("podlab.sysid", "find_modes", "sysid.find_modes"),
    ("podlab.delaymodel", "build_surrogate", "delaymodel.build_surrogate"),
    ("podlab.delaymodel", "validate_surrogate", "delaymodel.validate_surrogate"),
    ("podlab.poddesign", "design_compensator", "poddesign.design_compensator"),
    ("podlab.poddesign", "dogleg_solve", "poddesign.dogleg_solve"),
    ("podlab.poddesign", "residual_F", "poddesign.residual_F"),
    ("podlab.poddesign", "select_gain", "poddesign.select_gain"),
    ("podlab.analysis", "closed_loop_modes", "analysis.closed_loop_modes"),
    ("podlab.analysis", "closed_loop_modes_two", "analysis.closed_loop_modes_two"),
    ("podlab.analysis", "delay_sweep", "analysis.delay_sweep"),
    ("podlab.analysis", "bode_table", "analysis.bode_table"),
    ("podlab.lti", "phase_at", "lti.phase_at"),
    ("podlab.lti", "unwrapped_phase_deg", "lti.unwrapped_phase_deg"),
    ("podlab.lti", "eigen", "lti.eigen"),
    ("podlab.pipeline", "identify_both", "pipeline.identify_both"),
    ("podlab.pipeline", "design_surrogate", "pipeline.design_surrogate"),
    ("podlab.pipeline", "design_both", "pipeline.design_both"),
    ("podlab.channel", "ChannelInstance.__init__", "channel.instance_init"),
    ("podlab.channel", "sample_delay", "channel.sample_delay"),
    ("podlab.simloop", "run_closed_loop", "simloop.run_closed_loop"),
    ("podlab.simloop", "ensemble", "simloop.ensemble"),
    ("podlab.simloop", "damping_metric", "simloop.damping_metric"),
    ("podlab.simloop", "SimTrace.csv_rows", "simloop.csv_rows"),
    ("podlab.refplant", "build_reference_plant", "refplant.build_reference_plant"),
    ("podlab.config", "load_config", "config.load_config"),
]


def _gain_candidates(args, kwargs) -> int:
    grid = kwargs.get("K_grid", args[4] if len(args) > 4 else None)
    return 40 if grid is None else sum(1 for k in grid if k != 0.0)


class Tracer:
    """Spans as [name, start, end, parent index, op id, error class]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pade_orders: list[int] = []
        self.op = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = None if error is None else type(error).__name__
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        except BaseException as exc:
            self.end(idx, exc)
            raise
        self.end(idx)

    def _record(self, name: str, result, args, kwargs) -> None:
        c = self.counts
        if name == "sim.zoh_lsim":
            c["sim.zoh_lsim.steps"] += len(result)
        elif name == "delaymodel.build_surrogate":
            self.pade_orders.append(result.order[0])
        elif name == "poddesign.dogleg_solve":
            c["poddesign.dogleg_solve.iters"] += result.iterations
            c["poddesign.dogleg_solve.converged"] += bool(result.converged)
        elif name == "poddesign.select_gain":
            c["poddesign.gain_candidates"] += _gain_candidates(args, kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, exc)
                raise
            self.end(idx)
            self._record(name, result, args, kwargs)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Calls, inclusive seconds and raises per span name, self seconds
        per module, and the counters recorded from results."""
        out: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        for i, (name, t0, t1, parent, _, error) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.raised"] += error is not None
            out[f"{name.split('.')[0]}.self_s"] += (t1 - t0) - child_s[i]
        # a candidate gain whose eigen study raised is skipped by select_gain
        out["poddesign.gain_skipped"] = sum(
            1
            for name, _, _, parent, _, error in self.spans
            if name == "analysis.closed_loop_modes"
            and error is not None
            and parent is not None
            and self.spans[parent][0] == "poddesign.select_gain"
        )
        out.update(self.counts)
        calls = out.get("poddesign.dogleg_solve.calls", 0)
        if calls:
            out["poddesign.dogleg_solve.converged_frac"] = (
                out["poddesign.dogleg_solve.converged"] / calls
            )
        if self.pade_orders:
            out["delaymodel.pade_order"] = sum(self.pade_orders) / len(self.pade_orders)
        return dict(out)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap every TARGETS function for a span-recording wrapper."""
    modules = [m for n, m in sys.modules.items() if n == "podlab" or n.startswith("podlab.")]
    undo = []
    try:
        for mod_name, attr, span_name in TARGETS:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                attr = meth
            orig = getattr(owner, attr)
            traced = tracer.wrap(span_name, orig)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, traced)
                        undo.append((holder, key, orig))
        yield tracer
    finally:
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)
