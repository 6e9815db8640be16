"""The four seeded benchmark workloads.

Each workload generates its inputs from the benchmark seed, calls podlab's
public functions with them and checks every output.  One operation starts
only after the previous one ended; nothing runs in parallel.

A workload exposes:

- ``setup()``: the work done before measuring (plant, design, config file);
- ``next_input()``: the next seeded input;
- ``run(inp)``: the timed operation; returns its output;
- ``units(out)``: the units of work in one operation (simulated runs for
  ``mc-ensemble``, otherwise 1);
- ``check(inp, out)``: raises ``CheckFailed`` on a wrong output;
- ``retain(out)``: what ``final_check`` and ``layer_metrics`` need of an
  output;
- ``fingerprint(out)``: a value that equal outputs share, to show that the
  traced run computes the same numbers as the untraced one;
- ``final_check(done)``: checks made once, outside the timed region;
- ``layer_metrics(done)``: per-layer figures measured outside the traced
  operations (traced run only).
"""
from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import chanstats
from podlab import analysis, cli, pipeline, refplant, simloop
from podlab.channel import ChannelConfig, DelayDistribution, default_delay_distribution
from podlab.config import (
    channel_config,
    config_hash,
    default_config,
    plant_config,
    scenario_config,
)
from podlab.lti import phase_at, to_state_space
from podlab.poddesign import wrap_phase_deg

# Traced functions are called through their module (``refplant.f``), so the
# tracer's wrappers are found when it swaps the module attribute.

DURATION_S = 30.0
DT_S = 1e-3
WINDOW_S = (1.0, 30.0)


class CheckFailed(Exception):
    """An output check failed."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Workload:
    name = ""
    tag = 0
    nominal_op_s = 1.0  # sizes the traced run: ops = seconds / nominal_op_s

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer=None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag]))
        self.repeats = 1 if smoke else 3

    def units(self, out) -> int:
        return 1

    def retain(self, out):
        """The part of an output that final_check and layer_metrics use."""
        return None

    def final_check(self, done) -> None:
        pass

    def layer_metrics(self, done) -> dict[str, float]:
        return {}


# --------------------------------------------------------------------------
# design-sweep


class DesignSweep(Workload):
    """identify -> Pade surrogate -> dogleg design -> eigen and Bode checks,
    on a freshly drawn plant and channel per operation."""

    name = "design-sweep"
    tag = 1
    nominal_op_s = 0.6

    def setup(self) -> None:
        self.base = default_config()
        self.band = tuple(self.base["design"]["band_hz"])

    def next_input(self) -> dict:
        # The mean delay stays inside the order-3 Pade band where every draw
        # designs and checks.  Below about 0.271 s and above about 0.352 s,
        # delay_sweep raises AnalysisError "mode-matching ambiguity" on some
        # draws: a heavily damped closed-loop pole lands within
        # 5 % of a target frequency, and _match_targets compares frequencies
        # only.  See README.md.
        cfg = copy.deepcopy(self.base)
        r = self.rng
        cfg["channel"]["delay"] = {"kind": "default-histogram", "mean_s": float(r.uniform(0.29, 0.335))}
        cfg["channel"]["rate_hz"] = float(r.uniform(2.5, 10.0))
        scale = float(r.uniform(0.95, 1.05))
        cfg["plant"]["mode_freqs_hz"] = [f * scale for f in cfg["plant"]["mode_freqs_hz"]]
        cfg["plant"]["damping_ratios"] = [float(r.uniform(0.015, 0.03)), float(r.uniform(0.02, 0.04))]
        return cfg

    def run(self, cfg: dict):
        plant = refplant.build_reference_plant(plant_config(cfg))
        idp, idq = pipeline.identify_both(cfg, plant)
        sur = pipeline.design_surrogate(cfg)
        lp, lq = pipeline.design_both(cfg, idp, idq, sur)
        modes_hz = tuple(w / (2.0 * math.pi) for w in lp.context.omegas)
        studies = [
            analysis.delay_sweep(to_state_space(ident.tf), ld.design, sur, modes_hz)
            for ident, ld in ((idp, lp), (idq, lq))
        ]
        combined = analysis.closed_loop_modes_two(
            plant.A, plant.B_p, plant.B_q, plant.C, lp.design, lq.design, sur, modes_hz,
        )
        bode = [
            analysis.bode_table(
                analysis.open_loop(
                    ld.design.compensator_tf(), ld.design.washout_tf(), ld.design.gain,
                    sur.pade, ident.tf,
                ),
                self.band,
                200,
            )
            for ident, ld in ((idp, lp), (idq, lq))
        ]
        return plant, (idp, idq), sur, (lp, lq), studies, combined, bode

    def check(self, cfg: dict, out) -> None:
        plant, identified, sur, loops, _, combined, _ = out
        for ident, ld in zip(identified, loops):
            check(ld.diagnostics.fnorm_inf < 1e-6, f"fnorm_inf {ld.diagnostics.fnorm_inf:.3g}")
            comp, wash = ld.design.compensator_tf(), ld.design.washout_tf()
            for w, true in zip(ld.context.omegas, plant.true_modes):
                total = wrap_phase_deg(
                    phase_at(ident.tf, w)
                    + phase_at(sur.pade, w)
                    + math.degrees(np.angle(comp(1j * w) * wash(1j * w)))
                )
                check(abs(total) < 5.0, f"composed phase {total:.2f} deg at {w:.3f} rad/s")
                f = w / (2.0 * math.pi)
                check(
                    abs(f - true.freq_hz) < 0.05 * true.freq_hz,
                    f"identified mode {f:.4f} Hz vs true {true.freq_hz:.4f} Hz",
                )
        check(combined.stable, "combined closed loop is unstable")

    def fingerprint(self, out):
        _, _, sur, loops, studies, combined, bode = out
        return (
            sur.to_dict(),
            [ld.design.to_dict() for ld in loops],
            [s.to_dict() for s in studies],
            combined.eigenvalues.tobytes(),
            bode,
        )


# --------------------------------------------------------------------------
# simulation workloads


class _Simulation(Workload):
    """Shared set-up: the default-config design on the reference plant."""

    def setup(self) -> None:
        cfg = default_config()
        plant = refplant.build_reference_plant(plant_config(cfg))
        idp, idq = pipeline.identify_both(cfg, plant)
        sur = pipeline.design_surrogate(cfg)
        lp, lq = pipeline.design_both(cfg, idp, idq, sur)
        self.cfg, self.plant = cfg, plant
        self.dp, self.dq = lp.design, lq.design
        self.scenario = scenario_config(cfg)
        self.participation = simloop.Participation()

    @property
    def limits(self) -> tuple[float, float]:
        return self.dp.limit_pu, self.dq.limit_pu

    def _run(self, chan: ChannelConfig, seed: int, pod_on: bool = True):
        return simloop.run_closed_loop(
            self.plant, self.dp, self.dq, chan, self.scenario, seed=seed,
            pod_on=pod_on, duration_s=DURATION_S, dt=DT_S,
        )

    def _channel_counts(self, cases) -> dict[str, float]:
        """Counts over every POD-on run, given as (channel, seed) pairs."""
        counts = chanstats.ChannelCounts()
        t_grid = np.arange(int(round(DURATION_S / DT_S))) * DT_S
        for chan, seed in cases:
            for loop, units in enumerate((self.participation.p_units, self.participation.q_units)):
                for unit in range(len(units)):
                    inst = chanstats.rebuild(chan, DURATION_S, seed, loop, unit)
                    counts.add(inst, t_grid, DURATION_S)
        return counts.metrics()

    def _step_split(self, cases) -> dict[str, float]:
        """Per-step cost by differential timing of the same seeded run:
        POD off, POD on over a zero-delay point-mass channel, and POD on over
        the workload's channel; plus a replay of ChannelInstance.step."""
        n_steps = int(round(DURATION_S / DT_S))
        sums = dict.fromkeys(("off", "zero", "chan", "step"), 0.0)
        clipped = total = 0
        for chan, seed in cases:
            zero = dataclasses.replace(
                chan, delay=DelayDistribution.point_mass(0.0), quantization_step=0.0
            )
            sums["off"] += _median_time(lambda: self._run(zero, seed, pod_on=False), self.repeats)
            sums["zero"] += _median_time(lambda: self._run(zero, seed), self.repeats)
            sums["chan"] += _median_time(lambda: self._run(chan, seed), self.repeats)
            trace = self._run(chan, seed)
            c, t = chanstats.limiter_clips(trace, chan, DURATION_S, self.limits)
            clipped += c
            total += t
            inst = chanstats.rebuild(chan, DURATION_S, seed, 0, 0)
            t_grid, values = trace.t_s, trace.p_D_sent.tolist()
            t0 = time.perf_counter()
            for k in range(n_steps):
                inst.step(t_grid[k], values[k])
            sums["step"] += time.perf_counter() - t0
        per_step = 1e6 / (n_steps * len(cases))
        return {
            "simloop.propagate_us": sums["off"] * per_step,
            "simloop.pod_us": (sums["zero"] - sums["off"]) * per_step,
            "simloop.channel_us": (sums["chan"] - sums["zero"]) * per_step,
            "simloop.limiter_sat_frac": clipped / max(total, 1),
            "channel.step_us": sums["step"] * per_step,
        }


class McEnsemble(_Simulation):
    """The paper's validation step: simloop.ensemble on the default config."""

    name = "mc-ensemble"
    tag = 2
    nominal_op_s = 10.0

    def setup(self) -> None:
        super().setup()
        self.chan = channel_config(self.cfg)
        self.n_runs = 3 if self.smoke else self.cfg["simulation"]["n_runs"]

    def next_input(self) -> int:
        return _seed_int(self.rng)

    def run(self, base_seed: int):
        return simloop.ensemble(
            self.n_runs, base_seed, self.plant, self.dp, self.dq, self.chan,
            self.scenario, metric_window=WINDOW_S, duration_s=DURATION_S, dt=DT_S,
        )

    def units(self, stats) -> int:
        return stats.n_runs + 1  # the POD-off baseline is one more run

    def check(self, base_seed: int, stats) -> None:
        check(all(math.isfinite(m) for m in stats.metrics), "non-finite damping metric")
        check(stats.median_ratio <= 0.5, f"median ratio {stats.median_ratio:.3f} > 0.5")

    def fingerprint(self, stats):
        return stats.to_dict()

    def retain(self, stats):
        return stats

    def final_check(self, done) -> None:
        base_seed, stats = next(((i, o) for i, o in done if o is not None), (None, None))
        if stats is None:
            return
        k = min(5, self.n_runs - 1)
        small = simloop.ensemble(
            k, base_seed, self.plant, self.dp, self.dq, self.chan, self.scenario,
            metric_window=WINDOW_S, duration_s=DURATION_S, dt=DT_S,
        )
        check(small.metrics == stats.metrics[:k], f"ensemble({k}) differs from the prefix")

    def layer_metrics(self, done) -> dict[str, float]:
        cases = [
            (self.chan, base + i) for base, stats in done if stats is not None
            for i in range(stats.n_runs)
        ]
        seeds = [base for base, _ in done]
        return {**self._channel_counts(cases), **self._step_split([(self.chan, seeds[0])])}


class TraceSweep(_Simulation):
    """Single seeded traces over drawn channels: delay kind, rate, emission
    and quantisation vary per trace."""

    name = "trace-sweep"
    tag = 3
    nominal_op_s = 0.3
    KINDS = ("empirical-histogram", "uniform", "truncated-normal", "point-mass")
    CELLS = [(k, e, q) for k in KINDS for e in ("jittered-periodic", "poisson") for q in (0.0, 0.002)]

    def setup(self) -> None:
        super().setup()
        self._queue: list = []

    def _delay(self, kind: str, theta: float) -> DelayDistribution:
        if kind == "empirical-histogram":
            return default_delay_distribution(mean_s=theta)
        if kind == "uniform":
            return DelayDistribution.uniform(0.5 * theta, 1.5 * theta)
        if kind == "truncated-normal":
            return DelayDistribution.truncated_normal(theta, 0.25 * theta, 0.05, 1.5)
        return DelayDistribution.point_mass(theta)

    def next_input(self) -> tuple[ChannelConfig, int]:
        # the draws are stratified: every block of 16 traces covers each
        # (kind, emission, quantisation) cell once, in a seeded order, with
        # the rates spread over one stratum each of [2.5, 10] Hz
        if not self._queue:
            r = self.rng
            n = len(self.CELLS)
            strata = r.permutation(n)
            for j in r.permutation(n):
                kind, emission, q = self.CELLS[j]
                rate = 2.5 + 7.5 * (strata[j] + r.uniform()) / n
                chan = ChannelConfig(
                    delay=self._delay(kind, float(r.uniform(0.2, 0.45))),
                    rate_hz=float(rate),
                    quantization_step=q,
                    emission=emission,
                )
                self._queue.append((chan, _seed_int(r)))
        return self._queue.pop(0)

    def run(self, inp):
        chan, seed = inp
        trace = self._run(chan, seed)
        metric = simloop.damping_metric(trace, WINDOW_S)
        rows = trace.csv_rows()
        return trace, metric, rows

    def check(self, inp, out) -> None:
        chan, seed = inp
        trace, metric, rows = out
        check(math.isfinite(metric), f"damping metric {metric}")
        check(len(rows) == len(trace.t_s) + 1, "csv row count")
        for sent, lim in ((trace.p_D_sent, self.dp.limit_pu), (trace.q_D_sent, self.dq.limit_pu)):
            check(float(np.max(np.abs(sent))) <= lim + 1e-12, "limiter bound violated")
        t_last = float(trace.t_s[-1])
        for loop, applied_times in enumerate((trace.p_applied_times, trace.q_applied_times)):
            for unit, times in enumerate(applied_times):
                inst = chanstats.rebuild(chan, DURATION_S, seed, loop, unit)
                applied, _ = chanstats.applied_messages(inst.t_send, inst.t_arrive, t_last)
                check(
                    tuple(inst.t_arrive[applied].tolist()) == times,
                    f"applied messages of unit {loop}/{unit} differ from the schedule",
                )
                check(bool(np.all(inst.t_arrive[applied] >= inst.t_send[applied])), "acausal message")
                check(bool(np.all(np.diff(inst.t_send[applied]) > 0)), "applied out of send order")

    def fingerprint(self, out):
        trace, metric, rows = out
        return metric, hashlib.sha256("\n".join(rows).encode()).hexdigest()

    def layer_metrics(self, done) -> dict[str, float]:
        cases = [inp for inp, out in done]
        return {**self._channel_counts(cases), **self._step_split(cases[:4])}


# --------------------------------------------------------------------------
# cli-chain


STAGES = (
    ("plant", "build"),
    ("channel", "measure"),
    ("channel", "fit"),
    ("sysid", "prbs"),
    ("sysid", "fit"),
    ("design", "run"),
    ("analyze", "bode"),
    ("analyze", "eig"),
    ("sim", "run"),
    ("sim", "ensemble"),
)
ARTIFACTS = (
    "plant.json", "delay_log.csv", "delay_histogram.json", "delay_surrogate.json",
    "experiment_p.csv", "experiment_q.csv", "identified_p.json", "identified_q.json",
    "design_p.json", "design_q.json", "bode_plant_delay_p.csv", "bode_plant_delay_q.csv",
    "bode_open_loop_p.csv", "bode_open_loop_q.csv", "eigen_study.json", "trace.csv",
    "ensemble.json",
)


class CliChain(Workload):
    """The ten CLI stages in order, in-process, into a fresh directory."""

    name = "cli-chain"
    tag = 4
    nominal_op_s = 2.0

    def setup(self) -> None:
        cfg = default_config()
        cfg["simulation"]["n_runs"] = 1 if self.smoke else 4
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2))
        self.hash = config_hash(cfg)
        self.count = 0

    def next_input(self) -> tuple[Path, int]:
        self.count += 1
        return self.workdir / f"chain-{self.count}", _seed_int(self.rng)

    def run(self, inp):
        out, seed = inp
        codes = []
        for group, action in STAGES:
            argv = [group, action, "--config", str(self.config_path), "--out", str(out), "--seed", str(seed)]
            with _span(self.tracer, f"cli.{group}_{action}"):
                codes.append(cli.main(argv))
        return out, codes

    def check(self, inp, result) -> None:
        out, codes = result
        try:
            for (group, action), code in zip(STAGES, codes):
                check(code == 0, f"'{group} {action}' exited {code}")
            for name in ARTIFACTS:
                path = out / name
                check(path.is_file(), f"missing artifact {name}")
                text = path.read_text()
                if name.endswith(".json"):
                    tag = json.loads(text).get("config_sha256")
                else:
                    tag = text.split("\n", 1)[0].split()[1].removeprefix("config_sha256=")
                check(tag == self.hash, f"{name} carries config hash {tag}")
            if self.tracer is not None:
                self.tracer.counts["cli.artifact_bytes"] += sum(
                    (out / name).stat().st_size for name in ARTIFACTS
                )
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def fingerprint(self, result):
        out, codes = result
        return codes, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


WORKLOADS = {w.name: w for w in (DesignSweep, McEnsemble, TraceSweep, CliChain)}

# Per-layer metrics reported by the traced run, with the layer metric's unit
# and direction.  A layer a workload leaves idle reports 0.
PER_LAYER = [
    ("sim.zoh_lsim.s", "s", "lower"),
    ("sim.zoh_lsim.calls", "count", "lower"),
    ("sim.zoh_lsim.steps", "count", "lower"),
    ("sysid.gen_prbs.s", "s", "lower"),
    ("sysid.estimate_frf.s", "s", "lower"),
    ("sysid.fit_rational.s", "s", "lower"),
    ("sysid.find_modes.s", "s", "lower"),
    ("delaymodel.build_surrogate.s", "s", "lower"),
    ("delaymodel.pade_order", "count", "lower"),
    ("delaymodel.validate_surrogate.calls", "count", "lower"),
    ("poddesign.design_compensator.s", "s", "lower"),
    ("poddesign.dogleg_solve.calls", "count", "lower"),
    ("poddesign.dogleg_solve.iters", "count", "lower"),
    ("poddesign.dogleg_solve.converged_frac", "ratio", "higher"),
    ("poddesign.residual_F.calls", "count", "lower"),
    ("poddesign.select_gain.s", "s", "lower"),
    ("poddesign.gain_candidates", "count", "lower"),
    ("poddesign.gain_skipped", "count", "lower"),
    ("analysis.closed_loop_modes.calls", "count", "lower"),
    ("analysis.closed_loop_modes.s", "s", "lower"),
    ("analysis.closed_loop_modes.raised", "count", "lower"),
    ("analysis.delay_sweep.s", "s", "lower"),
    ("analysis.closed_loop_modes_two.s", "s", "lower"),
    ("analysis.bode_table.s", "s", "lower"),
    ("lti.phase_at.calls", "count", "lower"),
    ("lti.phase_at.s", "s", "lower"),
    ("lti.unwrapped_phase_deg.calls", "count", "lower"),
    ("lti.unwrapped_phase_deg.s", "s", "lower"),
    ("lti.eigen.calls", "count", "lower"),
    ("lti.eigen.s", "s", "lower"),
    ("pipeline.identify_both.s", "s", "lower"),
    ("pipeline.design_surrogate.s", "s", "lower"),
    ("pipeline.design_both.s", "s", "lower"),
    ("channel.instance_init.calls", "count", "lower"),
    ("channel.instance_init.s", "s", "lower"),
    ("channel.sample_delay.calls", "count", "lower"),
    ("channel.step_us", "us", "lower"),
    ("channel.messages_sent", "count", "lower"),
    ("channel.messages_applied", "count", "higher"),
    ("channel.stale_discarded", "count", "lower"),
    ("channel.hold_age_s_mean", "s", "lower"),
    ("channel.hold_age_s_max", "s", "lower"),
    ("channel.tail_gap_s_max", "s", "lower"),
    ("simloop.propagate_us", "us", "lower"),
    ("simloop.pod_us", "us", "lower"),
    ("simloop.channel_us", "us", "lower"),
    ("simloop.limiter_sat_frac", "ratio", "lower"),
    ("simloop.run_closed_loop.calls", "count", "lower"),
    ("simloop.run_closed_loop.s", "s", "lower"),
    ("simloop.ensemble.s", "s", "lower"),
    ("simloop.damping_metric.s", "s", "lower"),
    ("simloop.csv_rows.s", "s", "lower"),
    ("refplant.build_reference_plant.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    *[(f"cli.{g}_{a}.s", "s", "lower") for g, a in STAGES],
    ("cli.artifact_bytes", "B", "lower"),
    *[
        (f"{m}.self_s", "s", "lower")
        for m in (
            "sim", "sysid", "delaymodel", "poddesign", "analysis", "lti", "pipeline",
            "channel", "simloop", "refplant", "config", "cli",
        )
    ],
    ("bench.ops", "count", "higher"),
    ("bench.failed_podlab", "count", "lower"),
    ("bench.failed_check", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
