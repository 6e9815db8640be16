"""Command-line front end wiring the design pipeline end-to-end.

Every subcommand reads the JSON config, writes deterministic files into the
output directory, and embeds the config hash and seed in each artifact.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, channel as chan, pipeline, simloop
from ._csvfmt import format_text
from .config import channel_config, load_config, plant_config, scenario_config
from .delaymodel import DelaySurrogate
from .errors import ConfigError, PodlabError
from .lti import series, to_state_space
from .poddesign import CompensatorDesign
from .refplant import build_reference_plant
from .sysid import IdentifiedPlant

# each loop's artifact tag and pipeline name, p before q
_LOOPS = (("p", "active"), ("q", "reactive"))


class _Ctx:
    def __init__(self, args):
        if args.seed is not None:
            chan.require_seed(args.seed, "--seed", ConfigError)
        self.cfg, self.hash = load_config(args.config)
        self.seed = args.seed
        out = args.out or os.environ.get("PODLAB_OUT") or "podlab_out"
        self.out = Path(out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out} ({exc})") from None

    @property
    def channel_seed(self) -> int:
        return self.cfg["channel"]["seed"] if self.seed is None else self.seed

    @property
    def base_seed(self) -> int:
        return self.cfg["simulation"]["base_seed"] if self.seed is None else self.seed

    def write_json(self, name: str, payload: dict, seed=None) -> None:
        payload = {"config_sha256": self.hash, "seed": seed, **payload}
        (self.out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_csv(self, name: str, text: str, seed=None) -> None:
        with (self.out / name).open("w") as f:
            f.write(f"# config_sha256={self.hash} seed={seed}\n")
            f.write(text)

    def _artifact(self, name: str, stage: str) -> Path:
        """The path of the artifact that ``stage`` writes, which must exist."""
        path = self.out / name
        if not path.exists():
            raise ConfigError(f"required artifact {path} not found; run '{stage}' first")
        return path

    def read_json(self, name: str, stage: str, parse: Callable[[dict], object]):
        """``parse`` of a JSON artifact's payload.

        Raises ``ConfigError``, naming the artifact and ``stage``, its writer,
        when the file cannot be read, is not UTF-8 JSON, lacks a key that
        ``parse`` reads or holds a value of a type or form ``parse`` rejects
        with ``TypeError`` or ``ValueError``; a ``PodlabError`` of ``parse``
        propagates.
        """
        path = self._artifact(name, stage)
        try:
            return parse(json.loads(path.read_text(encoding="utf-8")))
        # UnicodeDecodeError and json.JSONDecodeError are ValueErrors
        except (OSError, ValueError, TypeError, KeyError) as exc:
            reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"unreadable artifact {path} ({reason}); rerun '{stage}'") from None

    def read_csv(self, name: str, stage: str, usecols: tuple[int, ...] | None = None) -> np.ndarray:
        """The numeric rows of a CSV artifact below its manifest and header,
        only the columns ``usecols`` if given.

        Raises ``ConfigError``, naming the artifact and ``stage``, its writer,
        when a cell does not parse, a row lacks a column that is read, the rows
        differ in width while every column is read, or there is no data row.
        It raises too when the data rows hold more commas than the header's
        per row, as a row with more fields than the header does; this counts
        bytes and parses nothing a second time.  Callers read the last column,
        so a row that lacks one fails the parse and cannot hide a longer one.
        """
        path = self._artifact(name, stage)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2, usecols=usecols)
        except ValueError as exc:
            raise ConfigError(f"unreadable artifact {path} ({exc}); rerun '{stage}'") from None
        if len(data) == 0:
            raise ConfigError(f"artifact {path} has no data rows; rerun '{stage}'")
        raw = path.read_bytes()
        header = raw.index(b"\n") + 1
        body = raw.index(b"\n", header) + 1
        width = raw.count(b",", header, body) + 1
        # count 64 KiB at a time: one comparison array over the whole body
        # would cost more in fresh pages than the count itself
        codes = np.frombuffer(raw, np.uint8, offset=body)
        commas = sum(
            np.count_nonzero(codes[i : i + 65536] == ord(",")) for i in range(0, len(codes), 65536)
        )
        if commas != len(data) * (width - 1):
            reason = _odd_row(raw, width)
            raise ConfigError(f"unreadable artifact {path} ({reason}); rerun '{stage}'")
        return data

    def identified(self) -> list[IdentifiedPlant]:
        """The identified p and q paths of ``sysid fit``."""
        return [
            self.read_json(f"identified_{tag}.json", "sysid fit", IdentifiedPlant.from_dict)
            for tag, _ in _LOOPS
        ]

    def designs(self) -> tuple[list[CompensatorDesign], tuple[float, ...]]:
        """The p and q designs of ``design run``, and the target modes in Hz."""
        (dp, modes_hz), (dq, _) = (
            self.read_json(
                f"design_{tag}.json", "design run",
                lambda d: (
                    CompensatorDesign.from_dict(d),
                    tuple(w / (2.0 * math.pi) for w in d["mode_omegas_rad_s"]),
                ),
            )
            for tag, _ in _LOOPS
        )
        return [dp, dq], modes_hz

    def surrogate(self) -> DelaySurrogate:
        """The fitted surrogate of ``channel fit``, else the one the config implies."""
        if (self.out / "delay_surrogate.json").exists():
            return self.read_json("delay_surrogate.json", "channel fit", DelaySurrogate.from_dict)
        return pipeline.design_surrogate(self.cfg)


def _odd_row(raw: bytes, width: int) -> str:
    """The first row of a CSV artifact, below its manifest and header, whose
    field count is not ``width``."""
    for number, row in enumerate(raw.split(b"\n")[2:], 3):
        fields = row.count(b",") + 1
        if row.strip() and fields != width:
            return f"line {number} has {fields} fields, the header {width}"
    return f"its rows do not hold {width} fields each"


def cmd_plant_build(ctx: _Ctx) -> None:
    plant = build_reference_plant(plant_config(ctx.cfg))
    ctx.write_json(
        "plant.json",
        {
            "true_modes": [
                {"freq_hz": m.freq_hz, "damping_ratio": m.damping_ratio}
                for m in plant.true_modes
            ],
            "order": int(plant.A.shape[0]),
        },
    )


def cmd_channel_measure(ctx: _Ctx) -> None:
    n = ctx.cfg["channel"]["campaign_messages"]
    log = chan.measure_campaign(channel_config(ctx.cfg), n, ctx.channel_seed)
    ctx.write_csv("delay_log.csv", log.csv_text(), seed=ctx.channel_seed)


def cmd_channel_fit(ctx: _Ctx) -> None:
    log = ctx.read_csv("delay_log.csv", "channel measure", usecols=(0, 1))
    delays = log[:, 1] - log[:, 0]
    # when every delay is 0, a 1 ns top edge keeps the 20 bins from collapsing
    top = delays.max() * (1 + 1e-9) or 1e-9
    edges = np.linspace(delays.min(), top, 21)
    probs = chan.bin_probs(np.histogram(delays, bins=edges)[0])
    dist = chan.DelayDistribution.empirical(edges, probs)
    ctx.write_json(
        "delay_histogram.json",
        {"bin_edges": list(edges), "bin_probs": list(probs), "mean_s": dist.mean_s},
        seed=ctx.channel_seed,
    )
    surrogate = pipeline.surrogate_for(ctx.cfg, dist.mean_s)
    ctx.write_json("delay_surrogate.json", surrogate.to_dict(), seed=ctx.channel_seed)


def cmd_sysid_prbs(ctx: _Ctx) -> None:
    plant = build_reference_plant(plant_config(ctx.cfg))
    u, Y, fs = pipeline.run_prbs_experiment(ctx.cfg, plant)
    for (tag, _), y in zip(_LOOPS, Y):
        text = format_text("t_s,u_pu,y_pu", np.arange(len(u)) / fs, u, y)
        ctx.write_csv(f"experiment_{tag}.csv", text)


def cmd_sysid_fit(ctx: _Ctx) -> None:
    fs = ctx.cfg["identification"]["sample_rate_hz"]
    for tag, _ in _LOOPS:
        u, y = ctx.read_csv(f"experiment_{tag}.csv", "sysid prbs", usecols=(1, 2)).T
        (ident,) = pipeline.identify_path(ctx.cfg, u, y[None], fs)
        ctx.write_json(f"identified_{tag}.json", ident.to_dict())


def cmd_design_run(ctx: _Ctx) -> None:
    identified = ctx.identified()
    surrogate = ctx.surrogate()
    for (tag, loop), ident in zip(_LOOPS, identified):
        result = pipeline.design_loop(ctx.cfg, ident, surrogate, loop)
        ctx.write_json(
            f"design_{tag}.json",
            {
                **result.design.to_dict(),
                **asdict(result.diagnostics),
                "mode_omegas_rad_s": list(result.context.omegas),
            },
        )


def cmd_analyze_bode(ctx: _Ctx) -> None:
    identified = ctx.identified()
    designs, _ = ctx.designs()
    surrogate = ctx.surrogate()
    band = tuple(ctx.cfg["design"]["band_hz"])
    for (tag, _), ident, design in zip(_LOOPS, identified, designs):
        plant_delay = series(surrogate.pade, ident.tf)
        g = analysis.open_loop(
            design.compensator_tf(), design.washout_tf(), design.gain,
            surrogate.pade, ident.tf,
        )
        for stem, tf in (("bode_plant_delay", plant_delay), ("bode_open_loop", g)):
            ctx.write_csv(f"{stem}_{tag}.csv", analysis.bode_table(tf, band, 200))


def cmd_analyze_eig(ctx: _Ctx) -> None:
    identified = ctx.identified()
    designs, modes_hz = ctx.designs()
    surrogate = ctx.surrogate()
    studies = {
        f"{tag}_loop": analysis.delay_sweep(
            to_state_space(ident.tf), design, surrogate, modes_hz
        ).to_dict()
        for (tag, _), ident, design in zip(_LOOPS, identified, designs)
    }
    plant = build_reference_plant(plant_config(ctx.cfg))
    combined = analysis.closed_loop_modes_two(
        plant.A, plant.B_p, plant.B_q, plant.C, *designs,
        surrogate, modes_hz, label="both loops, reference plant",
    )
    ctx.write_json(
        "eigen_study.json",
        {
            **studies,
            "combined": {
                "label": combined.label,
                "stable": combined.stable,
                "target_modes": [
                    {"freq_hz": m.freq_hz, "damping_ratio": m.damping_ratio}
                    for m in combined.target_modes
                ],
            },
        },
    )


def _sim_inputs(ctx: _Ctx) -> tuple:
    """The plant, p and q designs, channel and scenario of both sim stages."""
    designs, _ = ctx.designs()
    plant = build_reference_plant(plant_config(ctx.cfg))
    return (
        plant, *designs,
        channel_config(ctx.cfg),
        scenario_config(ctx.cfg),
    )


def cmd_sim_run(ctx: _Ctx) -> None:
    sim = ctx.cfg["simulation"]
    trace = simloop.run_closed_loop(
        *_sim_inputs(ctx),
        seed=ctx.base_seed,
        pod_on=True,
        duration_s=sim["duration_s"],
        dt=sim["dt_s"],
    )
    ctx.write_csv("trace.csv", trace.csv_text(), seed=ctx.base_seed)


def cmd_sim_ensemble(ctx: _Ctx) -> None:
    sim = ctx.cfg["simulation"]
    stats = simloop.ensemble(
        sim["n_runs"],
        ctx.base_seed,
        *_sim_inputs(ctx),
        metric_window=tuple(sim["metric_window_s"]),
        duration_s=sim["duration_s"],
        dt=sim["dt_s"],
    )
    ctx.write_json("ensemble.json", stats.to_dict(), seed=ctx.base_seed)


_COMMANDS = {
    ("plant", "build"): cmd_plant_build,
    ("channel", "measure"): cmd_channel_measure,
    ("channel", "fit"): cmd_channel_fit,
    ("sysid", "prbs"): cmd_sysid_prbs,
    ("sysid", "fit"): cmd_sysid_fit,
    ("design", "run"): cmd_design_run,
    ("analyze", "bode"): cmd_analyze_bode,
    ("analyze", "eig"): cmd_analyze_eig,
    ("sim", "run"): cmd_sim_run,
    ("sim", "ensemble"): cmd_sim_ensemble,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podlab",
        description="POD controller design laboratory with communication-channel emulation",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for group, action in _COMMANDS:
        if group not in actions:
            actions[group] = sub.add_parser(group).add_subparsers(dest="action", required=True)
        ap = actions[group].add_parser(action)
        ap.add_argument("--config", required=True, help="path to the JSON config file")
        ap.add_argument("--out", default=None, help="output directory (default $PODLAB_OUT)")
        ap.add_argument("--seed", type=int, default=None, help="override config seeds")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        ctx = _Ctx(args)
        _COMMANDS[(args.group, args.action)](ctx)
    except PodlabError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
