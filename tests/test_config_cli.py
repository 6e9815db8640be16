import argparse
import dataclasses
import functools
import inspect
import json
import math
import operator
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import podlab
from podlab import cli, config, errors, pipeline, poddesign, refplant, simloop, sysid
from podlab.cli import main
from podlab.channel import ChannelConfig, default_delay_distribution
from podlab.config import (
    channel_config,
    config_hash,
    default_config,
    delay_distribution,
    load_config,
    scenario_config,
    validate_config,
)
from podlab.delaymodel import DelaySurrogate, build_surrogate
from podlab.errors import ConfigError
from podlab.poddesign import CompensatorDesign
from podlab.refplant import DisturbanceScenario
from podlab.sysid import IdentifiedPlant

_MISSING = object()


class TestConfigValidation:
    def test_default_config_validates(self):
        assert validate_config(default_config()) is not None

    def test_unknown_key_rejected(self):
        cfg = default_config()
        cfg["plant"]["spice_level"] = 11
        with pytest.raises(ConfigError, match="spice_level"):
            validate_config(cfg)

    def test_unknown_nested_key_rejected(self):
        cfg = default_config()
        cfg["design"]["limits"]["volts"] = 1.0
        with pytest.raises(ConfigError, match="volts"):
            validate_config(cfg)

    def test_missing_section_rejected(self):
        cfg = default_config()
        del cfg["channel"]
        with pytest.raises(ConfigError, match="channel"):
            validate_config(cfg)

    def test_bad_schema_version_rejected(self):
        cfg = default_config()
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config(cfg)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_hash_stable_and_sensitive(self):
        a = default_config()
        b = default_config()
        assert config_hash(a) == config_hash(b)
        b["simulation"]["base_seed"] = 43
        assert config_hash(a) != config_hash(b)

    @pytest.mark.parametrize("section, key", [("channel", "seed"), ("simulation", "base_seed")])
    @pytest.mark.parametrize("value", [-1, 0.5, True, "42", None])
    def test_bad_seed_rejected(self, section, key, value):
        # numpy's SeedSequence rejects these itself, or (None) seeds from entropy
        cfg = default_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"'{section}.{key}' must be a non-negative integer"):
            validate_config(cfg)

    def test_unknown_delay_kind_rejected(self):
        cfg = default_config()
        cfg["channel"]["delay"] = {"kind": "carrier-pigeon"}
        with pytest.raises(ConfigError, match="delay kind"):
            delay_distribution(cfg)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            pytest.param("channel.rate_hz", _MISSING, "channel.rate_hz", id="missing-rate_hz"),
            pytest.param("simulation.dt_s", _MISSING, "simulation.dt_s", id="missing-dt_s"),
            pytest.param(
                "channel.delay", {"kind": "uniform", "low": 0.1}, "channel.delay.high",
                id="uniform-without-high",
            ),
            pytest.param(
                "channel.delay", {"kind": "uniform", "low": 0.1, "high": 0.5, "value": 0.3},
                "channel.delay.value", id="point-mass-key-under-uniform",
            ),
            pytest.param("design.gain_grid.n", "40", "design.gain_grid.n", id="n-string"),
            pytest.param("design.gain_grid.n", 40.0, "design.gain_grid.n", id="n-float"),
            pytest.param("channel.rate_hz", "3.5", "channel.rate_hz", id="rate-string"),
            pytest.param("identification.fit_order", True, "identification.fit_order", id="order-bool"),
            pytest.param("design.band_hz", [0.1], "design.band_hz", id="band-one-item"),
            pytest.param(
                "identification.band_hz", [0.1, 1.0, 2.0], "identification.band_hz",
                id="ident-band-three-items",
            ),
            pytest.param(
                "plant.mode_freqs_hz", [0.45, 0.9, 1.2], "plant.mode_freqs_hz", id="three-modes"
            ),
            pytest.param(
                "simulation.metric_window_s", [1.0], "simulation.metric_window_s",
                id="window-one-item",
            ),
        ],
    )
    def test_bad_key_rejected_by_name(self, key, value, named):
        cfg = default_config()
        *sections, leaf = key.split(".")
        section = functools.reduce(operator.getitem, sections, cfg)
        if value is _MISSING:
            del section[leaf]
        else:
            section[leaf] = value
        with pytest.raises(ConfigError, match=re.escape(f"'{named}'")):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            (("design", "gain_grid"), "hi", math.inf, "design.gain_grid.hi"),
            (("simulation",), "duration_s", math.nan, "simulation.duration_s"),
            (("simulation",), "metric_window_s", [1.0, -math.inf], "simulation.metric_window_s[1]"),
        ],
        ids=["grid-hi-inf", "duration-nan", "window-end-minus-inf"],
    )
    def test_non_finite_number_rejected_by_name(self, tmp_path, section, key, value, named):
        # json.dumps writes these as Infinity and NaN, which json.loads reads back
        cfg = default_config()
        functools.reduce(operator.getitem, section, cfg)[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match=re.escape(f"'{named}' must be finite")):
            load_config(path)

    def test_histogram_bins_are_data(self):
        edges = np.linspace(0.05, 1.5, 21)
        cfg = default_config()
        cfg["channel"]["delay"] = {
            "kind": "empirical-histogram", "bin_edges": list(edges), "bin_probs": [0.05] * 20,
        }
        dist = delay_distribution(validate_config(cfg))
        assert list(dist.bin_edges) == list(edges) and len(dist.bin_probs) == 20

    def test_default_config_calls_are_independent(self):
        a, b = default_config(), default_config()
        assert a == b and a is not b
        a["plant"]["mode_freqs_hz"].append(1.2)
        a["channel"]["delay"]["mean_s"] = 0.5
        assert b == default_config() and b["plant"]["mode_freqs_hz"] == [0.45, 0.9]

    def test_omitted_optional_keys_take_their_fallbacks(self):
        cfg = default_config()
        for section, keys in (
            (cfg["channel"], ("campaign_messages", "quantization_step", "emission")),
            (cfg["channel"]["delay"], ("mean_s",)),
            (cfg["design"], ("max_phase_err_deg", "max_pade_order", "washout_Tw_s")),
            (cfg["simulation"]["scenario"], ("start_s", "duration_s", "target")),
        ):
            for key in keys:
                del section[key]
        full = validate_config(cfg)
        assert channel_config(full) == ChannelConfig(
            delay=default_delay_distribution(mean_s=0.3), rate_hz=3.5, quantization_step=0.0,
            emission="jittered-periodic",
        )
        assert scenario_config(full) == DisturbanceScenario(
            kind="state-impulse", magnitude=0.05, start_s=0.0, duration_s=0.0, target="mode-states"
        )
        assert pipeline.surrogate_for(full, 0.3) == build_surrogate(
            0.3, band_hz=(0.1, 2.0), max_phase_err_deg=10.0, max_order=8
        )
        assert full["channel"]["campaign_messages"] == 1200
        assert full["design"]["washout_Tw_s"] == 5.0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = default_config()
    # keep the CLI stage fast; the full-size ensemble runs in the
    # acceptance suite
    cfg["simulation"]["n_runs"] = 3
    cfg["simulation"]["duration_s"] = 10.0
    cfg["simulation"]["metric_window_s"] = [1.0, 10.0]
    cfg_path = d / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    return d, cfg_path, cfg


# the ten CLI stages in pipeline order
_STAGES = [
    ["plant", "build"], ["channel", "measure"], ["channel", "fit"],
    ["sysid", "prbs"], ["sysid", "fit"], ["design", "run"],
    ["analyze", "bode"], ["analyze", "eig"],
    ["sim", "run"], ["sim", "ensemble"],
]


@pytest.fixture(scope="module")
def pipeline_out(workdir):
    d, cfg_path, _ = workdir
    out = d / "out"
    for stage in _STAGES:
        rc = main(stage + ["--config", str(cfg_path), "--out", str(out)])
        assert rc == 0, f"stage {stage} failed"
    return out


class TestCliPipeline:
    def test_all_artifacts_written(self, pipeline_out):
        expected = [
            "plant.json", "delay_log.csv", "delay_histogram.json",
            "delay_surrogate.json", "experiment_p.csv", "experiment_q.csv",
            "identified_p.json", "identified_q.json",
            "design_p.json", "design_q.json",
            "bode_plant_delay_p.csv", "bode_open_loop_p.csv",
            "bode_plant_delay_q.csv", "bode_open_loop_q.csv",
            "eigen_study.json", "trace.csv", "ensemble.json",
        ]
        for name in expected:
            assert (pipeline_out / name).exists(), name

    def test_artifacts_embed_config_hash(self, workdir, pipeline_out):
        _, _, cfg = workdir
        h = config_hash(cfg)
        payload = json.loads((pipeline_out / "design_p.json").read_text())
        assert payload["config_sha256"] == h
        first = (pipeline_out / "trace.csv").read_text().splitlines()[0]
        assert h in first

    def test_design_artifacts_report_converged_solution(self, pipeline_out):
        for tag in ("p", "q"):
            d = json.loads((pipeline_out / f"design_{tag}.json").read_text())
            assert d["fnorm"] <= 1e-10
            assert d["fnorm_inf"] < 1e-6
            # every start before the kept one was tried and failed
            assert len(d["residual_norms"]) == d["selected_start"] + 1
            assert "converged" not in d
            for phi in d["phase_budget"]["phi_G_deg"]:
                assert abs(phi) < 5.0

    def test_design_and_ensemble_payload_keys(self, pipeline_out):
        """The payloads come from their dataclasses, so a field added to one
        of them shows here as an artifact change."""
        manifest = {"config_sha256", "seed"}
        for tag in ("p", "q"):
            d = json.loads((pipeline_out / f"design_{tag}.json").read_text())
            assert set(d) == manifest | {
                "T1_s", "T2_s", "T3_s", "T4_s", "gain", "washout_Tw_s", "limit_pu", "loop",
                "residual_norms", "selected_start", "fnorm", "fnorm_inf", "phase_budget",
                "mode_omegas_rad_s",
            }
            assert set(d["phase_budget"]) == {"phi_P_deg", "phi_D_deg", "phi_C_deg", "phi_G_deg"}
        stats = json.loads((pipeline_out / "ensemble.json").read_text())
        assert set(stats) == manifest | {"n_runs", "metrics", "baseline_metric", "median_ratio"}

    def test_eigen_study_shows_improvement(self, pipeline_out):
        study = json.loads((pipeline_out / "eigen_study.json").read_text())
        assert study["combined"]["stable"]
        baseline = study["p_loop"]["baseline"]
        for m in study["combined"]["target_modes"]:
            nearest = min(baseline, key=lambda b: abs(b["freq_hz"] - m["freq_hz"]))
            assert m["damping_ratio"] > nearest["damping_ratio"]

    def test_ensemble_median_below_one(self, pipeline_out):
        stats = json.loads((pipeline_out / "ensemble.json").read_text())
        assert stats["n_runs"] == 3
        assert stats["median_ratio"] < 1.0

    def test_sim_run_seed_determinism(self, workdir, pipeline_out, tmp_path):
        d, cfg_path, _ = workdir
        out2 = tmp_path / "copy"
        shutil.copytree(pipeline_out, out2)
        args = ["sim", "run", "--config", str(cfg_path), "--seed", "7"]
        assert main(args + ["--out", str(pipeline_out)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (pipeline_out / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_csv_fields_are_their_own_percent_9g(self, pipeline_out):
        """Every data field of every CSV artifact is ``'%.9g' % float(field)``,
        checked field by field without the CSV encoder."""
        names = ["delay_log.csv", "experiment_p.csv", "experiment_q.csv", "trace.csv"]
        names += [f"bode_{kind}_{tag}.csv" for kind in ("plant_delay", "open_loop") for tag in "pq"]
        for name in names:
            manifest, header, *rows = (pipeline_out / name).read_text().splitlines()
            assert manifest.startswith("# config_sha256=") and header[0].isalpha()
            assert rows, name
            reprinted = [",".join("%.9g" % float(f) for f in row.split(",")) for row in rows]
            assert reprinted == rows, name

    @pytest.mark.parametrize("name", ["experiment_p.csv", "experiment_q.csv", "delay_log.csv"])
    def test_csv_parse_equals_per_value_float(self, workdir, pipeline_out, name):
        _, cfg_path, _ = workdir
        path = pipeline_out / name
        rows = [r for r in path.read_text().splitlines() if r and not r.startswith("#")]
        expect = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        ctx = cli._Ctx(argparse.Namespace(config=str(cfg_path), out=str(pipeline_out), seed=None))
        got = ctx.read_csv(name, "earlier stage")
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "stage, name",
        [(["sim", "run"], "trace.csv"), (["sim", "ensemble"], "ensemble.json")],
        ids=["sim-run", "sim-ensemble"],
    )
    def test_sim_stages_read_only_the_designs(self, workdir, pipeline_out, tmp_path, stage, name):
        _, cfg_path, _ = workdir
        full, designs_only = tmp_path / "full", tmp_path / "designs_only"
        shutil.copytree(pipeline_out, full)
        designs_only.mkdir()
        for tag in ("p", "q"):
            shutil.copy(pipeline_out / f"design_{tag}.json", designs_only)
        for out in (full, designs_only):
            assert main(stage + ["--config", str(cfg_path), "--out", str(out)]) == 0
        assert (designs_only / name).read_bytes() == (full / name).read_bytes()


def _round_trip(x):
    return type(x).from_dict(json.loads(json.dumps(x.to_dict())))


class TestArtifactRoundTrip:
    """``from_dict`` inverts ``to_dict`` through JSON, for the pipeline's
    objects and for the artifacts a CLI chain writes."""

    def test_pipeline_objects(self, cfg, identified, surrogate, loop_designs):
        objects = [*identified, surrogate, pipeline.surrogate_for(cfg, 0.0)]
        objects += [ld.design for ld in loop_designs]
        for x in objects:
            assert _round_trip(x) == x

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("identified_p.json", IdentifiedPlant),
            ("identified_q.json", IdentifiedPlant),
            ("design_p.json", CompensatorDesign),
            ("design_q.json", CompensatorDesign),
            ("delay_surrogate.json", DelaySurrogate),
        ],
    )
    def test_cli_artifacts(self, pipeline_out, name, cls):
        payload = json.loads((pipeline_out / name).read_text())
        x = cls.from_dict(payload)
        assert _round_trip(x) == x
        # the artifact holds the object's fields as written, next to its
        # manifest (and, for a design, its diagnostics)
        d = x.to_dict()
        assert {k: payload[k] for k in d} == d

    def test_channel_fit_builds_the_pipeline_surrogate(self, workdir, pipeline_out):
        _, _, cfg = workdir
        mean_s = json.loads((pipeline_out / "delay_histogram.json").read_text())["mean_s"]
        fitted = json.loads((pipeline_out / "delay_surrogate.json").read_text())
        assert DelaySurrogate.from_dict(fitted) == pipeline.surrogate_for(cfg, mean_s)


def _point_mass_fit(workdir, out: Path, value: float) -> tuple[dict, dict]:
    """The histogram and surrogate that 'channel measure' and 'channel fit'
    write for a point-mass channel at ``value`` s; both stages must exit 0."""
    _, _, cfg = workdir
    pm = json.loads(json.dumps(cfg))
    pm["channel"]["delay"] = {"kind": "point-mass", "value": value}
    cfg_path = out.parent / f"point_mass_{value}.json"
    cfg_path.write_text(json.dumps(pm))
    rcs = [main([*stage, "--config", str(cfg_path), "--out", str(out)]) for stage in _STAGES[1:3]]
    assert rcs == [0, 0]
    names = ("delay_histogram.json", "delay_surrogate.json")
    return tuple(json.loads((out / name).read_text()) for name in names)


class TestChannelFit:
    def test_zero_delay_campaign_fits(self, workdir, tmp_path):
        """Every delay 0 s: the 20 bins span 1 ns, and the surrogate's delay
        is below it."""
        hist, sur = _point_mass_fit(workdir, tmp_path / "out", 0.0)
        edges = np.array(hist["bin_edges"])
        assert edges[0] == 0.0 and edges[-1] == 1e-9
        assert np.all(np.diff(edges) > 0)
        assert hist["bin_probs"][0] == 1.0
        assert 0.0 < sur["theta_s"] <= 1e-9

    def test_non_zero_point_mass_keeps_its_edges(self, workdir, tmp_path):
        """The edges span the logged delays' minimum to 1 + 1e-9 times their
        maximum, as the CSV text holds them."""
        hist, _ = _point_mass_fit(workdir, tmp_path / "out", 0.3)
        log = np.loadtxt(tmp_path / "out" / "delay_log.csv", delimiter=",", skiprows=2)
        delays = log[:, 1] - log[:, 0]
        assert delays.min() < delays.max() < 0.3 + 1e-9
        edges = np.linspace(delays.min(), delays.max() * (1 + 1e-9), 21)
        assert hist["bin_edges"] == edges.tolist()


def _set(key: str, value):
    """A corruption of a JSON artifact's text: ``key`` set to ``value``."""
    return lambda text: json.dumps({**json.loads(text), key: value})


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` on the package under test."""
    src = str(Path(podlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_signal_and_stats_unloaded():
    """Every console-script stage imports podlab.cli; podlab imports no scipy,
    so neither scipy.signal nor scipy.stats loads with it."""
    code = "import sys, podlab.cli; print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_identification_leaves_scipy_signal_unloaded():
    """The Welch spectra take their transforms from np.fft, so identifying
    both paths loads no scipy.signal."""
    code = (
        "import sys, podlab.cli; from podlab import pipeline; "
        "from podlab.config import default_config; "
        "pipeline.identify_both(default_config()); print('scipy.signal' in sys.modules)"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_runs_with_scipy_blocked(tmp_path):
    """podlab needs numpy alone: with every scipy import made to fail, the
    ten stages on the default config write the bytes of an unblocked run,
    and a truncated-normal channel builds and draws."""
    config = Path(podlab.__file__).parent / "data" / "default_config.json"
    chain = (
        "from podlab.cli import main; "
        f"assert all(main([*stage, '--config', {str(config)!r}, '--out', sys.argv[1]]) == 0 "
        f"for stage in {_STAGES!r})"
    )
    draw = (
        "import numpy as np; from podlab import channel; "
        "delay = channel.DelayDistribution.truncated_normal(0.3, 0.075, 0.05, 1.5); "
        "cfg = channel.ChannelConfig(delay, 5.0, 'poisson'); "
        "print(len(channel.ChannelInstance(cfg, 10.0, np.random.default_rng(0)).t_arrive) > 0)"
    )
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    out = _python("-c", f"import sys; sys.modules['scipy'] = None; {chain}; {draw}", str(blocked))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("True")
    out = _python("-c", f"import sys; {chain}", str(free))
    assert out.returncode == 0, out.stderr
    names = sorted(p.name for p in free.iterdir())
    assert len(names) == 17
    assert sorted(p.name for p in blocked.iterdir()) == names
    assert all((blocked / n).read_bytes() == (free / n).read_bytes() for n in names)


# the CLI line prefix of each error class
_PREFIXES = {
    errors.PodlabError: "podlab",
    errors.LtiError: "lti-core",
    errors.PlantError: "refplant",
    errors.ChannelError: "channel",
    errors.DelayModelError: "delaymodel",
    errors.SysidError: "sysid",
    errors.DesignError: "poddesign",
    errors.NyquistLimitError: "poddesign",
    errors.InfeasibleOperatingPointError: "poddesign",
    errors.AnalysisError: "analysis",
    errors.SimulationError: "simloop",
    errors.ConfigError: "cli",
}


@pytest.mark.parametrize("cls", _PREFIXES, ids=lambda cls: cls.__name__)
def test_error_class_prefix(cls):
    assert cls.prefix == _PREFIXES[cls]


# constructor arguments of the error classes that take more than a message
_ERROR_ARGS = {errors.NyquistLimitError: (0.9, 0.5)}


@pytest.mark.parametrize("cls", _PREFIXES, ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    # ensemble workers hand their errors to the parent through pickle
    err = cls(*_ERROR_ARGS.get(cls, ("some message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.prefix == cls.prefix
    assert vars(back) == vars(err)


def test_every_error_class_has_a_prefix_row():
    classes = {
        x for x in vars(errors).values() if isinstance(x, type) and issubclass(x, errors.PodlabError)
    }
    assert classes == set(_PREFIXES)


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestCliParser:
    def test_parser_accepts_exactly_the_command_pairs(self):
        parser = cli.build_parser()
        accepted = {
            (group, action)
            for group, actions in _subcommands(parser).items()
            for action in _subcommands(actions)
        }
        assert accepted == set(cli._COMMANDS)
        for group, action in cli._COMMANDS:
            args = parser.parse_args([group, action, "--config", "c.json"])
            assert (args.group, args.action) == (group, action)

    def test_parser_follows_the_command_table(self, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, ("plant", "inspect"), cli.cmd_plant_build)
        args = cli.build_parser().parse_args(["plant", "inspect", "--config", "c.json"])
        assert (args.group, args.action) == ("plant", "inspect")


class TestCliErrors:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["plant"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        rc = main(["plant", "build", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_artifact_names_earlier_stage(self, workdir, tmp_path, capsys):
        _, cfg_path, _ = workdir
        rc = main(["design", "run", "--config", str(cfg_path),
                   "--out", str(tmp_path / "empty")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("cli: required artifact") and "run 'sysid fit' first" in err

    @pytest.mark.parametrize(
        "stage, earlier",
        [(["channel", "fit"], "channel measure"), (["sysid", "fit"], "sysid prbs")],
    )
    def test_missing_csv_artifact_names_earlier_stage(
        self, workdir, tmp_path, capsys, stage, earlier
    ):
        _, cfg_path, _ = workdir
        rc = main(stage + ["--config", str(cfg_path), "--out", str(tmp_path / "empty")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("cli: required artifact") and f"run '{earlier}' first" in err

    def test_nyquist_violation_reported(self, workdir, pipeline_out, tmp_path, capsys):
        d, _, cfg = workdir
        # a 0.8 msg/s channel cannot carry the 0.45 Hz mode
        slow = json.loads(json.dumps(cfg))
        slow["channel"]["rate_hz"] = 0.8
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        rc = main(["design", "run", "--config", str(slow_path), "--out", str(out)])
        assert rc == 1
        assert "NY-LIMIT" in capsys.readouterr().err

    def test_empty_gain_grid_reported(self, workdir, pipeline_out, tmp_path, capsys):
        _, _, cfg = workdir
        bad = json.loads(json.dumps(cfg))
        bad["design"]["gain_grid"]["n"] = 0
        bad_path = tmp_path / "no_gains.json"
        bad_path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        rc = main(["design", "run", "--config", str(bad_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "poddesign: design.gain_grid.n must be at least 1, got 0\n"

    @pytest.mark.parametrize("stage", [["sim", "run"], ["sim", "ensemble"]])
    def test_zero_step_reported(self, workdir, pipeline_out, tmp_path, capsys, stage):
        _, _, cfg = workdir
        bad = json.loads(json.dumps(cfg))
        bad["simulation"]["dt_s"] = 0
        bad_path = tmp_path / "zero_dt.json"
        bad_path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        rc = main(stage + ["--config", str(bad_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("simloop: simulation step 0 s outside (0, 1 ms]")

    @pytest.mark.parametrize("stage", [["channel", "measure"], ["sim", "run"], ["sim", "ensemble"]])
    def test_negative_seed_flag_reported(self, workdir, pipeline_out, tmp_path, capsys, stage):
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        rc = main(stage + ["--config", str(cfg_path), "--out", str(out), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "cli: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "stage, section, key",
        [
            (["channel", "measure"], "channel", "seed"),
            (["sim", "run"], "simulation", "base_seed"),
            (["sim", "ensemble"], "simulation", "base_seed"),
        ],
    )
    def test_negative_config_seed_reported(
        self, workdir, pipeline_out, tmp_path, capsys, stage, section, key
    ):
        _, _, cfg = workdir
        bad = json.loads(json.dumps(cfg))
        bad[section][key] = -1
        bad_path = tmp_path / "negative_seed.json"
        bad_path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        rc = main(stage + ["--config", str(bad_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"cli: config key '{section}.{key}' must be a non-negative integer, got -1\n"

    def test_negative_seed_console_has_no_traceback(self, workdir, tmp_path):
        _, cfg_path, _ = workdir
        argv = ["channel", "measure", "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "-1"]
        proc = _python("-m", "podlab.cli", *argv)
        assert proc.returncode == 1
        assert proc.stderr == "cli: --seed must be a non-negative integer, got -1\n"

    def test_window_without_baseline_energy_console_has_no_traceback(
        self, workdir, pipeline_out, tmp_path
    ):
        """A metric window that ends before the kick at 1 s leaves the POD-off
        run without energy; the ensemble stage names the window and exits 1."""
        _, _, cfg = workdir
        bad = json.loads(json.dumps(cfg))
        bad["simulation"]["metric_window_s"] = [0.0, 0.5]
        bad_path = tmp_path / "early_window.json"
        bad_path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        proc = _python("-m", "podlab.cli", "sim", "ensemble", "--config", str(bad_path), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("simloop: the POD-off energy over metric window (0.0, 0.5) is 0")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "stage, name, earlier, corrupt",
        [
            (["sysid", "fit"], "experiment_p.csv", "sysid prbs",
             lambda rows: rows[:4] + ["0.002,abc,0.5"] + rows[5:]),
            (["sysid", "fit"], "experiment_q.csv", "sysid prbs",
             lambda rows: rows[:4] + ["0.002,1"] + rows[5:]),
            (["channel", "fit"], "delay_log.csv", "channel measure", lambda rows: rows[:2]),
            (["channel", "fit"], "delay_log.csv", "channel measure",
             lambda rows: rows[:2] + [r.split(",")[0] for r in rows[2:]]),
            (["sysid", "fit"], "experiment_p.csv", "sysid prbs",
             lambda rows: rows[:4] + [rows[4] + ",7"] + rows[5:]),
            (["channel", "fit"], "delay_log.csv", "channel measure",
             lambda rows: rows[:3] + [rows[3] + ",9"] + rows[4:]),
        ],
        ids=["non-numeric-cell", "short-row", "header-only", "one-column", "long-row",
             "long-row-delay-log"],
    )
    def test_malformed_csv_console_has_no_traceback(
        self, workdir, pipeline_out, tmp_path, stage, name, earlier, corrupt
    ):
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / name
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        proc = _python("-m", "podlab.cli", *stage, "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("cli: ") and str(path) in proc.stderr
        assert proc.stderr.endswith(f"rerun '{earlier}'\n")

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("0.008,0.05,0,7", "line 6 has 4 fields, the header 3"),
            ("0.008,0.05,0,", "line 6 has 4 fields, the header 3"),
            ("# 0.008,0.05,0", "its rows do not hold 3 fields each"),
        ],
        ids=["extra-field", "trailing-comma", "comment-with-a-full-row"],
    )
    def test_row_wider_than_the_header_is_named(
        self, workdir, pipeline_out, tmp_path, capsys, row, reason
    ):
        """loadtxt reads only the columns it is asked for; the comma count
        refuses a row with more fields than the header, and names its line."""
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / "experiment_p.csv"
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows[:5] + [row] + rows[5:]) + "\n")
        assert main(["sysid", "fit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"cli: unreadable artifact {path} ({reason}); rerun 'sysid prbs'\n"
        )

    def test_missing_key_console_has_no_traceback(self, workdir, tmp_path):
        _, _, cfg = workdir
        bad = json.loads(json.dumps(cfg))
        del bad["channel"]["rate_hz"]
        bad_path = tmp_path / "no_rate.json"
        bad_path.write_text(json.dumps(bad))
        argv = ["channel", "measure", "--config", str(bad_path), "--out", str(tmp_path)]
        proc = _python("-m", "podlab.cli", *argv)
        assert proc.returncode == 1
        assert proc.stderr == "cli: missing config key 'channel.rate_hz'\n"

    def test_reused_parser_sees_only_each_calls_arguments(self, workdir, tmp_path, monkeypatch):
        _, cfg_path, _ = workdir
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        seen = []
        for key in cli._COMMANDS:
            monkeypatch.setitem(
                cli._COMMANDS, key, lambda ctx, key=key: seen.append((*key, ctx.seed, ctx.out.name))
            )
        calls = [
            ["channel", "measure", "--seed", "7"],
            ["plant", "build"],
            ["channel", "measure"],
            ["sim", "ensemble", "--seed", "0"],
            ["analyze", "eig"],
        ]
        for i, argv in enumerate(calls):
            assert main(argv + ["--config", str(cfg_path), "--out", str(tmp_path / str(i))]) == 0
        assert seen == [
            ("channel", "measure", 7, "0"),
            ("plant", "build", None, "1"),
            ("channel", "measure", None, "2"),
            ("sim", "ensemble", 0, "3"),
            ("analyze", "eig", None, "4"),
        ]
        assert len(built) == 1

    def test_config_directory_reported(self, tmp_path, capsys):
        rc = main(["plant", "build", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cli: cannot read config {tmp_path} (") and err.count("\n") == 1
        assert "Is a directory" in err

    def test_config_not_utf8_reported(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "Mälaren"}'.encode("latin-1"))
        rc = main(["plant", "build", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cli: cannot read config {path} (") and err.count("\n") == 1
        assert "can't decode" in err

    def test_out_naming_a_file_reported(self, workdir, tmp_path, capsys):
        _, cfg_path, _ = workdir
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["plant", "build", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cli: cannot create output directory {out} (") and err.count("\n") == 1
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "stage, name, earlier, corrupt, reason",
        [
            (["sim", "run"], "design_p.json", "design run",
             lambda text: text[: text.index(",")], "Expecting ',' delimiter"),
            (["sim", "run"], "design_p.json", "design run",
             lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "gain"}),
             "no key 'gain'"),
            (["design", "run"], "delay_surrogate.json", "channel fit",
             lambda text: text[: text.index(",")], "Expecting ',' delimiter"),
            (["analyze", "eig"], "identified_q.json", "sysid fit",
             lambda text: text.replace('"modes"', '"nodes"'), "no key 'modes'"),
            (["sim", "run"], "design_p.json", "design run",
             lambda text: json.dumps({**json.loads(text), "gain": "abc"}),
             "'<' not supported between instances of 'str' and 'int'"),
            (["sim", "run"], "design_q.json", "design run", lambda text: "[]",
             "list indices must be integers or slices, not str"),
            (["design", "run"], "identified_p.json", "sysid fit",
             lambda text: json.dumps({**json.loads(text), "num": ["x"]}),
             "could not convert string to float: 'x'"),
            *[
                (stage.split(), "design_p.json", "design run", _set(key, value), reason)
                for stage, key, value, reason in [
                    ("sim run", "washout_Tw_s", "5", "'>' not supported between instances of 'str'"),
                    ("analyze eig", "washout_Tw_s", "5", "'>' not supported"),
                    ("sim run", "mode_omegas_rad_s", ["a", 1], "unsupported operand type(s) for /"),
                    ("analyze eig", "mode_omegas_rad_s", ["a", 1], "unsupported operand type(s)"),
                    *[("sim run", key, True, f"{key} must not be a bool")
                      for key in ("gain", "T1_s", "limit_pu", "washout_Tw_s")],
                ]
            ],
            *[
                (stage.split(), "delay_surrogate.json", "channel fit", _set(key, value), reason)
                for stage, key, value, reason in [
                    ("analyze eig", "theta_s", "0.3", "'<=' not supported between instances of"),
                    ("analyze eig", "theta_s", True, "theta_s must not be a bool"),
                    ("analyze eig", "order", ["a", "a"], "order must be two integers, got ('a', 'a')"),
                    ("design run", "order", [2], "order must be two integers, got (2,)"),
                ]
            ],
        ],
        ids=[
            "truncated-design", "design-without-gain", "truncated-surrogate",
            "identified-without-modes", "design-gain-of-wrong-type", "design-not-an-object",
            "identified-non-numeric-num",
            "sim-washout-str", "eig-washout-str", "sim-modes-str", "eig-modes-str",
            "sim-gain-bool", "sim-T1-bool", "sim-limit-bool", "sim-washout-bool",
            "eig-theta-str", "eig-theta-bool", "eig-order-str", "design-order-one-int",
        ],
    )
    def test_unreadable_json_artifact_reported(
        self, workdir, pipeline_out, tmp_path, capsys, stage, name, earlier, corrupt, reason
    ):
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert main([*stage, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cli: unreadable artifact {path} ({reason}")
        assert err.endswith(f"); rerun '{earlier}'\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "stage, name, key, value, line",
        [
            ("sim run", "design_p.json", "washout_Tw_s", 0,
             "poddesign: washout time constant must be positive"),
            ("analyze eig", "design_q.json", "washout_Tw_s", -1.0,
             "poddesign: washout time constant must be positive"),
            ("analyze eig", "delay_surrogate.json", "theta_s", -0.1,
             "delaymodel: theta_s must be finite and non-negative, got -0.1"),
        ],
        ids=["sim-washout-zero", "eig-washout-negative", "eig-theta-negative"],
    )
    def test_out_of_range_value_keeps_its_prefix(
        self, workdir, pipeline_out, tmp_path, capsys, stage, name, key, value, line
    ):
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / name
        path.write_text(_set(key, value)(path.read_text()))
        assert main([*stage.split(), "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == line + "\n"

    def test_podlab_error_of_an_artifact_keeps_its_prefix(
        self, workdir, pipeline_out, tmp_path, capsys
    ):
        """A value that parses but is out of range is the parser's own
        error, not an unreadable artifact."""
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / "design_p.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "T1_s": 1e6}))
        assert main(["sim", "run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("poddesign: T1_s=1e+06 outside [") and err.count("\n") == 1

    def test_unreadable_json_artifact_console_has_no_traceback(self, workdir, pipeline_out, tmp_path):
        _, cfg_path, _ = workdir
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        path = out / "design_p.json"
        path.write_bytes(path.read_bytes()[:100])
        proc = _python("-m", "podlab.cli", "sim", "run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"cli: unreadable artifact {path} (")
        assert proc.stderr.endswith("rerun 'design run'\n")

    def test_podlab_out_env_var(self, workdir, tmp_path, monkeypatch):
        _, cfg_path, _ = workdir
        target = tmp_path / "env_out"
        monkeypatch.setenv("PODLAB_OUT", str(target))
        assert main(["plant", "build", "--config", str(cfg_path)]) == 0
        assert (target / "plant.json").exists()


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title: str) -> str:
    """The text of README.md under a level-2 heading, up to the next one."""
    return _README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


# every parameter and field that once repeated a value of the packaged
# config or of config._FALLBACKS: (callable or dataclass, name)
_NO_DEFAULT = [
    *(
        (refplant.PlantConfig, name)
        for name in (
            "mode_freqs_hz", "damping_ratios", "p_residue_phases_deg", "q_residue_phases_deg",
            "residual_corner_hz", "residual_gain",
        )
    ),
    *(
        (sysid.PrbsConfig, name)
        for name in ("register_bits", "chip_period_s", "amplitude_pu", "duration_s")
    ),
    *((refplant.DisturbanceScenario, name) for name in ("start_s", "duration_s", "target")),
    (refplant.build_reference_plant, "cfg"),
    (sysid.gen_prbs, "sample_rate_hz"),
    (sysid.fit_rational, "order"),
    *((build_surrogate, name) for name in ("band_hz", "max_phase_err_deg", "max_order")),
    (poddesign.design_compensator, "washout_Tw_s"),
    (poddesign.select_gain, "K_grid"),
    (default_delay_distribution, "mean_s"),
    *(
        (fn, name)
        for fn in (simloop.run_closed_loop, simloop.ensemble)
        for name in ("duration_s", "dt")
    ),
    (ChannelConfig, "emission"),
]


class TestOneCopyOfEachDefault:
    """Each config value lives in the packaged file or in ``_FALLBACKS``."""

    @pytest.mark.parametrize(
        "owner, name", _NO_DEFAULT, ids=[f"{owner.__name__}.{name}" for owner, name in _NO_DEFAULT]
    )
    def test_no_default(self, owner, name):
        if dataclasses.is_dataclass(owner):
            field = {f.name: f for f in dataclasses.fields(owner)}[name]
            assert field.default is dataclasses.MISSING
            assert field.default_factory is dataclasses.MISSING
        else:
            assert inspect.signature(owner).parameters[name].default is inspect.Parameter.empty

    def test_channel_config_holds_no_seed(self):
        assert "seed" not in {f.name for f in dataclasses.fields(ChannelConfig)}

    def test_select_gain_takes_the_grid_fifth(self):
        # the benchmark's tracer reads the grid as select_gain's fifth argument
        assert list(inspect.signature(poddesign.select_gain).parameters).index("K_grid") == 4

    def test_readme_fallback_table_is_the_fallbacks(self):
        rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \|$", _readme_section("Configuration"), re.M)
        table = {key: json.loads(value.replace("`", "").split(" (")[0]) for key, value in rows}
        assert table == config._FALLBACKS
        assert [type(v) for v in table.values()] == [type(config._FALLBACKS[k]) for k in table]
        field = {f.name: f for f in dataclasses.fields(ChannelConfig)}["quantization_step"]
        assert field.default == config._FALLBACKS["channel.quantization_step"]

    def test_readme_library_example(self):
        block = re.search(r"```python\n(.*?)```", _readme_section("Library example"), re.S)
        namespace = {}
        exec(block.group(1), namespace)
        assert namespace["stats"].median_ratio <= 0.5
