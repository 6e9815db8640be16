"""Tests of the benchmark harness, in smoke mode.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(workload, trace, seed=3):
    proc = run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_result_matches_spec(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_counts_repeat():
    a, b = (smoke("trace-sweep", 1, seed=11)["metrics"] for _ in range(2))
    counts = [k for k in a if not (k.endswith((".s", "self_s", "_us")) or k.startswith("trace."))]
    assert "channel.tail_gap_s_max" in counts and "sim.zoh_lsim.steps" in counts
    assert a["channel.messages_sent"]["value"] > 0
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "design-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("kind", ["empirical-histogram", "uniform", "truncated-normal", "point-mass"])
@pytest.mark.parametrize("emission", ["jittered-periodic", "poisson"])
def test_applied_messages_match_the_receiver(kind, emission):
    """The schedule-derived applied messages equal those of stepping a
    ChannelInstance over the simulation grid."""
    import chanstats
    from podlab.channel import ChannelConfig, DelayDistribution, default_delay_distribution

    delay = {
        "empirical-histogram": default_delay_distribution(mean_s=0.3),
        "uniform": DelayDistribution.uniform(0.1, 0.9),
        "truncated-normal": DelayDistribution.truncated_normal(0.3, 0.2, 0.05, 1.5),
        "point-mass": DelayDistribution.point_mass(0.3),
    }[kind]
    cfg = ChannelConfig(delay=delay, rate_hz=8.0, emission=emission)
    t_grid = np.arange(10_000) * 1e-3
    for seed in range(3):
        inst = chanstats.rebuild(cfg, 10.0, seed, 0, 1)
        for t in t_grid:
            inst.step(t, 0.0)
        applied, stale = chanstats.applied_messages(inst.t_send, inst.t_arrive, t_grid[-1])
        assert inst.t_arrive[applied].tolist() == inst.applied_times
        arrived = int(np.count_nonzero(inst.t_arrive <= t_grid[-1]))
        assert stale == arrived - len(applied)
