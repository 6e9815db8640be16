"""podlab benchmark.

Run from the root of a source checkout (the directory holding ``src/podlab``):

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 15 --trace 0

Workloads: design-sweep, mc-ensemble, trace-sweep, cli-chain, or ``all``.
With ``--trace 0`` the operations run for ``seconds`` without spans and the
end-to-end metrics are printed; with ``--trace 1`` a fixed number of
operations (``seconds`` divided by the workload's nominal operation time)
runs with spans around every call into a podlab module, is replayed without
spans to measure the tracing overhead, and the per-layer metrics are
printed.  ``--smoke`` shrinks every workload to a few seconds for tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import tracer as tracing

NAMES = ("design-sweep", "mc-ensemble", "trace-sweep", "cli-chain")
# end-to-end metric -> (unit, the name it carries on each workload)
END_TO_END = {
    "ops_per_s": ("1/s", {
        "design-sweep": "designs_per_s", "mc-ensemble": "sim_runs_per_s",
        "trace-sweep": "sim_runs_per_s", "cli-chain": "chains_per_s",
    }),
    "op_s_p50": ("s", {
        "design-sweep": "design_s_p50", "mc-ensemble": "sim_run_s_p50",
        "trace-sweep": "trace_s_p50", "cli-chain": "chain_s",
    }),
    "setup_s": ("s", {}),
    "peak_rss_mb": ("MB", {}),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimal sizes, for tests")
    return p.parse_args(argv)


class Tally:
    """Attempted and failed operations, failures by exception class."""

    def __init__(self):
        self.attempted = 0
        self.by_class: Counter = Counter()

    def add(self, error: BaseException | None) -> None:
        self.attempted += 1
        if error is not None:
            self.by_class[type(error).__name__] += 1

    @property
    def failed(self) -> int:
        return sum(self.by_class.values())

    @property
    def correct(self) -> bool:
        """No output check failed; podlab raising is a failure, not a wrong output."""
        return self.by_class["CheckFailed"] == 0


def _run_op(wl, inp):
    """Run one operation; returns (output or the PodlabError raised, seconds)."""
    from podlab.errors import PodlabError

    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except PodlabError as exc:
        out = exc
    return out, time.perf_counter() - t0


def _check(wl, inp, out, tally: Tally) -> BaseException | None:
    """Check and tally one operation; returns its error, if any."""
    from podlab.errors import PodlabError
    from workloads import CheckFailed

    error = out if isinstance(out, PodlabError) else None
    if error is None:
        try:
            wl.check(inp, out)
        except CheckFailed as exc:
            error = exc
    tally.add(error)
    return error


def _fingerprint(wl, out):
    return repr(out) if isinstance(out, Exception) else wl.fingerprint(out)


def _final_check(wl, done, tally: Tally) -> None:
    from workloads import CheckFailed

    try:
        wl.final_check(done)
    except CheckFailed as exc:
        tally.add(exc)


def timed_run(wl, seconds: float, import_s: float, tally: Tally) -> dict:
    setup = []
    for _ in range(wl.repeats):
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    per_unit, units, busy = [], 0, 0.0
    done = []
    t_end = time.perf_counter() + seconds
    while True:
        inp = wl.next_input()
        out, elapsed = _run_op(wl, inp)
        error = _check(wl, inp, out, tally)
        n = 1 if isinstance(out, Exception) else wl.units(out)
        per_unit.append(elapsed / n)
        units += n
        busy += elapsed
        if not done and error is None:
            done.append((inp, wl.retain(out)))
        del out
        if time.perf_counter() >= t_end:
            break
    _final_check(wl, done, tally)
    return {
        "ops_per_s": units / busy,
        "op_s_p50": statistics.median(per_unit),
        "setup_s": import_s + statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl, seconds: float, tally: Tally, per_layer) -> dict:
    tr = wl.tracer
    with tracing.instrument(tr), tr.span("bench.setup"):
        wl.setup()
    n_ops = 1 if wl.smoke else max(1, round(seconds / wl.nominal_op_s))
    inputs = [wl.next_input() for _ in range(n_ops)]
    done, prints, traced_s = [], [], 0.0
    for j, inp in enumerate(inputs):
        tr.op = j
        with tracing.instrument(tr), tr.span("bench.op"):
            out, elapsed = _run_op(wl, inp)
        traced_s += elapsed
        prints.append(_fingerprint(wl, out))
        error = _check(wl, inp, out, tally)
        done.append((inp, None if error else wl.retain(out)))
        del out
    tr.op = None
    wl.tracer = None
    _final_check(wl, done, tally)
    # the same operations again without spans: the overhead, and proof
    # that tracing changes no number
    plain_s = 0.0
    for inp, traced_print in zip(inputs, prints):
        out, elapsed = _run_op(wl, inp)
        plain_s += elapsed
        replay_print = _fingerprint(wl, out)
        _check(wl, inp, out, Tally())
        if replay_print != traced_print:
            from workloads import CheckFailed

            tally.add(CheckFailed("traced and untraced runs computed different outputs"))
        del out
    failed_check = tally.by_class["CheckFailed"]
    found = {
        **tr.summary(),
        **wl.layer_metrics(done),
        "bench.ops": n_ops,
        "bench.failed_check": failed_check,
        "bench.failed_podlab": tally.failed - failed_check,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
    }
    return {name: float(found.get(name, 0.0)) for name, _, _ in per_layer}


def run_one(name: str, args, root: Path, import_s: float, prov: dict) -> dict:
    import workloads

    workdir = root / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        tr = tracing.Tracer() if args.trace else None
        wl = workloads.WORKLOADS[name](args.seed, args.smoke, workdir, tracer=tr)
        if args.trace:
            per_layer = workloads.PER_LAYER
            metrics = traced_run(wl, args.seconds, tally, per_layer)
            units = {n: u for n, u, _ in per_layer}
        else:
            metrics = timed_run(wl, args.seconds, import_s, tally)
            units = {n: u for n, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps({**prov, "workload": name}))
    for key, value in metrics.items():
        alias = END_TO_END[key][1].get(name, key) if key in END_TO_END else key
        print(f"  {alias:40s} {value:14.6g} {units[key]}")
    frac = tally.failed / max(tally.attempted, 1)
    print(f"  {'fail_frac':40s} {frac:14.6g} ({tally.failed} of {tally.attempted})")
    print(f"  failures by class: {json.dumps(dict(sorted(tally.by_class.items())))}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "podlab" / "__init__.py").is_file():
        print(f"error: no podlab sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed: imports are part of set-up)
    import scipy.linalg  # noqa: F401
    import scipy.signal  # noqa: F401
    import scipy.stats  # noqa: F401

    import podlab
    import workloads  # noqa: F401  (imports every podlab module)

    import_s = time.perf_counter() - t0
    if Path(podlab.__file__).resolve().parent != (src / "podlab").resolve():
        print(f"error: podlab imported from {podlab.__file__}, not {src}", file=sys.stderr)
        return 2
    import provenance

    prov = provenance.collect(root, args.seed)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args, root, import_s, prov) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} " + json.dumps(res))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
