"""The V-LoRA simulator benchmark: one workload per process.

    python3 perfbench/run.py --workload gen-static --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository.  Workloads are
defined in ``perfbench/scenarios.py``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs every shard untraced and traced
and measures the per-layer metrics, writing the kept spans as a Chrome
trace to ``perfbench/out/``.  Readable lines come first, with every
metric, its unit and its sample count, and "absent" where a metric is
undefined on the workload.  The last line is one JSON object with the
metrics ``BENCHMARK.json`` declares for the mode.

Host metrics (``sim_req_per_s``, ``setup_s``, ``peak_rss_mib``) measure
what running the simulator costs.  Timings are scaled by a host-speed
probe to seconds of a reference host (``harness.host_speed``); the
unscaled throughput and the probe's reading are printed beside them.
Every other metric is simulated: exact for a seed.

Exit status: 0 when every correctness gate holds, 1 when one fails
(exactly-once terminals, identical results on repeats and under
tracing, layer self times within the traced run's wall time), 2 on a
usage error or when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    """Where a measurement was made: commit, interpreter, numpy, CPUs."""
    import numpy

    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The tiling-table disk store would read and write outside the
    # checkout, and would hide the table search from set-up time.
    os.environ.pop("REPRO_KERNEL_STORE_DIR", None)

    from perfbench import harness
    from perfbench.scenarios import LAYER_MAP, SCENARIOS
    from perfbench.spans import write_chrome_trace

    sc = SCENARIOS.get(args.workload)
    if sc is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"perfbench {sc.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in provenance().items()))
    print(f"  why: {sc.why}")
    print(f"  stresses: {', '.join(sc.stresses)}")
    print(f"  bypasses: {', '.join(sc.bypasses)}")
    print(f"  {sc.shards} shards x {sc.duration_s:g} simulated s at "
          f"{sc.rate_rps:g} rps (open loop)")

    values, units, samples = {}, {}, {}
    try:
        if args.trace == 0:
            first, executions, setups, rss = harness.run_untraced(
                sc, args.seed, args.seconds)
            values = harness.host_metrics(executions, setups, rss)
            values.update(harness.raw_host_metrics(executions))
            units = dict(harness.HOST_UNITS, raw_sim_req_per_s="1/s",
                         host_speed="ratio")
            samples["sim_req_per_s"] = f"over {len(executions)} executions"
            samples["setup_s"] = f"median of {len(setups)} set-ups"
            wanted = declared["end_to_end"]
        else:
            first, traced = harness.run_traced(sc, args.seed)
            units = harness.layer_units()
            values = harness.layer_metrics(first, traced)
            path = (ROOT / "perfbench" / "out"
                    / f"{sc.name}-seed{args.seed}.trace.json")
            path.parent.mkdir(exist_ok=True)
            count = write_chrome_trace(path, [ex.tracer for ex in traced])
            print(f"  wrote {count} spans to {path.relative_to(ROOT)}")
            for layers, target in LAYER_MAP:
                print(f"  {', '.join(layers)} -> {target}")
            wanted = declared["per_layer"]
        for name, (value, n) in harness.serving(first).items():
            values[name], units[name] = value, harness.SIM_UNITS[name]
            samples[name] = f"n={n}"
    except harness.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1

    submitted = sum(ex.submitted for ex in first)
    failed = sum(len(ex.aborts) for ex in first)
    print(f"  requests: submitted {submitted}, completed "
          f"{submitted - failed}, failed {failed}")
    for name, value in values.items():
        note = samples.get(name, "")
        print(f"  {name:36s} {_fmt(value):>14s} {units[name]:6s} {note}")

    result = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            print(f"perfbench: {metric['name']} is undefined on "
                  f"{sc.name}", file=sys.stderr)
            return 1
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": True, "attempted": submitted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
