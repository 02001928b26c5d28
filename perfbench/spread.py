"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads gen-static,...]
                                [--record perfbench/baseline.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at
a time, and prints, for every end-to-end metric, the median over the
seeds and the interquartile range as a share of the median next to the
metric's bound.  A spread above a third of its bound (``setup_s``
excepted) is flagged and makes the exit status 1.  ``--record`` writes
the medians, spreads and every run's values with their provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measures import spread  # noqa: E402
from perfbench.run import provenance  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _measure(bench, workload: str, seeds, seconds: int):
    runs = []
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                               f"{proc.stdout}\n{proc.stderr}")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({name: m["value"] for name, m in metrics.items()})
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
    return runs


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)

    status = 0
    record = {"provenance": provenance(), "seeds": args.seeds,
              "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = _measure(bench, workload, args.seeds, args.seconds)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            summary[name] = {"median": statistics.median(values),
                             "spread": s, "bound": metric["bound"]}
            flag = ""
            if name != "setup_s" and s > metric["bound"] / 3:
                flag = "  <-- above a third of the bound"
                status = 1
            print(f"{workload:13s} {name:22s} median "
                  f"{statistics.median(values):<11.5g} spread {s:.3f} "
                  f"bound {metric['bound']}{flag}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
