"""Helpers shared by the benchmark files (kept importable as ``_common``)."""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"


def bench_record_path(name: str, full_scale: bool) -> pathlib.Path:
    """Where a standalone bench writes its ``BENCH_<name>`` record.

    Full-scale runs write the committed ``BENCH_<name>.json`` at the
    repo root; reduced-scale runs (CI smokes) write the git-ignored
    sibling ``BENCH_<name>.small.json``, so they never overwrite the
    full-scale record.
    """
    suffix = "" if full_scale else ".small"
    return REPO_ROOT / f"BENCH_{name}{suffix}.json"


class ResultSink:
    """Pretty-prints and persists one experiment's output.

    Tables go to stdout *and* ``results/console.txt`` (pytest captures
    stdout of passing tests, so the file is the durable copy).
    """

    def __init__(self):
        RESULTS_DIR.mkdir(exist_ok=True)
        self.console_path = RESULTS_DIR / "console.txt"
        # One sink per bench session (the fixture is session-scoped):
        # start the console log fresh.
        self.console_path.write_text("")

    def save(self, experiment_id: str, payload: Dict) -> pathlib.Path:
        path = RESULTS_DIR / f"{experiment_id}.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        return path

    def print_table(self, title: str, headers: Sequence[str],
                    rows: Sequence[Sequence]) -> None:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
            else len(str(h))
            for i, h in enumerate(headers)
        ]
        line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
        chunk = [f"\n=== {title} ===", line, "-" * len(line)]
        for row in rows:
            chunk.append(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
            )
        text = "\n".join(chunk)
        print(text)
        with open(self.console_path, "a") as fh:
            fh.write(text + "\n")


def reduction(vlora_value: float, baseline_value: float) -> str:
    """'-NN%' latency reduction string as the paper reports it."""
    if baseline_value <= 0:
        return "n/a"
    return f"-{(1.0 - vlora_value / baseline_value) * 100:.0f}%"


def ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)
