#!/usr/bin/env python3
"""Record the benchmark baseline into ``perfbench/baseline.json``.

For every workload, runs ``run.py`` once per seed untraced (end-to-end
metrics) and on the first ``--traced`` seeds traced (per-layer metrics),
then stores each metric's median, quartiles (``statistics.quantiles``
with ``n=4``), quartile spread as a share of the median, and sample
count, plus the comparability record of the first run.  From the
repository root::

    python3 perfbench/baseline.py --seeds 0-9 --traced 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> List[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr}")
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-s{seed}-trace{trace}.json").read_text()
    )
    return record


def _summary(values: List[float], unit: str) -> Dict[str, object]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "unit": unit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)

    baseline: Dict[str, object] = {"seeds": seeds, "seconds": args.seconds}
    workloads: Dict[str, object] = {}
    for name in WORKLOADS:
        entry: Dict[str, object] = {}
        for trace, chosen in ((0, seeds), (1, seeds[: args.traced])):
            values: Dict[str, List[float]] = {}
            units: Dict[str, str] = {}
            for seed in chosen:
                record = _run(name, seed, args.seconds, trace)
                baseline.setdefault("comparability", record["comparability"])
                for metric, m in record["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                    units[metric] = m["unit"]
                print(f"{name} seed {seed} trace {trace} done", flush=True)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {
                metric: _summary(v, units[metric]) for metric, v in values.items()
            }
        workloads[name] = entry
    baseline["workloads"] = workloads
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
