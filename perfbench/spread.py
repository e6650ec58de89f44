"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --runs 10 --seconds 20 rig_offline gateway_windows

Runs ``run.py`` once per seed (1..runs) and workload, one after another,
and prints each metric's median, quartile spread as a share of the
median, and that spread against a third of the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED ({proc.returncode})\n{proc.stderr[-2000:]}")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            spread = quartile_spread(series)
            ok = spread < bounds[name] / 3 or name == "setup_s"
            steady &= ok
            print(f"{workload:<18} {name:<16} median {median(series):14.6g}  "
                  f"spread {spread:6.2%}  (bound/3 {bounds[name] / 3:6.2%}) {'ok' if ok else 'WIDE'}"
                  f"  [{' '.join(f'{v:.4g}' for v in series)}]")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
