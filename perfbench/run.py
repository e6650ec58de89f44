"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rig_offline --seed 1 --seconds 34 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures an untraced phase and then a traced phase of
half the time each, and reports the per-layer metrics plus the
tracing overhead and the reconciliation of layer shares against the
untraced wall time.  Every operation's output is checked bit-exactly;
on a mismatch the result line says ``"correct": false`` and the exit
code is 1.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"


class PeakMemory:
    """Peak resident set of the benchmark process plus its largest pool worker.

    Both figures are the kernel's high-water marks, not samples: this
    process's ``VmHWM``, reset on entry through ``/proc/self/clear_refs``
    so that only the block counts, and ``ru_maxrss`` of the largest
    child reaped so far.  Leave the block only after the pools are shut
    down, so that their workers have been reaped.
    """

    def __enter__(self) -> "PeakMemory":
        try:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass  # keeps the process-lifetime mark instead
        return self

    def __exit__(self, *exc) -> None:
        with open("/proc/self/status") as f:
            own = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_mb = (own + worker) / 1024


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Context:
    """What every workload needs besides its own inputs."""

    def __init__(self, seed: int, src: Path):
        import inputs

        self.seed = seed
        self.cache_dir = CACHE / "recordings"
        self.tag = inputs.source_tag(src)

    def reference(self, name: str, build):
        """Reference outputs, computed once per source tree and cached.

        A reference is the direct ``run_segment_task`` + fusion result of
        the same source tree the run measures, so it is valid for every
        later run of that tree.
        """
        import inputs

        return inputs.cached(CACHE / "references", f"{name}-{self.tag}", build)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {src} (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    # Keep the one-time native kernel build and every cache inside the checkout.
    os.environ["XDG_CACHE_HOME"] = str(CACHE / "xdg")
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(src))

    import metrics
    import workloads
    from repro.native import provider_status

    table = {cls.name: cls for cls in (
        workloads.RigOffline, workloads.GatewayWindows, workloads.StreamRealtime,
    )}
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(table)}",
              file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text())
    workload = table[args.workload](Context(args.seed, src))
    workload.prepare()
    print("context: " + json.dumps({
        "workload": workload.name, "seed": args.seed, "nproc": workloads.nproc(),
        "provider": provider_status(), "quality": "fast", "trace": args.trace,
        "seconds": args.seconds,
    }))

    system, setups = workload.timed_setup()
    if args.trace == 0:
        with PeakMemory() as memory:
            sample = workload.measure(system, args.seconds, None)
            workload.teardown(system)
        workload.check(sample)
        values = metrics.end_to_end(workload, sample, setups, memory)
        names = bench["end_to_end"]
    else:
        import tracing

        untraced = workload.measure(system, args.seconds / 2, None)
        workload.teardown(system)
        workload.check(untraced)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            system = workload.setup()
            sample = workload.measure(system, args.seconds / 2, tracer)
            workload.layer_extra(system, sample)
            workload.teardown(system)
        finally:
            tracing.uninstall()
        workload.check(sample)
        bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["latency_p50_ms"]
        values = metrics.per_layer(tracer, sample, untraced, bound)
        idle = [layer for layer, users in metrics.LAYER_WORKLOADS.items() if workload.name not in users]
        print(f"layers not exercised by {workload.name} (their metrics read 0): {', '.join(idle)}")
        sample.ops += untraced.ops
        sample.failed += untraced.failed
        names = bench["per_layer"]

    for metric in names:
        value, unit, n = values[metric["name"]]
        print(f"metric {metric['name']} = {value:.6g} {unit} (n={n})")
    result = {
        "correct": sample.failed == 0,
        "attempted": sample.ops,
        "failed": sample.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in names
        },
    }
    print(json.dumps(result))
    return 0 if sample.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
