"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus-prove --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it once untraced and once traced, and reports
the per-layer metrics.  Both print their findings as text, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (names and units from ``BENCHMARK.json``).  The exit code is
0 only when no operation failed.  ``perfbench/README.md`` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import common
import probe

#: End-to-end latency metrics, left out of a result with failed
#: operations: latencies of, say, an overloaded fleet are not results.
LATENCIES = ("settle_fresh_s", "settle_early_s")


def _probe():
    """(one process alone, WORKERS processes at once) probe seconds."""
    return probe.probe(), probe.probe(common.WORKERS)


def main(argv) -> int:
    with (common.HERE / "workloads.json").open() as handle:
        workloads = json.load(handle)["workloads"]
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {common.SRC / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    seed = args.seed if args.seed is not None \
        else workloads[args.workload]["default_seed"]
    with (common.ROOT / "BENCHMARK.json").open() as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    common.WORK.mkdir(exist_ok=True)

    def out(line: str) -> None:
        print(line, flush=True)

    out(f"perfbench {args.workload} seed={seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    before = _probe()
    if args.workload == "service-mixed":
        import service as workload
    else:
        import cli as workload
    try:
        attempted, failed, values = workload.run(
            args.workload, seed, args.seconds, bool(args.trace), out)
    except Exception:
        # A crashed or unreachable program is a failed run, not a result.
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete",
              file=sys.stderr)
        return 1
    after = _probe()
    out(f"host probe (a note, not a metric): alone {before[0]:.4f} s "
        f"before, {after[0]:.4f} s after; {common.WORKERS} at once "
        f"{before[1]:.4f} s before, {after[1]:.4f} s after")
    out(f"operations: {len(failed)} failed of {attempted} attempted")
    if failed:
        out("latencies left out of the result: operations failed")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted
               if not (failed and m["name"] in LATENCIES)}
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
