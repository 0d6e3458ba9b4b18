"""Benchmark of the `mpp` CLI, end to end and layer by layer.

    python3 bench/run.py --workload vertices|faces|counting|lp \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from the
seed under .bench_build/, measures set-up time in several fresh processes
around the run, and runs the workload in one more fresh process (no threads, MPP_THREADS
unset) for S seconds of whole passes, checking every output.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# fresh-process set-up probes, half before and half after the measured run,
# so that their median spans the run's stretch of machine time
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MPP_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(args[0])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="mpp CLI benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "mpp", "cli.py")):
        print("error: run from the root of an mpp checkout (src/mpp/cli.py not found)",
              file=sys.stderr)
        return 2
    out = os.path.join(".bench_build", "inputs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        generate(args.workload, args.seed, out)
        manifest = os.path.join(out, "manifest.json")
        def probe():
            r = run_child([os.path.join(HERE, "setup_probe.py"), manifest], 60)
            return r["setup_s"] * REFERENCE_S / r["kernel_s"]

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        res = run_child([os.path.join(HERE, "worker.py"), "--manifest", manifest,
                         "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        WORKER_TIMEOUT_S)
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for problem in res["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "query_p50_ms": {"value": res["query_p50_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(f"{args.workload} seed {args.seed}: {res['passes']} untraced passes, "
          f"{res['attempted']} queries, {res['failed']} failed, "
          f"uncalibrated pass time {res['raw_wall_s']:.4f} s", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
