"""One workload in one fresh process: set up, then run passes over the
queries as a closed loop, one `mpp.cli.main` call after another.

    python3 bench/worker.py --manifest DIR/manifest.json --seconds S --trace 0|1

Prints one JSON object on its last line of standard output.  Run from the
root of a checkout; `mpp` must be importable from its `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import checks
from calibration import REFERENCE_S, kernel_seconds
from setup_probe import setup
from tracing import Tracer


def run_query(cli, argv) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, stderr) of one query."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising query is a failed query
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


class Checker:
    """Checks each pass; an output byte-identical to one already checked for
    the same query reuses that verdict."""

    def __init__(self, queries):
        self.queries = queries
        self.seen: dict[tuple[int, bytes], tuple[list[str], list]] = {}

    def failures(self, results) -> tuple[int, bool, list[str]]:
        """(failed queries, no query failed, first problems) for one pass."""
        bad: dict[int, list[str]] = {}
        facts = []
        for i, (argv, (_, code, text, err)) in enumerate(zip(self.queries, results)):
            if code != 0:
                bad[i] = [f"exit code {code}: {err.strip()[-300:]}"]
                continue
            key = (i, hashlib.sha256(text.encode()).digest())
            if key not in self.seen:
                try:
                    self.seen[key] = checks.check_query(argv, json.loads(text))
                except json.JSONDecodeError as exc:
                    self.seen[key] = ([f"output is not JSON: {exc}"], [])
            problems, fs = self.seen[key]
            if problems:
                bad[i] = problems
            facts.append((i, fs))
        for i, problems in checks.check_pass(facts).items():
            bad.setdefault(i, []).extend(problems)
        correct = not bad
        report = [f"{' '.join(self.queries[i])}: {p[0]}" for i, p in sorted(bad.items())]
        return len(bad), correct, report


def one_pass(cli, queries):
    """Runs every query once.  Returns the query results and, per query, the
    mean of the calibration kernel's times just before and just after it."""
    gc.collect()
    results, kernel = [], []
    before = kernel_seconds()
    for argv in queries:
        results.append(run_query(cli, argv))
        after = kernel_seconds()
        kernel.append((before + after) / 2)
        before = after
    return results, kernel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    _, cli = setup(manifest)
    seconds = args.seconds

    queries = manifest["queries"]
    checker = Checker(queries)
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    attempted = failed = 0
    correct = True
    report: list[str] = []
    start = time.perf_counter()
    k = 0
    # whole passes until the time is up; with tracing, passes alternate
    # untraced and traced, and at least one of each runs
    while time.perf_counter() - start < seconds or (tracer and k < 2):
        trace_this = tracer is not None and k % 2 == 1
        if trace_this:
            tracer.reset()
            tracer.install()
        try:
            results, kernel = one_pass(cli, queries)
        finally:
            if trace_this:
                tracer.uninstall()
        times = [r[0] for r in results]
        scaled = [dt * REFERENCE_S / kt for dt, kt in zip(times, kernel)]
        if trace_this:
            traced.append((times, scaled, tracer.top_s,
                           {layer: tuple(s) for layer, s in tracer.stats.items()}))
        else:
            untraced.append((times, scaled))
        n_bad, ok, problems = checker.failures(results)
        attempted += len(queries)
        failed += n_bad
        correct = correct and ok
        report = report or problems
        k += 1

    per_query = query_medians([scaled for _, scaled in untraced])
    result = {"attempted": attempted, "failed": failed, "correct": correct,
              "passes": len(untraced), "wall_s": sum(per_query),
              "query_p50_ms": 1000 * statistics.median(per_query),
              "raw_wall_s": sum(query_medians([times for times, _ in untraced])),
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "problems": report[:10]}
    if tracer:
        result["layers"] = layer_metrics(traced, result["wall_s"])
    print(json.dumps(result))


def query_medians(passes):
    """Each query's median over the passes."""
    return [statistics.median(ts) for ts in zip(*passes)]


def layer_metrics(traced, untraced_wall):
    """Per-layer figures: medians over the traced passes.  Span times are
    raw seconds; the overhead compares calibrated pass times, like wall_s."""
    med = lambda xs: statistics.median(xs)
    out = {}
    for layer in traced[0][-1]:
        calls = med([s[layer][0] for *_, s in traced])
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (med([s[layer][1] for *_, s in traced]), "s")
        if layer == "lp.solve":
            out["lp.solve.optimal_ratio"] = (
                med([s[layer][2] / max(1, s[layer][0]) for *_, s in traced]), "ratio")
    out["trace.unattributed_s"] = (med([sum(ts) - top for ts, _, top, _ in traced]), "s")
    out["trace.overhead_s"] = (
        sum(query_medians([scaled for _, scaled, _, _ in traced])) - untraced_wall, "s")
    return out


if __name__ == "__main__":
    main()
