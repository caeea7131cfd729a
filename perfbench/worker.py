"""One repetition of a workload in a fresh process, so memos start cold.

    python3 perfbench/worker.py --workload characters|verify --seed N
        [--trace] [--jobs J] [--setup-only]
    python3 perfbench/worker.py --prims

Prints one JSON object on stdout.  ``rectcrys`` must be importable (the
runner puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def setup(workload: str, seed: int) -> list:
    """What a client does before its first request: import the package and
    build the inputs."""
    import rectcrys  # noqa: F401

    if workload == "characters":
        return workloads.characters_ops(seed)
    if workload == "verify":
        from rectcrys import verify  # noqa: F401

        return workloads.verify_ops()
    return workloads.cli_requests(seed)


def run_repetition(workload: str, seed: int, trace: bool, jobs: int) -> dict:
    ops = setup(workload, seed)
    setup_s = time.perf_counter() - START
    import rectcrys as rc
    from rectcrys import verify as vmod

    if workload == "characters":
        run_op = lambda op: workloads.run_characters_op(rc, op)  # noqa: E731
    else:
        run_op = lambda op: workloads.run_verify_op(vmod, op, jobs)  # noqa: E731

    tracer = memos = None
    if trace:
        import tracer as tr

        modules = tr.layer_modules()
        memos = tr.find_memos(modules)
        tracer = tr.Tracer()
        tracer.install(modules)

    results, latencies = [], []
    t_all = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            res = run_op(op)
        except Exception as exc:  # a raising operation is a failed operation
            res = exc
        latencies.append(time.perf_counter() - t0)
        results.append(res)
    wall_s = time.perf_counter() - t_all
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "wall_s": wall_s, "latencies_s": latencies, "peak_rss_mb": rss}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.to_json()
        out["memos"] = tr.memo_stats(memos)

    if workload == "characters":
        failures = workloads.check_characters(rc, ops, results)
        out["anchors_s"] = {}
        for op, lat in zip(ops, latencies):
            if "anchor" in op:
                out["anchors_s"][op["anchor"]] = out["anchors_s"].get(op["anchor"], 0.0) + lat
    else:
        failures, out["elements"] = workloads.check_verify(vmod, ops, results)
    out["ops"] = [
        {"kind": op.get("kind") or op.get("suite"), "failure": f}
        for op, f in zip(ops, failures)
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["characters", "verify", "cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prims", action="store_true")
    args = parser.parse_args()
    if args.prims:
        import prims

        out = prims.measure_all()
    elif args.setup_only:
        setup(args.workload, args.seed)
        out = {"setup_s": time.perf_counter() - START}
    else:
        out = run_repetition(args.workload, args.seed, args.trace, args.jobs)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
