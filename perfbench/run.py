"""The rectcrys benchmark.

    python3 perfbench/run.py --workload characters|verify|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see BENCHMARK.json for why each exists):

* characters: one closed-loop client sending 275 compute calls: the fixed
  anchors and Demazure characters first, then Kostka polynomials and graded
  characters of seeded rectangle sequences in a seeded order.
* verify: five exhaustive verification suites at fixed bounds, jobs=1.
  The seed is unused.
* cli: two closed-loop clients sending 100 requests, each a fresh
  ``rectcrys`` process, sharing one fresh Kostka polynomial cache directory.

With ``--trace 0`` the fixed set of operations is repeated, each time in a
fresh process so that memos start cold.  The number of repetitions depends
on ``--seconds`` and the workload only (see ``repetitions``), never on how
fast the code under test is.  With ``--trace 1`` the set runs once untraced
and once with every public call into a layer wrapped, then the primitives
are timed; the per-layer metrics come from the traced pass.

End-to-end metrics: setup_s (importing the package and building the inputs
in a fresh process; the best of SETUP_SAMPLES set-ups spread over the run),
wall_s (the best repetition of the fixed set of operations),
latency_p50_ms and latency_p90_ms (over the operations, each timed at its
best repetition; on verify an operation is a whole suite), peak_rss_mb (of
the worker process; on cli of the largest request process) and ok_ratio
(operations that did not fail over operations attempted).

Outputs are checked; the last line of stdout is the JSON result, the line
before it the run's metadata.  Temporary files live under
``.perfbench_run/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = ("characters", "verify", "cli")
CLI_CLIENTS = 2
# Seconds one repetition of each workload's operations took at the commit
# the benchmark was defined on (2-vCPU x86_64 VM, Python 3.11).  A run of
# --seconds makes as many repetitions as fit at these speeds, so every commit
# gets the same number.
NOMINAL_REP_S = {"characters": 8.0, "verify": 8.0, "cli": 8.0}
SETUP_SAMPLES = 25
IMPORT_SAMPLES = 5
HARD_LIMIT_S = 170.0
ENTRY = "import sys; from rectcrys.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark could not run to completion."""


class Runner:
    def __init__(self, root: str, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.workdir = os.path.join(root, ".perfbench_run", str(os.getpid()))
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED="0",
            XDG_CACHE_HOME=os.path.join(self.workdir, "xdg"),
        )
        self.env.pop("RECTCRYS_CACHE_DIR", None)
        sys.path.insert(0, src)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"over the {HARD_LIMIT_S:.0f} s limit")
        return left

    def worker(self, *args: str) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=self.remaining(),
        )
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def repetitions(self, workload: str) -> int:
        return max(1, int(self.seconds // NOMINAL_REP_S[workload]))

    def repeat(self, workload: str, one_repetition, trace: bool) -> tuple[list[dict], list[float]]:
        """The repetitions of a run, and set-up times sampled before, between
        and after them so that they spread over the run.  A traced run makes
        one untraced repetition and no set-up samples."""
        if trace:
            return [one_repetition()], []
        count = self.repetitions(workload)
        per_gap = -(-SETUP_SAMPLES // (count + 1))
        args = ("--workload", workload, "--seed", str(self.seed), "--setup-only")
        reps: list[dict] = []
        setup = [self.worker(*args)["setup_s"] for _ in range(per_gap)]
        for _ in range(count):
            reps.append(one_repetition())
            setup += [self.worker(*args)["setup_s"] for _ in range(per_gap)]
        return reps, setup

    def import_ms(self) -> float:
        samples = []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import rectcrys.cli"],
                capture_output=True,
                text=True,
                env=self.env,
                timeout=self.remaining(),
            )
            samples.append(parse_importtime(proc.stderr))
        return statistics.median(samples)

    # -- characters and verify ----------------------------------------------

    def in_process(self, workload: str, trace: bool) -> tuple[dict, dict, dict]:
        base = ["--workload", workload, "--seed", str(self.seed)]
        reps, setup = self.repeat(workload, lambda: self.worker(*base), trace)
        meta = rep_meta(reps, setup)
        if not trace:
            return end_to_end(setup, reps), meta, outcome_of(reps)

        traced = self.worker(*base, "--trace")
        layer = layer_metrics(traced["trace"], traced["memos"])
        layer["trace.overhead_ratio"] = traced["wall_s"] / reps[0]["wall_s"]
        layer["memo.entries"] = float(sum(v[2] for v in traced["memos"].values()))
        obs = traced["trace"]["observed"]
        if workload == "verify":
            jobs2 = self.worker(*base, "--jobs", "2")
            layer["verify.jobs2_speedup"] = reps[0]["wall_s"] / jobs2["wall_s"]
            layer["verify.elements_per_s"] = reps[0]["elements"] / reps[0]["wall_s"]
            outcome = outcome_of(reps + [traced, jobs2])
        else:
            anchors = reps[0]["anchors_s"]
            layer["kpoly.anchor_gc_1x2x4_s"] = anchors["gc_1x2x4"]
            layer["kpoly.anchor_main_n4_l2_s"] = anchors["main_n4_l2"]
            outcome = outcome_of(reps + [traced])
        layer.update(self.common_layer_metrics(obs, meta))
        meta["traced"] = {"observed": obs}
        return layer, meta, outcome

    def common_layer_metrics(self, observed: dict, meta: dict) -> dict:
        prims = self.worker("--prims")
        if prims["unavailable"]:
            meta["unavailable_primitives"] = prims["unavailable"]
        out = dict(prims["metrics"])
        out["cli.import_ms"] = self.import_ms()
        tested = observed.get("lrt_tested", 0)
        out["rsk.lr_yield"] = observed.get("lrt_produced", 0) / tested if tested else 0.0
        ops = observed.get("demazure_ops", 0)
        out["demazure.terms_per_op"] = observed.get("demazure_terms", 0) / ops if ops else 0.0
        for name in ("hits", "misses", "writes", "bytes_written"):
            out[f"cache.{name}"] = float(observed.get(f"cache_{name}", 0))
        return out

    # -- cli ------------------------------------------------------------------

    def cli_pass(self, reqs: list[dict], tag: str, trace: bool) -> dict:
        """All requests once, from CLI_CLIENTS closed-loop clients."""
        rundir = os.path.join(self.workdir, tag)
        spans = os.path.join(rundir, "spans")
        cache_dir = os.path.join(rundir, "cache")
        os.makedirs(spans)
        env = dict(self.env, RECTCRYS_CACHE_DIR=cache_dir, HOME=os.path.join(rundir, "home"))
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py")]
        else:
            cmd = [sys.executable, "-c", ENTRY]
        todo: queue.Queue = queue.Queue()
        for k in range(len(reqs)):
            todo.put(k)
        results: list = [None] * len(reqs)
        errors: list = []

        def client():
            while True:
                try:
                    k = todo.get_nowait()
                except queue.Empty:
                    return
                req_env = env
                if trace:
                    req_env = dict(env, PERFBENCH_SPAN_FILE=os.path.join(spans, f"{k}.json"))
                t0 = time.perf_counter()
                try:
                    proc = subprocess.run(
                        cmd + reqs[k]["args"],
                        input=reqs[k]["stdin"],
                        capture_output=True,
                        text=True,
                        env=req_env,
                        timeout=self.remaining(),
                    )
                except (subprocess.TimeoutExpired, BenchError) as exc:
                    errors.append(exc)
                    return
                results[k] = (time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr)

        threads = [threading.Thread(target=client) for _ in range(CLI_CLIENTS)]
        t_all = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t_all
        if errors:
            raise BenchError(f"cli request did not finish: {errors[0]}")
        # The largest child process so far.
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

        import rectcrys as rc
        from rectcrys.cache import PolynomialCache, cache_key

        ops = []
        written = set()
        for req, (lat, code, out, err) in zip(reqs, results):
            failure, wrong = workloads.check_cli_response(rc, req, code, out, err)
            ops.append({"kind": req["kind"], "failure": failure, "wrong": wrong})
            if "key" in req and failure is None:
                lam, rects = req["key"]
                seq = rc.RectSequence(workloads.parse_rects(rects))
                written.add(cache_key(seq.n, lam, seq.rects))
        cache = PolynomialCache(directory=cache_dir)
        present = sum(1 for key in written if cache.get(key) is not None)
        rep = {
            "wall_s": wall_s,
            "latencies_s": [r[0] for r in results],
            "peak_rss_mb": rss,
            "ops": ops,
            "lost_entries": len(written) - present,
            "keys_written": len(written),
        }
        if trace:
            rep["spans"] = [
                json.load(open(os.path.join(spans, name))) for name in sorted(os.listdir(spans))
            ]
        shutil.rmtree(rundir)
        return rep

    def cli(self, trace: bool) -> tuple[dict, dict, dict]:
        reqs = workloads.cli_requests(self.seed)
        passes = itertools.count()
        reps, setup = self.repeat(
            "cli", lambda: self.cli_pass(reqs, f"pass{next(passes)}", trace=False), trace
        )
        # Later passes' readings also cover the set-up samples' workers.
        for rep in reps[1:]:
            rep["peak_rss_mb"] = reps[0]["peak_rss_mb"]
        meta = rep_meta(reps, setup)
        meta["cache"] = [{"keys_written": r["keys_written"], "lost_entries": r["lost_entries"]} for r in reps]
        if not trace:
            return end_to_end(setup, reps), meta, outcome_of(reps)

        traced = self.cli_pass(reqs, "traced", trace=True)
        totals = {"layers": {}, "observed": {}}
        memos: dict = {}
        entries = 0
        for span in traced["spans"]:
            for layer, v in span["layers"].items():
                acc = totals["layers"].setdefault(layer, {"calls": 0, "self_s": 0.0})
                acc["calls"] += v["calls"]
                acc["self_s"] += v["self_s"]
            for key, v in span["observed"].items():
                totals["observed"][key] = totals["observed"].get(key, 0) + v
            for layer, (hits, misses, size) in span["memos"].items():
                acc = memos.setdefault(layer, [0, 0, 0])
                acc[0] += hits
                acc[1] += misses
            entries = max(entries, sum(v[2] for v in span["memos"].values()))
        layer = layer_metrics(totals, memos)
        layer["trace.overhead_ratio"] = traced["wall_s"] / reps[0]["wall_s"]
        layer["memo.entries"] = float(entries)
        layer["cache.lost_entries"] = float(traced["lost_entries"])
        layer.update(self.common_layer_metrics(totals["observed"], meta))
        meta["traced"] = {"observed": totals["observed"], "requests": len(traced["spans"])}
        return layer, meta, outcome_of(reps + [traced])


def parse_importtime(stderr: str) -> float:
    """Milliseconds spent importing the package: the cumulative times of the
    outermost ``rectcrys`` entries of ``-X importtime``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, int(cumulative), name.strip()))
    if not entries:
        raise BenchError("no -X importtime output")
    top = min(d for d, _, _ in entries)
    return sum(c for d, c, n in entries if d == top and n.startswith("rectcrys")) / 1000.0


def percentile(data: list[float], q: int) -> float:
    if len(data) == 1:
        return data[0]
    if q == 50:
        return statistics.median(data)
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[float], reps: list[dict]) -> dict:
    """Every repetition runs the same operations, from cold memos in fresh
    processes.  The machine's speed drifts by tens of percent over tens of
    seconds, and a best time is steadier from run to run than a median, so
    setup_s is the best set-up, wall_s the best repetition's wall time, and
    an operation's latency its best time over the repetitions; the
    percentiles are taken over the operations."""
    ops = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if op["failure"])
    best = [min(lat) for lat in zip(*(r["latencies_s"] for r in reps))]
    return {
        "setup_s": min(setup),
        "wall_s": min(r["wall_s"] for r in reps),
        "latency_p50_ms": 1e3 * percentile(best, 50),
        "latency_p90_ms": 1e3 * percentile(best, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_ratio": (ops - failed) / ops,
    }


def rep_meta(reps: list[dict], setup: list[float]) -> dict:
    kinds: dict[str, int] = {}
    for op in reps[0]["ops"]:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    failures = [f"{op['kind']}: {op['failure']}" for r in reps for op in r["ops"] if op["failure"]]
    return {
        "repetitions": len(reps),
        "ops_per_repetition": kinds,
        "latency_samples": {"per_repetition": len(reps[0]["latencies_s"]), "repetitions": len(reps)},
        "wall_s_per_repetition": [r["wall_s"] for r in reps],
        "setup_s_samples": setup,
        "failures": sorted(set(failures)),
    }


def outcome_of(reps: list[dict]) -> dict:
    ops = [op for r in reps for op in r["ops"]]
    return {
        "correct": not any(op["failure"] and op.get("wrong", True) for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failure"]),
    }


def layer_metrics(trace: dict, memos: dict) -> dict:
    layers = trace["layers"]
    out = {}
    for layer in LAYERS:
        v = layers.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = float(v["calls"])
        out[f"{layer}.self_s"] = v["self_s"]
        hits, misses, _ = memos.get(layer, (0, 0, 0))
        out[f"{layer}.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["verify.elements_per_s"] = 0.0
    out["verify.jobs2_speedup"] = 0.0
    out["kpoly.anchor_gc_1x2x4_s"] = 0.0
    out["kpoly.anchor_main_n4_l2_s"] = 0.0
    out["cache.lost_entries"] = 0.0
    return out


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit_of(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rectcrys", "__init__.py")):
        print(f"no rectcrys sources under {src}: run from a checkout root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    runner = Runner(root, args.seed, args.seconds)
    try:
        if args.workload == "cli":
            metrics, meta, outcome = runner.cli(bool(args.trace))
        else:
            metrics, meta, outcome = runner.in_process(args.workload, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runner.workdir))
        except OSError:  # another run is still using it
            pass

    meta.update(
        workload=args.workload,
        seed=args.seed,
        seed_used=args.workload != "verify",
        seconds=args.seconds,
        trace=args.trace,
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        machine=platform.machine(),
        commit=commit_of(root),
        src_sha256=source_digest(src),
    )
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({**outcome, "metrics": result_metrics}))
    return 0


def declared_units(section: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
