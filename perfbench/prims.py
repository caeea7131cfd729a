"""Cold and warm cost of the primitives everything else is built from.

Each primitive runs on a fixed list of inputs made from a fixed seed, so the
numbers compare across runs and workloads.  Cold: every memo of the package
is cleared before each timed call.  Warm: the call is repeated on an input
it has already seen.  Each figure is the median over inputs, in ns per call.
"""

from __future__ import annotations

import random
import statistics
import time

import tracer as tr
import workloads

SEED = 20240601
INPUTS = 24
COLD_ROUNDS = 3
WARM_BUDGET_NS = 2_000_000


def _elements(rc, rng, rects, count):
    n = sum(eta for eta, _ in rects)
    seq = rc.RectSequence(rects)
    return [
        rc.CrystalElement(
            seq,
            [rc.Tableau(workloads.random_rect_tableau(rng, eta, mu, n), (), n=n) for eta, mu in rects],
        )
        for _ in range(count)
    ]


def _column_insert(rc, rng):
    words = [tuple(rng.randint(1, 6) for _ in range(14)) for _ in range(INPUTS)]
    return rc.column_insert, [(w,) for w in words]


def _reverse_column_insert(rc, rng):
    from rectcrys.tableaux import reverse_column_insert

    args = []
    for _ in range(INPUTS):
        t = rc.column_insert(tuple(rng.randint(1, 6) for _ in range(14)))
        args.append((t, (len(t.rows), len(t.rows[-1]))))
    return reverse_column_insert, args


def _signature(rc, rng):
    els = _elements(rc, rng, ((2, 2), (1, 3), (1, 2)), INPUTS)
    return rc.signature, [(b, rng.randint(1, 3)) for b in els]


def _fast_signature(rc, rng):
    from rectcrys.verify import FastCrystal

    seq = rc.RectSequence(((2, 2), (1, 3), (1, 2)))
    tables = FastCrystal(seq).tables
    args = [
        (seq, tuple(rng.randrange(len(t.tableaux)) for t in tables), rng.randint(1, 3))
        for _ in range(INPUTS)
    ]
    # A fresh view per call, so the cold figure includes building its tables.
    return (lambda seq, el, i: FastCrystal(seq).signature(el, i)), args


def _promote(rc, rng):
    return rc.promote, [(b,) for b in _elements(rc, rng, ((2, 2), (1, 3), (2, 1)), INPUTS)]


def _sigma_swap(rc, rng):
    els = _elements(rc, rng, ((2, 2), (1, 3), (2, 1)), INPUTS)
    return rc.sigma_swap, [(b, rng.randint(1, 2)) for b in els]


def _tableau_energy(rc, rng):
    args = []
    for rects in workloads.KPOLY_MULTISETS[:4]:
        seq = rc.RectSequence(rects)
        for lam in workloads.partitions(seq.ncells, seq.n):
            args += [(lr,) for lr in rc.enumerate_lrt(lam, seq)]
    rng.shuffle(args)
    return rc.tableau_energy, args[:INPUTS]


def _enumerate_lrt(rc, rng):
    args = []
    for rects in workloads.KPOLY_MULTISETS[:4]:
        seq = rc.RectSequence(rects)
        args += [(lam, seq) for lam in workloads.partitions(seq.ncells, seq.n)]
    rng.shuffle(args)
    return rc.enumerate_lrt, args[:INPUTS]


def _demazure_op(rc, rng):
    from rectcrys.demazure import AffineWeight, FormalCharacter

    args = []
    for mu in ((2, 1, 1), (2, 2), (1, 1, 1, 1)):
        n = 4
        word = list(reversed(rc.translation_reduced_word(mu, n)))
        ch = FormalCharacter.exponential(AffineWeight(n, 2, (0,) * (n - 1), 0))
        for i in word:
            args.append((ch, i))
            ch = ch.demazure_op(i)
    rng.shuffle(args)
    return FormalCharacter.demazure_op, args[:INPUTS]


PRIMITIVES = {
    "column_insert": _column_insert,
    "reverse_column_insert": _reverse_column_insert,
    "signature": _signature,
    "fast_signature": _fast_signature,
    "promote": _promote,
    "sigma_swap": _sigma_swap,
    "tableau_energy": _tableau_energy,
    "enumerate_lrt": _enumerate_lrt,
    "demazure_op": _demazure_op,
}


def _time_cold(fn, args, memos) -> float:
    samples = []
    for _ in range(COLD_ROUNDS):
        for a in args:
            tr.clear_memos(memos)
            t0 = time.perf_counter_ns()
            fn(*a)
            samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples)


def _time_warm(fn, args) -> float:
    samples = []
    for a in args:
        t0 = time.perf_counter_ns()
        fn(*a)
        once = max(time.perf_counter_ns() - t0, 1)
        reps = max(1, min(5000, WARM_BUDGET_NS // once))
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            fn(*a)
        samples.append((time.perf_counter_ns() - t0) / reps)
    return statistics.median(samples)


def measure_all() -> dict:
    """{"prim.<name>.cold_ns": ..., "prim.<name>.warm_ns": ...}, with 0 and a
    reason under "unavailable" for a primitive whose entry point is gone."""
    import rectcrys as rc

    memos = tr.find_memos(tr.layer_modules())
    out: dict = {"metrics": {}, "unavailable": {}}
    for name, build in PRIMITIVES.items():
        rng = random.Random(f"{SEED}:{name}")
        try:
            fn, args = build(rc, rng)
            cold = _time_cold(fn, args, memos)
            warm = _time_warm(fn, args)
        except Exception as exc:  # a removed or renamed entry point
            out["unavailable"][name] = f"{type(exc).__name__}: {exc}"
            cold = warm = 0.0
        out["metrics"][f"prim.{name}.cold_ns"] = cold
        out["metrics"][f"prim.{name}.warm_ns"] = warm
    tr.clear_memos(memos)
    return out
