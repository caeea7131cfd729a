"""Seeded inputs and output checks for the three workloads.

Nothing here imports ``rectcrys`` at module level: the request generator for
``cli`` and the checks' own formulas run without it, and the workers import
it themselves so that the import is timed as part of set-up.

The seed picks inputs whose cost depends only on what is kept fixed.  A
seeded rectangle sequence is a seeded ordering of a fixed multiset of
rectangles: |B^R|, the partitions of |R| and (by the symmetry of Kostka
numbers) the number of LR candidates do not depend on the order, so every
seed asks for the same amount of work while the inputs differ.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import prod

# ---------------------------------------------------------------------------
# Combinatorics used by the checks, independent of the package.


def partitions(size: int, max_parts: int, max_part: int | None = None):
    """Partitions of ``size`` with at most ``max_parts`` parts, largest first."""
    if size == 0:
        yield ()
        return
    if max_parts == 0:
        return
    top = size if max_part is None else min(size, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(size - first, max_parts - 1, first):
            yield (first,) + rest


def dim_gl(shape, n: int) -> int:
    """Dimension of the irreducible gl_n module of highest weight ``shape``,
    by the hook-content formula."""
    shape = [p for p in shape if p]
    if len(shape) > n:
        return 0
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])] if shape else []
    out = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            out *= Fraction(n + j - i, hook)
    return int(out)


def crystal_size(rects, n: int) -> int:
    """|B^R| = product over the rectangles of dim_n(mu^eta)."""
    return prod(dim_gl((mu,) * eta, n) for eta, mu in rects)


def dimension_of(terms, n: int) -> int:
    """sum over lambda of K_lambda(1) * dim_n(lambda), for (lambda, poly) terms."""
    return sum(sum(poly.coeffs.values()) * dim_gl(lam, n) for lam, poly in terms)


def rects_arg(rects) -> str:
    return ",".join(f"{eta}x{mu}" for eta, mu in rects)


def parse_rects(text: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in r.split("x")) for r in text.split(",")]


# ---------------------------------------------------------------------------
# characters: one closed-loop client, about 250 compute calls.

# n = 5, 8 to 10 cells: k_polynomial for every partition of |R|.
KPOLY_MULTISETS = (
    ((2, 2), (1, 2), (2, 1)),
    ((1, 3), (2, 2), (2, 1)),
    ((1, 2), (1, 2), (1, 2), (2, 2)),
    ((1, 2), (1, 2), (1, 2), (1, 1), (1, 1)),
    ((3, 2), (2, 2)),
    ((1, 3), (1, 3), (1, 2), (2, 1)),
    ((2, 3), (1, 2), (2, 1)),
    ((1, 4), (1, 2), (1, 2), (2, 1)),
    ((3, 1), (1, 3), (1, 3)),
    ((2, 2), (2, 2), (1, 1)),
)
# n = 3 or 4, |B^R| from 600 to 4,000: graded_character(R).
CHARACTER_MULTISETS = (
    ((1, 3), (1, 3), (1, 2)),
    ((2, 1), (1, 2), (1, 2)),
    ((1, 4), (1, 3), (1, 2)),
    ((2, 3), (2, 2)),
    ((2, 1), (1, 3), (1, 2)),
    ((2, 2), (1, 2), (1, 2)),
    ((1, 2), (1, 2), (1, 2), (1, 1)),
)
ANCHOR_CHARACTER = ((1, 2), (1, 2), (1, 2), (1, 2))
ANCHOR_LEVEL, ANCHOR_N = 2, 4
DEMAZURE_LEVEL, DEMAZURE_N = 2, 5


def _seeded_order(rng: random.Random, multiset) -> tuple:
    order = list(multiset)
    rng.shuffle(order)
    return tuple(order)


def characters_ops(seed: int) -> list[dict]:
    """The operation stream.  The fixed families come first, in a fixed order
    and with cold memos: the anchors, then the Demazure characters at n = 5.
    A seeded shuffle of the seeded queries follows; the Kostka queries for one
    R stay together, lambda in a fixed order, as a user asking for every
    lambda of R would send them."""
    rng = random.Random(seed)
    ops = [{"kind": "character", "rects": ANCHOR_CHARACTER, "anchor": "gc_1x2x4"}]
    ops += [
        {"kind": "main", "mu": mu, "level": ANCHOR_LEVEL, "anchor": "main_n4_l2"}
        for mu in partitions(ANCHOR_N, ANCHOR_N)
    ]
    ops += [
        {"kind": "demazure", "mu": mu, "level": DEMAZURE_LEVEL, "n": DEMAZURE_N}
        for mu in partitions(DEMAZURE_N, DEMAZURE_N)
    ]
    units = []
    for ms in KPOLY_MULTISETS:
        rects = _seeded_order(rng, ms)
        n = sum(eta for eta, _ in rects)
        cells = sum(eta * mu for eta, mu in rects)
        units.append([{"kind": "kpoly", "rects": rects, "lam": lam} for lam in partitions(cells, n)])
    for ms in CHARACTER_MULTISETS:
        units.append([{"kind": "character", "rects": _seeded_order(rng, ms)}])
    rng.shuffle(units)
    return ops + [op for unit in units for op in unit]


def run_characters_op(rc, op: dict):
    """One compute call; returns what the check needs."""
    kind = op["kind"]
    if kind == "kpoly":
        return rc.k_polynomial(op["lam"], rc.RectSequence(op["rects"]))
    if kind == "character":
        return rc.graded_character(rc.RectSequence(op["rects"]))
    if kind == "demazure":
        return rc.demazure_character(op["level"], op["mu"], op["n"])
    dc = rc.demazure_character(op["level"], op["mu"], sum(op["mu"]))
    cc = rc.crystal_side_character(op["level"], op["mu"])
    return dc, cc


def check_characters(rc, ops: list[dict], results: list) -> list[str | None]:
    """A failure message per operation, or None when its output checks out.

    * Kostka polynomials of one R: sum K(1) dim_n(lambda) = |B^R|, and no
      negative coefficient or exponent.
    * Graded characters: the same identity, and every term equals
      k_polynomial(lambda, R).
    * Demazure characters: the identity for the rectangles (mu_j x level).
    * Main theorem: both sides equal, and the identity holds.
    """
    out: list[str | None] = [None] * len(ops)
    groups: dict[tuple, list[int]] = {}
    for k, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, BaseException):
            out[k] = f"raised {type(res).__name__}: {res}"
            continue
        kind = op["kind"]
        if kind == "kpoly":
            if any(c < 0 or e < 0 for e, c in res.coeffs.items()):
                out[k] = f"negative term in {res.coeffs}"
            groups.setdefault(op["rects"], []).append(k)
        elif kind == "character":
            rects = op["rects"]
            n = sum(eta for eta, _ in rects)
            seq = rc.RectSequence(rects)
            if dimension_of(res.terms, n) != crystal_size(rects, n):
                out[k] = "dimension identity fails"
            elif any(rc.k_polynomial(lam, seq) != poly for lam, poly in res.terms):
                out[k] = "a term differs from k_polynomial"
        elif kind == "demazure":
            rects = [(m, op["level"]) for m in op["mu"]]
            if dimension_of(res.terms, op["n"]) != crystal_size(rects, op["n"]):
                out[k] = "dimension identity fails"
        else:
            dc, cc = res
            n = sum(op["mu"])
            rects = [(m, op["level"]) for m in op["mu"]]
            if dc != cc:
                out[k] = "Demazure side differs from crystal side"
            elif dimension_of(dc.terms, n) != crystal_size(rects, n):
                out[k] = "dimension identity fails"
    for rects, members in groups.items():
        if any(isinstance(results[k], BaseException) for k in members):
            continue
        n = sum(eta for eta, _ in rects)
        terms = [(ops[k]["lam"], results[k]) for k in members]
        if dimension_of(terms, n) != crystal_size(rects, n):
            for k in members:
                out[k] = out[k] or f"dimension identity fails for {rects}"
    return out


# ---------------------------------------------------------------------------
# verify: exhaustive suites at fixed bounds, jobs=1.  The seed is unused.

VERIFY_SUITES = (
    ("crystal-axioms", 4, 6),
    ("cocyclage", 4, 6),
    ("rsk", 3, 7),
    ("rmatrix", 3, 7),
    ("energy", 3, 7),
)


def verify_families(rect_sequences, suite: str, n: int, cells: int) -> list:
    """The rectangle sequences a suite walks at its bounds, over all of its
    sub-checks; one instance each."""
    every = list(rect_sequences(n, cells))
    pairs = list(rect_sequences(n, cells, num_rects=2))
    triples = list(rect_sequences(n, cells, num_rects=3))
    if suite == "rmatrix":
        return pairs + triples
    if suite == "energy":
        return pairs + every + list(rect_sequences(min(n, 3), cells)) + triples
    return every


def verify_ops() -> list[dict]:
    return [{"suite": s, "n": n, "cells": c} for s, n, c in VERIFY_SUITES]


def run_verify_op(vmod, op: dict, jobs: int = 1):
    fn = getattr(vmod, "verify_" + op["suite"].replace("-", "_"))
    return fn(op["n"], op["cells"], jobs=jobs)


def check_verify(vmod, ops: list[dict], results: list) -> tuple[list, int]:
    """Failure messages per suite, and the elements the suites walk."""
    out: list[str | None] = []
    elements = 0
    for op, rep in zip(ops, results):
        family = verify_families(vmod.rect_sequences, op["suite"], op["n"], op["cells"])
        elements += sum(crystal_size(seq.rects, seq.n) for seq in family)
        if isinstance(rep, BaseException):
            out.append(f"raised {type(rep).__name__}: {rep}")
        elif not rep.ok:
            out.append(f"{len(rep.failures)} failures")
        elif rep.instances != len(family):
            out.append(f"{rep.instances} instances, expected {len(family)}")
        else:
            out.append(None)
    return out, elements


# ---------------------------------------------------------------------------
# cli: seeded requests, each one fresh ``rectcrys`` process.

SINGLE_OPS = (
    ("affine", "promote"),
    ("affine", "e0"),
    ("rsk", "pair"),
    ("energy", "total"),
    ("rmatrix", "swap"),
)
SINGLES_PER_OP = 12
KPOLY_REQUESTS = 28
KPOLY_KEYS = 8
# Each kind twice: 12 of 100 requests.  Every one must exit with code 2, a
# message and no traceback.
MALFORMED_KINDS = (
    "bad-json",
    "json-array",
    "missing-flag",
    "bad-partition",
    "letter-beyond-n",
    "swap-pos-out-of-range",
)
MALFORMED_PER_KIND = 2


def random_rect_tableau(rng: random.Random, eta: int, mu: int, n: int) -> list[list[int]]:
    """A column-strict eta x mu tableau over 1..n: a random walk from the
    smallest filling that changes one entry by one when the result stays
    column-strict."""
    rows = [[r + 1] * mu for r in range(eta)]
    for _ in range(40 * eta * mu):
        r, c = rng.randrange(eta), rng.randrange(mu)
        v = rows[r][c] + rng.choice((-1, 1))
        if not 1 <= v <= n:
            continue
        if c > 0 and rows[r][c - 1] > v or c + 1 < mu and rows[r][c + 1] < v:
            continue
        if r > 0 and rows[r - 1][c] >= v or r + 1 < eta and rows[r + 1][c] <= v:
            continue
        rows[r][c] = v
    return rows


def random_rects(rng: random.Random, n: int, min_m: int = 1) -> list[tuple[int, int]]:
    """A random sequence of rectangles with row counts summing to n."""
    while True:
        etas, left = [], n
        while left:
            eta = rng.randint(1, min(3, left))
            etas.append(eta)
            left -= eta
        if len(etas) >= min_m:
            return [(eta, rng.randint(1, 3)) for eta in etas]


def random_element(rng: random.Random, min_m: int = 1) -> dict:
    n = rng.choice((6, 7))
    rects = random_rects(rng, n, min_m)
    return {
        "rects": [list(r) for r in rects],
        "factors": [{"rows": random_rect_tableau(rng, eta, mu, n)} for eta, mu in rects],
    }


def _malformed(rng: random.Random, kind: str) -> dict:
    el = random_element(rng, min_m=2)
    m = len(el["rects"])
    if kind == "bad-json":
        return {"args": ["affine", "promote"], "stdin": json.dumps(el)[:-1]}
    if kind == "json-array":
        return {"args": ["affine", "promote"], "stdin": json.dumps([el])}
    if kind == "missing-flag":
        return {"args": ["kpoly", "compute", "--shape", "2,1", "--no-cache"], "stdin": ""}
    if kind == "bad-partition":
        return {"args": ["kpoly", "compute", "--shape", "2,x", "--rects", "1x2,2x1"], "stdin": ""}
    if kind == "letter-beyond-n":
        n = sum(eta for eta, _ in el["rects"])
        el["factors"][0]["rows"][-1][-1] = n + 1
        return {"args": ["energy", "total"], "stdin": json.dumps(el)}
    pos = rng.choice((0, -1, m, m + 3))
    return {"args": ["rmatrix", "swap", "--pos", str(pos)], "stdin": json.dumps(el)}


def cli_requests(seed: int) -> list[dict]:
    """100 requests: 60 single-element, 28 kpoly compute over 8 keys, 12
    malformed, shuffled."""
    rng = random.Random(seed)
    reqs: list[dict] = []
    for group, op in SINGLE_OPS:
        for _ in range(SINGLES_PER_OP):
            el = random_element(rng, min_m=2 if op == "swap" else 1)
            args = [group, op]
            if op == "swap":
                args += ["--pos", str(rng.randint(1, len(el["rects"]) - 1))]
            reqs.append({"kind": f"{group} {op}", "args": args, "stdin": json.dumps(el)})
    keys = []
    for ms in rng.sample(KPOLY_MULTISETS, KPOLY_KEYS):
        rects = _seeded_order(rng, ms)
        n = sum(eta for eta, _ in rects)
        cells = sum(eta * mu for eta, mu in rects)
        keys.append((rng.choice(list(partitions(cells, n))), rects))
    for k in range(KPOLY_REQUESTS):
        lam, rects = keys[k % KPOLY_KEYS]
        args = ["kpoly", "compute", "--shape", ",".join(map(str, lam)), "--rects", rects_arg(rects)]
        reqs.append({"kind": "kpoly compute", "args": args, "stdin": "", "key": [list(lam), rects_arg(rects)]})
    for kind in MALFORMED_KINDS:
        for _ in range(MALFORMED_PER_KIND):
            reqs.append({"kind": "malformed " + kind, "malformed": True, **_malformed(rng, kind)})
    rng.shuffle(reqs)
    return reqs


def cli_reference(rc, req: dict):
    """The in-process library answer to a well-formed request, as JSON."""
    args = req["args"]
    if args[0] == "kpoly":
        lam = tuple(int(x) for x in args[3].split(","))
        return rc.k_polynomial(lam, rc.RectSequence(parse_rects(args[5]))).to_json()
    b = rc.CrystalElement.from_json(json.loads(req["stdin"]))
    op = tuple(args[:2])
    if op == ("affine", "promote"):
        return rc.promote(b).to_json()
    if op == ("affine", "e0"):
        out = rc.e0(b)
        return None if out is None else out.to_json()
    if op == ("rsk", "pair"):
        pair = rc.rsk_pair(b)
        return {"p": pair.p.to_json(), "q": pair.q.to_json()}
    if op == ("energy", "total"):
        return {"energy": rc.total_energy(b), "terms": [list(t) for t in rc.energy_terms(b)]}
    return rc.sigma_swap(b, int(args[3])).to_json()


def check_cli_response(rc, req: dict, code: int, stdout: str, stderr: str) -> tuple[str | None, bool]:
    """(failure message or None, whether the failure is a wrong answer to a
    well-formed request rather than mishandled malformed input)."""
    if "Traceback" in stderr:
        return f"traceback, exit {code}", not req.get("malformed")
    if req.get("malformed"):
        if code != 2:
            return f"exit {code}, expected 2", False
        if not stderr.strip():
            return "exit 2 without a message", False
        return None, False
    if code != 0:
        return f"exit {code}: {stderr.strip()[:200]}", True
    try:
        got = json.loads(stdout)
    except ValueError:
        return "unparsable output", True
    try:
        want = cli_reference(rc, req)
    except Exception as exc:  # the library itself fails on this input
        return f"library raised {type(exc).__name__}: {exc}", True
    if got != want:
        return "differs from the library", True
    return None, False
