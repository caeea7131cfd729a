"""Exhaustive verification suites over enumerated crystals.

Every suite is a list of (instances, check) parts: rectangle sequences
bounded by the alphabet size and the total cell count, or the main theorem's
(n, level, mu).  One runner checks them all and returns a report whose
failure list is empty exactly when the suite passes.  Every scan of a crystal
walks FastCrystal index tuples: per-factor data (string lengths, operator
images, promotion) is tabulated once per rectangle, and sigma and the local
energy once per pair of rectangles.
"""

from __future__ import annotations

import json
import os
import time
from functools import cached_property, lru_cache
from itertools import islice, product
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence

from .affine import chi, cocyclage_witness, e0, pair_promote, promote_tableau
from .crystal import CrystalElement, RectSequence, _bracket, pairing, tableau_e, tableau_f, tableau_phi_eps, tableau_reflection
from .demazure import crystal_side_character, demazure_character
from .energy import _local_d, classical_charge, restricted_d, tableau_energy
from .kpoly import character_weights, graded_character, monotonicity_check
from .laurent import LaurentPolynomial
from .rmatrix import _sigma_pair, tau_swap
from .rsk import LRTableau, lrt_tableaux, rsk_pair
from .tableaux import Tableau, _Record, column_insert, enumerate_cst, key, partition, partitions_of, reverse_row_insert, unrecord


class VerifyReport(_Record):
    __slots__ = _fields = ("suite", "instances", "failures", "elapsed_ms")

    def __init__(
        self, suite: str, instances: int = 0, failures: list | None = None, elapsed_ms: int = 0
    ):
        self.suite = suite
        self.instances = instances
        self.failures = [] if failures is None else failures
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }


# A check stops at the first failure past this many in one instance.
MAX_FAILURES = 20


def _fail(instance, expected, actual) -> dict:
    return {"instance": instance, "expected": expected, "actual": actual}


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def rect_sequences(
    n_max: int,
    max_cells: int,
    num_rects: int | None = None,
    rows_only: bool = False,
) -> Iterator[RectSequence]:
    """All rectangle sequences with alphabet size 2..n_max and at most
    ``max_cells`` cells, in a fixed deterministic order."""
    for n in range(2, n_max + 1):
        for comp in compositions(n):
            if num_rects is not None and len(comp) != num_rects:
                continue
            if rows_only and any(eta != 1 for eta in comp):
                continue

            def widths(j: int, budget: int) -> Iterator[tuple[int, ...]]:
                if j == len(comp):
                    yield ()
                    return
                for mu in range(1, budget // comp[j] + 1):
                    for rest in widths(j + 1, budget - comp[j] * mu):
                        yield (mu,) + rest

            for ws in widths(0, max_cells):
                yield RectSequence(tuple(zip(comp, ws)))


# A pool starts only when each worker gets this many instances.  Starting
# two workers costs 30-80 ms on a 2-core box, more than they save on the
# seven main-theorem instances at n = 5, level 2 (about 100 ms in process).
MIN_INSTANCES_PER_WORKER = 4


def worker_count(jobs: int, instances: int) -> int:
    """Worker processes for ``jobs`` requested: never more than the cpus, and
    never fewer than MIN_INSTANCES_PER_WORKER instances each; 1 means run in
    process."""
    return max(1, min(jobs, os.cpu_count() or 1, instances // MIN_INSTANCES_PER_WORKER))


def _capped(task: tuple[Callable[..., Iterator[dict]], object]) -> list:
    check, instance = task
    return list(islice(check(instance), MAX_FAILURES + 1))


def _run_instances(
    suite: str,
    parts: Sequence[tuple[Iterable, Callable[..., Iterator[dict]]]],
    jobs: int = 1,
) -> VerifyReport:
    """Run every part's ``check``, a generator of failures, on each of the
    part's instances, all in one pool; each instance counts once and
    contributes at most MAX_FAILURES + 1 failures."""
    start = time.monotonic()
    tasks = [(check, instance) for instances, check in parts for instance in instances]
    workers = worker_count(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_capped, tasks))
    else:
        results = map(_capped, tasks)
    failures = [f for found in results for f in found]
    failures.sort(key=lambda d: json.dumps(d, sort_keys=True, default=str))
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerifyReport(suite, len(tasks), failures, elapsed_ms)


# ---------------------------------------------------------------------------
# Tabulated per-rectangle and per-pair data for the fast element walks.

class FactorTable:
    """Operator tables for one rectangle shape over a fixed alphabet.

    Color 0 is tabulated by conjugating color 1 with promotion, so every
    color 0..n-1 reads the same way.
    """

    def __init__(self, eta: int, mu: int, n: int):
        self.n = n
        self.tableaux = list(enumerate_cst((mu,) * eta, n))
        self.index = {t.rows: k for k, t in enumerate(self.tableaux)}
        self.content = [t.content(n) for t in self.tableaux]
        self.promote = [
            self.index[promote_tableau(t, n).rows] for t in self.tableaux
        ]
        self.promote_inv = [0] * len(self.tableaux)
        for k, img in enumerate(self.promote):
            self.promote_inv[img] = k
        self.stats = [None] + [
            [tableau_phi_eps(t, i) for t in self.tableaux] for i in range(1, n)
        ]
        self.e_map = [None] + [
            [self._img(tableau_e(t, i)) for t in self.tableaux] for i in range(1, n)
        ]
        self.f_map = [None] + [
            [self._img(tableau_f(t, i)) for t in self.tableaux] for i in range(1, n)
        ]
        self.stats[0] = [self.stats[1][img] for img in self.promote]
        self.e_map[0] = [self._conj(self.e_map[1][img]) for img in self.promote]
        self.f_map[0] = [self._conj(self.f_map[1][img]) for img in self.promote]

    def _img(self, t: Tableau | None) -> int | None:
        return None if t is None else self.index[t.rows]

    def _conj(self, k: int | None) -> int | None:
        return None if k is None else self.promote_inv[k]


@lru_cache(maxsize=None)
def factor_table(eta: int, mu: int, n: int) -> FactorTable:
    return FactorTable(eta, mu, n)


class PairTable:
    """sigma and the local energy on R_a (x) R_b over 1..n, by factor index.

    ``sigma[ka][kb]`` holds the factor indices (kb', ka') of sigma's image
    in R_b (x) R_a, and ``energy[ka][kb]`` the local energy of the pair.
    Both are read off rmatrix._sigma_pair and energy._local_d, the code that
    sigma_swap and energy_terms run.
    """

    def __init__(self, rect_a: tuple[int, int], rect_b: tuple[int, int], n: int):
        ta, tb = factor_table(*rect_a, n), factor_table(*rect_b, n)
        seq = RectSequence((rect_a, rect_b))
        self.sigma, self.energy = [], []
        for a in ta.tableaux:
            images = (_sigma_pair(rect_a, rect_b, a.rows, b.rows, n) for b in tb.tableaux)
            self.sigma.append([(tb.index[rows1], ta.index[rows2]) for rows1, rows2 in images])
            self.energy.append([_local_d(CrystalElement._raw(seq, (a, b)), 1) for b in tb.tableaux])


@lru_cache(maxsize=None)
def pair_table(rect_a: tuple[int, int], rect_b: tuple[int, int], n: int) -> PairTable:
    return PairTable(rect_a, rect_b, n)


def _switch(rects: tuple, el: tuple[int, ...], pos: int, n: int) -> tuple[tuple, tuple[int, ...]]:
    """sigma_swap at positions pos, pos+1 of an index tuple of B^rects over
    1..n: the switched rects and the image's index tuple."""
    a, b = rects[pos - 1 : pos + 1]
    img = pair_table(a, b, n).sigma[el[pos - 1]][el[pos]]
    return rects[: pos - 1] + (b, a) + rects[pos + 1 :], el[: pos - 1] + img + el[pos + 1 :]


class FastCrystal:
    """Elements of B^R as tuples of per-factor indices.

    An index view over the signature rule of :mod:`rectcrys.crystal`: the
    factor tables supply the (phi, eps) pairs, for color 0 through
    promotion, and the pair tables sigma and the local energy.  Signatures
    are memoized per instance (one dict per color), so the memo lives
    exactly as long as the walk over one B^R.
    """

    def __init__(self, seq: RectSequence):
        self.seq = seq
        self.n = seq.n
        self.tables = [factor_table(e_, m_, seq.n) for e_, m_ in seq.rects]
        # per color, the string lengths of each factor, b_m first as the rule reads them
        self._stats = [[t.stats[i] for t in reversed(self.tables)] for i in range(seq.n)]
        self._signatures: list[dict] = [{} for _ in range(seq.n)]

    def elements(self) -> Iterator[tuple[int, ...]]:
        return product(*(range(len(t.tableaux)) for t in self.tables))

    def content(self, el: tuple[int, ...]) -> tuple[int, ...]:
        acc = [0] * self.n
        for tab, k in zip(self.tables, el):
            for idx, c in enumerate(tab.content[k]):
                acc[idx] += c
        return tuple(acc)

    def signature(self, el: tuple[int, ...], i: int):
        """(phi_i, eps_i, f_pos, e_pos) of el for a color i in 0..n-1."""
        memo = self._signatures[i]
        sig = memo.get(el)
        if sig is None:
            sig = memo[el] = _bracket(list(map(getitem, self._stats[i], reversed(el))))
        return sig

    def apply(self, el: tuple[int, ...], i: int, op: str) -> tuple[int, ...] | None:
        phi_, eps_, f_pos, e_pos = self.signature(el, i)
        pos = f_pos if op == "f" else e_pos
        if pos is None:
            return None
        table = self.tables[pos - 1]
        img = (table.f_map if op == "f" else table.e_map)[i][el[pos - 1]]
        out = list(el)
        out[pos - 1] = img
        return tuple(out)

    def promote_el(self, el: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(t.promote[k] for t, k in zip(self.tables, el))

    @cached_property
    def _pairs(self) -> list[list[PairTable]]:
        # entry [j][i] is the pair table of (R_i, R_j) for i < j, 0-based
        rects = self.seq.rects
        return [[pair_table(a, b, self.n) for a in rects[:j]] for j, b in enumerate(rects)]

    def energy_terms(self, el: tuple[int, ...]) -> list[tuple[int, int, int]]:
        """energy.energy_terms on an index tuple: for each j the R_j factor
        walks leftward, switched past each R_i by the pair tables."""
        out = []
        for j, tables in enumerate(self._pairs):
            moving = el[j]
            for i in range(j - 1, -1, -1):
                out.append((i + 1, j + 1, tables[i].energy[el[i]][moving]))
                if i:
                    moving = tables[i].sigma[el[i]][moving][0]
        return out

    def energy(self, el: tuple[int, ...]) -> int:
        return sum(v for _, _, v in self.energy_terms(el))

    def to_element(self, el: tuple[int, ...]) -> CrystalElement:
        return CrystalElement._raw(
            self.seq, tuple(t.tableaux[k] for t, k in zip(self.tables, el))
        )

    def instance_json(self, el: tuple[int, ...] | None = None):
        data = {"rects": self.seq.to_json()}
        if el is not None:
            data["element"] = self.to_element(el).to_json()["factors"]
        return data


# ---------------------------------------------------------------------------
# Suite: crystal axioms (C1)-(C3), operator inverses, promotion conjugation.

def _check_crystal_axioms(seq: RectSequence) -> Iterator[dict]:
    fc = FastCrystal(seq)
    n = fc.n
    for el in fc.elements():
        content = fc.content(el)
        pr_el = fc.promote_el(el)
        for i in range(n):
            phi_, eps_, _, _ = fc.signature(el, i)
            expect = pairing(i, content)
            if phi_ - eps_ != expect:
                yield _fail(
                    fc.instance_json(el), f"<h_{i}, wt> = {expect}", phi_ - eps_
                )
            fb = fc.apply(el, i, "f")
            if fb is not None:
                # factors that f left alone add nothing to the weight drop
                delta = [0] * n
                for tab, k, k2 in zip(fc.tables, el, fb):
                    if k != k2:
                        for idx, c in enumerate(tab.content[k]):
                            delta[idx] += c - tab.content[k2][idx]
                want = [0] * n
                # alpha_i = e_i - e_{i+1} with letters mod n: index -1 is n
                want[i - 1] += 1
                want[i] -= 1
                if delta != want:
                    yield _fail(fc.instance_json(el), f"wt drop alpha_{i}", delta)
                if fc.apply(fb, i, "e") != el:
                    yield _fail(fc.instance_json(el), f"e_{i} f_{i} = id", "mismatch")
            eb = fc.apply(el, i, "e")
            if eb is not None and fc.apply(eb, i, "f") != el:
                yield _fail(fc.instance_json(el), f"f_{i} e_{i} = id", "mismatch")
            # promotion conjugation pr f_i = f_{i+1} pr, colors mod n
            nxt = (i + 1) % n
            lhs = fc.promote_el(fb) if fb is not None else None
            if lhs != fc.apply(pr_el, nxt, "f"):
                yield _fail(fc.instance_json(el), f"pr f_{i} = f_{nxt} pr", "mismatch")


def verify_crystal_axioms(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = rect_sequences(n_max, max_cells)
    return _run_instances("crystal-axioms", [(seqs, _check_crystal_axioms)], jobs)


# ---------------------------------------------------------------------------
# Suite: RSK bijectivity and equivariance.

def _check_rsk(seq: RectSequence) -> Iterator[dict]:
    n = seq.n
    fc = FastCrystal(seq)
    elements = list(fc.elements())
    pairs = {el: rsk_pair(fc.to_element(el)) for el in elements}
    spans = [seq.subalphabet(j) for j in range(1, seq.m + 1)]
    # bijection: round trip and cardinality of the image.  A factor index
    # holds exactly the valid factors of its rectangle, so a row group that
    # is none of them looks up None and fails the comparison.
    for el, pair in pairs.items():
        try:
            rows = unrecord(pair.p, pair.q, n)
            back = tuple(t.index.get(tuple(rows[lo - 1 : hi])) for t, (lo, hi) in zip(fc.tables, spans))
        except ValueError:
            back = None
        if back != el:
            yield _fail(fc.instance_json(el), "rsk_inverse . rsk_pair = id", "mismatch")
            break
    count = sum(
        sum(character_weights(lam, n).values()) * len(lrt_tableaux(lam, seq))
        for lam in partitions_of(seq.ncells, n)
    )
    if count != len(elements):
        yield _fail({"rects": seq.to_json()}, f"image size {len(elements)}", count)
    for el in elements:
        pb = pairs[el]
        # equivariance under e_i, f_i, r_i for classical colors
        for i in range(1, n):
            fel = fc.apply(el, i, "f")
            if fel is not None:
                pf = pairs[fel]
                if pf.q != pb.q or pf.p != tableau_f(pb.p, i):
                    yield _fail(fc.instance_json(el), f"equivariance f_{i}", "mismatch")
            phi_, eps_, _, _ = fc.signature(el, i)
            rel = el
            for _ in range(phi_ - eps_):
                rel = fc.apply(rel, i, "f")
            for _ in range(eps_ - phi_):
                rel = fc.apply(rel, i, "e")
            prb = pairs[rel]
            if prb.q != pb.q or prb.p != tableau_reflection(pb.p, i):
                yield _fail(fc.instance_json(el), f"equivariance r_{i}", "mismatch")
        # promotion computed on the pair alone agrees with the element route
        if pair_promote(pb, seq)[0] != pairs[fc.promote_el(el)]:
            yield _fail(fc.instance_json(el), "pair promotion", "mismatch")


def verify_rsk(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    return _run_instances("rsk", [(rect_sequences(n_max, max_cells), _check_rsk)], jobs)


# ---------------------------------------------------------------------------
# Suite: rectangle switches commute with every operator; Yang-Baxter.

def _checked_tau(q: LRTableau, pos: int) -> LRTableau:
    """tau_swap with its result checked by the public LRTableau (NonLRError)."""
    t = tau_swap(q, pos)
    return LRTableau(t.tableau, t.seq)


def _check_rmatrix_pairs(seq: RectSequence) -> Iterator[dict]:
    n = seq.n
    fc, fs = FastCrystal(seq), FastCrystal(seq.swapped(1))
    table, back = pair_table(*seq.rects, n), pair_table(*reversed(seq.rects), n)
    for el in fc.elements():
        sel = table.sigma[el[0]][el[1]]
        pb, psb = rsk_pair(fc.to_element(el)), rsk_pair(fs.to_element(sel))
        if psb.p != pb.p:
            yield _fail(fc.instance_json(el), "sigma keeps p", "mismatch")
        if psb.q != _checked_tau(LRTableau(pb.q, seq), 1).tableau:
            yield _fail(fc.instance_json(el), "sigma acts as tau on q", "mismatch")
        if back.sigma[sel[0]][sel[1]] != el:
            yield _fail(fc.instance_json(el), "sigma involution", "mismatch")
        if back.energy[sel[0]][sel[1]] != table.energy[el[0]][el[1]]:
            yield _fail(fc.instance_json(el), "H' . sigma = H", "mismatch")
        for i in range(n):
            for op in ("e", "f"):
                img = fc.apply(el, i, op)
                lhs = table.sigma[img[0]][img[1]] if img is not None else None
                if lhs != fs.apply(sel, i, op):
                    yield _fail(fc.instance_json(el), f"sigma {op}_{i} = {op}_{i} sigma", "mismatch")


def _check_yang_baxter(seq: RectSequence) -> Iterator[dict]:
    fc = FastCrystal(seq)
    for el in fc.elements():
        lhs = rhs = (seq.rects, el)
        for pos in (1, 2, 1):
            lhs = _switch(*lhs, pos, fc.n)
        for pos in (2, 1, 2):
            rhs = _switch(*rhs, pos, fc.n)
        if lhs != rhs:
            yield _fail(fc.instance_json(el), "Yang-Baxter", "mismatch")
            break


def verify_rmatrix(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    parts = [
        (rect_sequences(n_max, max_cells, num_rects=2), _check_rmatrix_pairs),
        (rect_sequences(n_max, max_cells, num_rects=3), _check_yang_baxter),
    ]
    return _run_instances("rmatrix", parts, jobs)


# ---------------------------------------------------------------------------
# Suite: energy axioms, the shape formula, charge agreement.

def _check_energy_two_factor(seq: RectSequence) -> Iterator[dict]:
    """Propagate H from the axioms over the crystal graph and compare with
    the east-count formula; check (H1), (H2), the normalizations, and
    connectedness on the way."""
    n = seq.n
    fc = FastCrystal(seq)
    table = pair_table(*seq.rects, n)
    H = {el: table.energy[el[0]][el[1]] for el in fc.elements()}
    # normalization at the stacked key element and the pair of keys
    y = tuple(t.index[seq.key_tableau(j).rows] for j, t in enumerate(fc.tables, start=1))
    if H[y] != 0:
        yield _fail(fc.instance_json(y), "H(v_R) = 0", H[y])
    keys = tuple(t.index[key((mu,) * eta, n=n).rows] for t, (eta, mu) in zip(fc.tables, seq.rects))
    expected = min(seq.eta(1), seq.eta(2)) * min(seq.mu(1), seq.mu(2))
    if H[keys] != expected:
        yield _fail(fc.instance_json(keys), f"H(keys) = {expected}", H[keys])
    # axioms as a consistent propagation: classical edges keep H, zero edges
    # follow the three-way branch
    assigned = {y: 0}
    frontier = [y]
    while frontier:
        nxt = []
        for el in frontier:
            for i in range(n):
                for op in ("e", "f"):
                    img = fc.apply(el, i, op)
                    if img is None:
                        continue
                    if i == 0:
                        # (H2) pins the jump across the raising direction
                        if op == "e":
                            val = assigned[el] + _h2_jump(fc, table, el)
                        else:
                            val = assigned[el] - _h2_jump(fc, table, img)
                    else:
                        val = assigned[el]
                    if img in assigned:
                        if assigned[img] != val:
                            yield _fail(fc.instance_json(el), "axiom propagation consistent", i)
                    else:
                        assigned[img] = val
                        nxt.append(img)
        frontier = nxt
    if len(assigned) != len(H):
        yield _fail({"rects": seq.to_json()}, "connected", f"{len(assigned)}/{len(H)}")
    for el, h in H.items():
        if assigned.get(el) != h:
            yield _fail(fc.instance_json(el), f"H = d(q) = {h}", assigned.get(el))
            break


def _h2_jump(fc: FastCrystal, table: PairTable, el: tuple[int, int]) -> int:
    """H(e_0(b)) - H(b) prescribed by the branch rule (defined when e_0 is):
    1 when both inequalities hold, -1 when neither does, else 0."""
    (s1, s2), (b1, b2) = (t.stats[0] for t in fc.tables), el  # (phi_0, eps_0) per factor
    c2, c1 = table.sigma[b1][b2]  # c2 in CST(R_2), c1 in CST(R_1)
    first = s2[b2][1] <= s1[b1][0]  # eps_0(b_2) <= phi_0(b_1)
    second = s1[c1][1] <= s2[c2][0]  # eps_0(c_1) <= phi_0(c_2)
    return first + second - 1


def _check_energy_general(seq: RectSequence) -> Iterator[dict]:
    """(H1) on every classical edge, plus agreement of the crystal-side and
    tableau-side statistics.  The tableau statistic is compared on highest
    weight elements; constancy along edges extends the agreement to all of
    B^R since recording tableaux are constant on components."""
    n = seq.n
    fc = FastCrystal(seq)
    energies = {el: fc.energy(el) for el in fc.elements()}
    for el, en in energies.items():
        hw = True
        for i in range(1, n):
            _, eps_, f_pos, _ = fc.signature(el, i)
            hw = hw and eps_ == 0
            if f_pos is not None and energies[fc.apply(el, i, "f")] != en:
                yield _fail(fc.instance_json(el), f"(H1) under f_{i}", "changed")
        if hw:
            q = rsk_pair(fc.to_element(el)).q
            if tableau_energy(LRTableau(q, seq)) != en:
                yield _fail(fc.instance_json(el), f"tableau energy {en}", "mismatch")


def _check_energy_drop(seq: RectSequence) -> Iterator[dict]:
    """The level sums drop by one at the acting position when every factor
    width is exceeded by eps_0."""
    widest = max(mu for _, mu in seq.rects)
    fc = FastCrystal(seq)
    for el in fc.elements():
        _, eps_, _, k = fc.signature(el, 0)
        if eps_ <= widest:
            continue
        # eps_0 > widest >= 1, so e_0 acts, at position k
        if k == 1:
            yield _fail(fc.instance_json(el), "acting position > 1", k)
            continue
        want, got = _level_sums(fc, el), _level_sums(fc, fc.apply(el, 0, "e"))
        want[k] -= 1
        for j in range(2, seq.m + 1):
            if got[j] != want[j]:
                yield _fail(fc.instance_json(el), f"level sum {j}: {want[j]}", got[j])


def _level_sums(fc: FastCrystal, el: tuple[int, ...]) -> list[int]:
    """Index j holds the inner sum over i < j of the (i, j) energy terms."""
    sums = [0] * (fc.seq.m + 1)
    for _, j, v in fc.energy_terms(el):
        sums[j] += v
    return sums


def _check_three_rectangles(seq: RectSequence) -> Iterator[dict]:
    M = max(seq.mu(j) for j in (1, 2, 3))
    for rest in partitions_of(seq.ncells - M, seq.n - 1, M):
        lam = (M,) + rest
        for t in lrt_tableaux(lam, seq):
            q = LRTableau(t, seq)
            t2 = _checked_tau(q, 2)
            t12 = _checked_tau(t2, 1)
            t1 = _checked_tau(q, 1)
            t21 = _checked_tau(t1, 2)
            total = (
                restricted_d(t12, 2)
                - restricted_d(q, 2)
                + restricted_d(t21, 1)
                - restricted_d(q, 1)
            )
            if total != 0:
                yield _fail(t.to_json(), "three-rectangle identity", total)


def verify_energy(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    parts = [
        (rect_sequences(n_max, max_cells, num_rects=2), _check_energy_two_factor),
        (rect_sequences(n_max, max_cells), _check_energy_general),
        (rect_sequences(min(n_max, 3), max_cells), _check_energy_drop),
        (rect_sequences(n_max, max_cells, num_rects=3), _check_three_rectangles),
    ]
    return _run_instances("energy", parts, jobs)


def _check_charge(seq: RectSequence) -> Iterator[dict]:
    gamma = seq.gamma()
    if any(gamma[i] < gamma[i + 1] for i in range(len(gamma) - 1)):
        return  # charge needs partition content
    for lam in partitions_of(seq.ncells, seq.n):
        for t in lrt_tableaux(lam, seq):
            en = tableau_energy(LRTableau(t, seq))
            ch = classical_charge(t)
            if en != ch:
                yield _fail(t.to_json(), f"charge {ch}", en)


def verify_charge_energy(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = rect_sequences(n_max, max_cells, rows_only=True)
    return _run_instances("charge-energy", [(seqs, _check_charge)], jobs)


# ---------------------------------------------------------------------------
# Suite: cocyclage realized by e_0.

def _check_cocyclage(seq: RectSequence) -> Iterator[dict]:
    n = seq.n
    M = max(seq.mu(j) for j in range(1, seq.m + 1))
    for lam in partitions_of(seq.ncells, n):
        for t in lrt_tableaux(lam, seq):
            corners = [
                (r, lam[r - 1])
                for r in range(1, len(lam) + 1)
                if r == len(lam) or lam[r] < lam[r - 1]
            ]
            for cell in corners:
                if cell[0] >= n:
                    continue
                u_tab, x = reverse_row_insert(t, cell)
                word = u_tab.word() + (x,)
                b = cocyclage_witness(t, seq, cell)
                if rsk_pair(b).q != t:
                    yield _fail(t.to_json(), "witness records q", "mismatch")
                    continue
                eb = e0(b)
                if eb is None:
                    yield _fail(t.to_json(), "e_0 defined on witness", None)
                    continue
                got = rsk_pair(eb).q
                want = column_insert(chi(word, seq), n=n)
                if got != want:
                    yield _fail(
                        {"tableau": t.to_json(), "corner": list(cell)},
                        want.to_json(),
                        got.to_json(),
                    )
                if cell[1] == lam[0] and lam[0] > M:
                    # last-column case: the energy must drop by one
                    drop = tableau_energy(LRTableau(t, seq)) - tableau_energy(
                        LRTableau(got, seq)
                    )
                    if drop != 1:
                        yield _fail(
                            {"tableau": t.to_json(), "corner": list(cell)},
                            "energy drop 1",
                            drop,
                        )


def verify_cocyclage(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = rect_sequences(n_max, max_cells)
    rep = _run_instances("cocyclage", [(seqs, _check_cocyclage)], jobs)
    rep.failures.extend(_check_stuck_component())
    return rep


def _check_stuck_component() -> Iterator[dict]:
    """The three-rectangle example where e_0 never lowers the energy: all five
    elements of the component admitting e_0 land in the wider component at the
    same energy."""
    seq = RectSequence([(1, 2), (1, 1), (1, 1)])
    fc = FastCrystal(seq)
    src = Tableau([[1, 1], [2, 3]], n=3)
    dst = Tableau([[1, 1, 3], [2]], n=3)
    energies = (tableau_energy(LRTableau(src, seq)), tableau_energy(LRTableau(dst, seq)))
    hits = 0
    for el in fc.elements():
        if rsk_pair(fc.to_element(el)).q != src:
            continue
        eb = fc.apply(el, 0, "e")
        if eb is None:
            continue
        hits += 1
        if rsk_pair(fc.to_element(eb)).q != dst:
            yield _fail(fc.instance_json(el), "lands in the wider component", "no")
        if energies[0] != energies[1]:
            yield _fail(fc.instance_json(el), "equal energy", energies)
    if hits != 5:
        yield _fail({"rects": seq.to_json()}, "five elements admit e_0", hits)


# ---------------------------------------------------------------------------
# Suite: the two expansion routes of the graded character.

def _check_characters(seq: RectSequence) -> Iterator[dict]:
    """Scan B^R and check the LR route of graded_character against it.

    The coefficient of s_lambda counted over sl_n highest weight elements of
    weight lambda, graded by energy, must equal K_{lambda;R}(q); and the
    expansion, weighted by the irreducible characters, must reproduce the
    weight-and-energy generating function of the whole crystal.
    """
    n = seq.n
    by_hw: dict[tuple[int, ...], dict[int, int]] = {}
    weight_sum: dict[tuple[tuple[int, ...], int], int] = {}
    fc = FastCrystal(seq)
    for el in fc.elements():
        en = fc.energy(el)
        wt = fc.content(el)
        weight_sum[(wt, en)] = weight_sum.get((wt, en), 0) + 1
        if all(fc.signature(el, i)[1] == 0 for i in range(1, n)):
            counts = by_hw.setdefault(partition(wt), {})
            counts[en] = counts.get(en, 0) + 1
    hw_route = {lam: LaurentPolynomial(d) for lam, d in by_hw.items()}
    lr_route = graded_character(seq).as_dict()
    instance = {"rects": seq.to_json()}
    if hw_route != lr_route:
        msg = f"highest-weight route {hw_route} != tableau route {lr_route}"
        yield _fail(instance, "routes agree", msg)
        return
    expanded: dict[tuple[tuple[int, ...], int], int] = {}
    for lam, poly in lr_route.items():
        for wt, mult in character_weights(lam, n).items():
            for e, c in poly.coeffs.items():
                expanded[(wt, e)] = expanded.get((wt, e), 0) + mult * c
    if expanded != weight_sum:
        yield _fail(instance, "routes agree", "weight generating functions differ")


def verify_characters(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = rect_sequences(n_max, max_cells)
    return _run_instances("characters", [(seqs, _check_characters)], jobs)


# ---------------------------------------------------------------------------
# Suite: monotonicity under adding a rectangle.

def _check_monotonicity_seq(seq: RectSequence) -> Iterator[dict]:
    for lam in partitions_of(seq.ncells, seq.n):
        if not lrt_tableaux(lam, seq):
            continue
        for k in (1, 2):
            for m in (1, 2):
                rep = monotonicity_check(lam, seq, k, m)
                if not rep.holds:
                    yield _fail(
                        {"rects": seq.to_json(), "lambda": list(lam), "k": k, "m": m},
                        "monotone",
                        rep.failure,
                    )


def verify_monotonicity(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = rect_sequences(n_max, max_cells)
    return _run_instances("monotonicity", [(seqs, _check_monotonicity_seq)], jobs)


# ---------------------------------------------------------------------------
# Suite: the main character identity.

def _check_main_theorem(instance: tuple[int, int, tuple[int, ...]]) -> Iterator[dict]:
    n, level, mu = instance
    dc = demazure_character(level, mu, n)
    cc = crystal_side_character(level, mu)
    if dc != cc:
        where = {"n": n, "level": level, "mu": list(mu)}
        yield _fail(where, cc.to_json(), dc.to_json())


def verify_main_theorem(
    n: int, level: int, mu: Sequence[int] | None = None, jobs: int = 1
) -> VerifyReport:
    # mu = 1^n, the costliest, first: with two workers the second takes the rest
    mus = [tuple(mu)] if mu is not None else list(partitions_of(n, n))[::-1]
    instances = ((n, level, m) for m in mus)
    return _run_instances("main-theorem", [(instances, _check_main_theorem)], jobs)


# ---------------------------------------------------------------------------
# Everything.

SUITES = {
    "crystal-axioms": verify_crystal_axioms,
    "rsk": verify_rsk,
    "rmatrix": verify_rmatrix,
    "energy": verify_energy,
    "charge-energy": verify_charge_energy,
    "cocyclage": verify_cocyclage,
    "characters": verify_characters,
    "monotonicity": verify_monotonicity,
}


def verify_all(n_max: int, max_cells: int, jobs: int = 1) -> list[VerifyReport]:
    reports = [fn(n_max, max_cells, jobs=jobs) for fn in SUITES.values()]
    for level in (1, 2):
        for n in range(2, min(n_max, 5) + 1):
            reports.append(verify_main_theorem(n, level, jobs=jobs))
    return reports
