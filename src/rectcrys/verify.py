"""Exhaustive verification suites over enumerated crystals.

Every suite is a list of (instances, check) parts: rectangle sequences
bounded by the alphabet size and the total cell count, or the main theorem's
(n, level, mu).  One runner checks them all and returns a report whose
failure list is empty exactly when the suite passes.  Every scan of a crystal
walks FastCrystal element codes: per-shape data (string lengths, operator
images, and promotion for a rectangle) is tabulated once per shape, the
signatures and operator images of each color once per instance, and sigma
and the local energy once per pair of rectangles.  The RSK suite computes
its pairs by RskWalk, each factor inserted once onto its prefix.
"""

from __future__ import annotations

import json
import os
import time
from functools import cached_property, lru_cache
from itertools import islice, product
from math import prod
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .affine import _n_strip, _promote_insertion, _promote_recording, chi, cocyclage_witness, e0, promote_tableau
from .crystal import CrystalElement, RectSequence, _bracket, pairing, tableau_e, tableau_f, tableau_phi_eps, tableau_reflection
from .demazure import crystal_side_character, demazure_character
from .energy import _kostka_counts, _lrt_energies, _pair_d, classical_charge, restricted_d, tableau_energy
from .errors import InconsistentPairError
from .kpoly import character_weights, monotonicity_check
from .laurent import LaurentPolynomial
from .rmatrix import _sigma_pair, tau_swap
from .rsk import LRTableau, _lr_rows, rsk_pair
from .tableaux import Tableau, _peel_labels, _record_onto, _Record, _tableau_of_cols, column_insert, enumerate_cst, key, partition, partitions_of, reverse_row_insert


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
) -> Iterator[RectSequence]:
    """All rectangle sequences with alphabet size 2..n_max and at most
    ``max_cells`` cells (so n <= max_cells), in a fixed deterministic order."""
    for n in range(2, min(n_max, max_cells) + 1):
        for comp in compositions(n):
            if num_rects is not None and len(comp) != num_rects:
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


# A pool starts only when each worker gets this much estimated in-process
# time, in microseconds.  Starting two workers, each rebuilding the tables
# and memos an in-process run shares, costs about as much on a 2-core box.
MIN_US_PER_WORKER = 150_000


def _count_cst(eta: int, mu: int, n: int) -> int:
    """Semistandard tableaux of the eta x mu rectangle over 1..n, by the
    hook-content formula (0 when eta > n)."""
    num = den = 1
    for r in range(eta):
        for c in range(mu):
            num *= n + c - r
            den *= eta - r + mu - c - 1
    return num // den


def _work(check: Callable[..., Iterator[dict]], instance) -> float:
    """Estimated in-process time of one instance, in microseconds: |B^R|,
    counted without building a table, times the check's measured cost per
    element of B^R (US_PER_ELEMENT).  A main-theorem instance counts as a
    quarter of a worker's share, so a pool needs four of them per worker."""
    if isinstance(instance, RectSequence):
        size = prod(_count_cst(eta, mu, instance.n) for eta, mu in instance.rects)
        return US_PER_ELEMENT[check] * size
    return MIN_US_PER_WORKER / 4


def worker_count(jobs: int, work: float) -> int:
    """Worker processes for ``jobs`` requested: never more than the cpus, and
    never less than MIN_US_PER_WORKER of the estimated ``work`` each; 1
    means run in process."""
    return max(1, min(jobs, os.cpu_count() or 1, int(work // MIN_US_PER_WORKER)))


def _capped(task: tuple[Callable[..., Iterator[dict]], object]) -> list:
    check, instance = task
    return list(islice(check(instance), MAX_FAILURES + 1))


def _run_instances(
    suite: str,
    parts: Sequence[tuple[Iterable, Callable[..., Iterator[dict]]]],
    jobs: int = 1,
) -> VerifyReport:
    """Run every part's ``check``, a generator of failures, on each of the
    part's instances, all in one pool, largest estimated work first; each
    instance counts once and contributes at most MAX_FAILURES + 1
    failures."""
    start = time.monotonic()
    tasks = [(check, instance) for instances, check in parts for instance in instances]
    workers = worker_count(jobs, sum(_work(*task) for task in tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # stable, so equal work keeps family order (main theorem: mu = 1^n first)
        tasks.sort(key=lambda task: _work(*task), reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_capped, tasks))
    else:
        results = map(_capped, tasks)
    failures = [f for found in results for f in found]
    failures.sort(key=lambda d: json.dumps(d, sort_keys=True, default=str))
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return VerifyReport(suite, len(tasks), failures, elapsed_ms)


# ---------------------------------------------------------------------------
# Tabulated per-shape and per-pair data for the fast element walks.

class FactorTable:
    """Operator tables for the column-strict tableaux of one normal shape
    over 1..n, by position in :attr:`tableaux`.

    For each classical color i the table holds the string lengths and the
    e_i, f_i and r_i images; for each tableau, the cells of its letters n.
    A rectangle, the shape of every factor that FastCrystal reads, also
    gets promotion and color 0, tabulated by conjugating color 1 with
    promotion, so every color 0..n-1 reads the same way.
    """

    def __init__(self, shape: tuple[int, ...], n: int):
        self.n = n
        self.tableaux = list(enumerate_cst(shape, n))
        self.index = {t.rows: k for k, t in enumerate(self.tableaux)}
        self.content = [t.content(n) for t in self.tableaux]
        self.stats = [None] + [
            [tableau_phi_eps(t, i) for t in self.tableaux] for i in range(1, n)
        ]
        self.e_map = [None] + [
            [self._img(tableau_e(t, i)) for t in self.tableaux] for i in range(1, n)
        ]
        self.f_map = [None] + [
            [self._img(tableau_f(t, i)) for t in self.tableaux] for i in range(1, n)
        ]
        self.reflect = [None] + [
            [self._img(tableau_reflection(t, i)) for t in self.tableaux] for i in range(1, n)
        ]
        self.strip = [_n_strip(t, n) for t in self.tableaux]
        if len(set(shape)) != 1:
            return
        self.promote = [
            self.index[promote_tableau(t, n).rows] for t in self.tableaux
        ]
        self.promote_inv = [0] * len(self.tableaux)
        for k, img in enumerate(self.promote):
            self.promote_inv[img] = k
        self.stats[0] = [self.stats[1][img] for img in self.promote]
        self.e_map[0] = [self._conj(self.e_map[1][img]) for img in self.promote]
        self.f_map[0] = [self._conj(self.f_map[1][img]) for img in self.promote]

    def _img(self, t: Tableau | None) -> int | None:
        return None if t is None else self.index[t.rows]

    def _conj(self, k: int | None) -> int | None:
        return None if k is None else self.promote_inv[k]


@lru_cache(maxsize=None)
def factor_table(shape: tuple[int, ...], n: int) -> FactorTable:
    return FactorTable(shape, n)


class PairTable:
    """sigma and the local energy on R_a (x) R_b over 1..n, by factor index.

    ``sigma[ka][kb]`` holds the factor indices (kb', ka') of sigma's image
    in R_b (x) R_a, and ``energy[ka][kb]`` the local energy of the pair.
    Both are read off rmatrix._sigma_pair and energy._pair_d, the code that
    sigma_swap and energy_terms run.
    """

    def __init__(self, rect_a: tuple[int, int], rect_b: tuple[int, int], n: int):
        (eta_a, mu_a), (eta_b, mu_b) = rect_a, rect_b
        ta, tb = factor_table((mu_a,) * eta_a, n), factor_table((mu_b,) * eta_b, n)
        col = max(mu_a, mu_b)
        self.sigma, self.energy = [], []
        for a in ta.tableaux:
            images = (_sigma_pair(rect_a, rect_b, a.rows, b.rows, n) for b in tb.tableaux)
            self.sigma.append([(tb.index[rows1], ta.index[rows2]) for rows1, rows2 in images])
            self.energy.append([_pair_d(a.rows, b.rows, col) for b in tb.tableaux])


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
    """Elements of B^R as tuples of per-factor indices, and as codes.

    An element's code is its position in :attr:`elements`, the mixed-radix
    number of its index tuple over the factor-table sizes.  An index view
    over the signature rule of :mod:`rectcrys.crystal`: per color, one sweep
    of that rule over the tabulated string lengths fills code-indexed lists
    of the signatures and of the f_i and e_i images (:meth:`color`, built on
    first use and kept as long as the instance, that is, the walk over one
    B^R).  Promotion is a permutation of the codes, and the pair tables give
    sigma and the local energy.
    """

    def __init__(self, seq: RectSequence):
        self.seq = seq
        self.n = seq.n
        self.tables = [factor_table((m_,) * e_, seq.n) for e_, m_ in seq.rects]
        # a factor index k adds k * stride to the code
        self._strides = [1] * len(self.tables)
        for j in range(len(self.tables) - 1, 0, -1):
            self._strides[j - 1] = self._strides[j] * len(self.tables[j].tableaux)
        self._colors: list[tuple[list, list, list] | None] = [None] * seq.n

    @cached_property
    def elements(self) -> list[tuple[int, ...]]:
        """Index tuples by code."""
        return list(product(*(range(len(t.tableaux)) for t in self.tables)))

    def code(self, el: tuple[int, ...]) -> int:
        return sum(map(mul, el, self._strides))

    def signature(self, el: tuple[int, ...], i: int):
        """(phi_i, eps_i, f_pos, e_pos) of el for a color i in 0..n-1: the
        signature rule on the factors' string lengths, b_m first as the rule
        reads them."""
        return _bracket([t.stats[i][k] for t, k in zip(self.tables, el)][::-1])

    def color(self, i: int) -> tuple[list, list, list]:
        """(signatures, f_i images, e_i images) by code for a color i in
        0..n-1; an image is a code, or None where the operator is undefined."""
        arrays = self._colors[i]
        if arrays is None:
            # elements whose factors have the same string lengths share a signature
            memo, sigs = {}, []
            for pairs in product(*(t.stats[i] for t in self.tables)):
                sig = memo.get(pairs)
                if sig is None:
                    sig = memo[pairs] = _bracket(pairs[::-1])
                sigs.append(sig)
            arrays = self._colors[i] = (
                sigs,
                self._images(sigs, 2, [t.f_map[i] for t in self.tables]),
                self._images(sigs, 3, [t.e_map[i] for t in self.tables]),
            )
        return arrays

    def _images(self, sigs: list, slot: int, maps: list[list]) -> list:
        """Images by code of an operator that acts on the factor at tensor
        position sigs[code][slot] by that factor's index map in ``maps``."""
        # the code change when the operator acts on factor j, by its index there
        steps = [
            [None if img is None else (img - k) * stride for k, img in enumerate(m)]
            for m, stride in zip(maps, self._strides)
        ]
        out = []
        for code, (el, sig) in enumerate(zip(self.elements, sigs)):
            pos = sig[slot]
            step = None if pos is None else steps[pos - 1][el[pos - 1]]
            out.append(None if step is None else code + step)
        return out

    @cached_property
    def promotion(self) -> list[int]:
        """Promotion as a permutation of the codes."""
        scaled = [[k * stride for k in t.promote] for t, stride in zip(self.tables, self._strides)]
        return list(map(sum, product(*scaled)))

    @cached_property
    def weights(self) -> list[tuple[int, ...]]:
        """The content of each element, by code."""
        acc = [(0,) * self.n]
        for t in self.tables:
            acc = [tuple(map(add, wt, c)) for wt in acc for c in t.content]
        return acc

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
    colors = [fc.color(i) for i in range(n)]
    promotion, weights = fc.promotion, fc.weights
    alphas = []
    for i in range(n):
        # alpha_i = e_i - e_{i+1} with letters mod n: index -1 is n
        alpha = [0] * n
        alpha[i - 1] += 1
        alpha[i] -= 1
        alphas.append(alpha)
    for code, el in enumerate(fc.elements):
        wt = weights[code]
        pr_code = promotion[code]
        for i, (sigs, f_img, e_img) in enumerate(colors):
            phi_, eps_, _, _ = sigs[code]
            expect = pairing(i, wt)
            if phi_ - eps_ != expect:
                yield _fail(
                    fc.instance_json(el), f"<h_{i}, wt> = {expect}", phi_ - eps_
                )
            fb = f_img[code]
            if fb is not None:
                delta = list(map(sub, wt, weights[fb]))
                if delta != alphas[i]:
                    yield _fail(fc.instance_json(el), f"wt drop alpha_{i}", delta)
                if e_img[fb] != code:
                    yield _fail(fc.instance_json(el), f"e_{i} f_{i} = id", "mismatch")
            eb = e_img[code]
            if eb is not None and f_img[eb] != code:
                yield _fail(fc.instance_json(el), f"f_{i} e_{i} = id", "mismatch")
            # promotion conjugation pr f_i = f_{i+1} pr, colors mod n
            nxt = (i + 1) % n
            lhs = promotion[fb] if fb is not None else None
            if lhs != colors[nxt][1][pr_code]:
                yield _fail(fc.instance_json(el), f"pr f_{i} = f_{nxt} pr", "mismatch")


def verify_crystal_axioms(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = rect_sequences(n_max, max_cells)
    return _run_instances("crystal-axioms", [(seqs, _check_crystal_axioms)], jobs)


# ---------------------------------------------------------------------------
# Suite: RSK bijectivity and equivariance.

class RskWalk:
    """rsk_pair of every element of B^R, by code, each factor inserted once
    onto its prefix.

    The elements in code order are the leaves of a tree whose nodes at
    depth j are the prefixes of j factor indices.  A node copies its
    parent's insertion state (the columns of p and the rows of q) and
    records only its own factor's rows onto it with tableaux._record_onto,
    the step that rsk_pair composes.  It then peels those labels back off,
    top label first, with the loop that unrecord runs: the ejected rows
    must look up to the factor in its table, and the columns left must be
    the parent's, none at depth 1.  By induction on the prefix, that is
    unrecord(rsk_pair(b)) == b for every b.

    ``p[code]`` and ``q[code]`` are ids interned for the instance:
    ``p_tables[id]`` is (shape table, index), ``q_tableaux[id]`` the
    recording tableau, and ``p_ids`` and ``q_ids`` map rows to ids.
    ``failed`` is the first element of the first node whose round trip
    fails, or None.
    """

    def __init__(self, fc: FastCrystal):
        n, tables = fc.n, fc.tables
        spans = [fc.seq.subalphabet(j) for j in range(1, fc.seq.m + 1)]
        p, q = self.p, self.q = [], []
        p_tables = self.p_tables = []
        q_tableaux = self.q_tableaux = []
        p_ids, q_ids = self.p_ids, self.q_ids = {}, {}
        self.failed = None
        by_cols: dict[tuple, int] = {}  # the columns of p -> its id
        last = len(tables) - 1

        def peel_back(state, qrows, depth, k, parent, prefix) -> None:
            # peel the node's labels off its state, in place
            (lo, hi), table = spans[depth], tables[depth]
            labelled = [
                ((r, c), v) for r, row in enumerate(qrows, 1) for c, v in enumerate(row, 1) if v >= lo
            ]
            try:
                groups = [group for _, group in _peel_labels(state, labelled, hi, lo)]
                ok = table.index.get(tuple(groups[::-1])) == k and state == parent
            except ValueError:
                ok = False
            if not ok:
                self.failed = prefix + (k,) + (0,) * (last - depth)

        def visit(depth: int, cols: list, qrows: list, prefix: tuple) -> None:
            lo = spans[depth][0]
            for k, t in enumerate(tables[depth].tableaux):
                state, rows = [col[:] for col in cols], [row[:] for row in qrows]
                _record_onto(state, rows, t.rows, lo)
                if depth < last:
                    if self.failed is None:
                        peel_back([col[:] for col in state], rows, depth, k, cols, prefix)
                    visit(depth + 1, state, rows, prefix + (k,))
                    continue
                key_ = tuple(map(tuple, state))
                pid = by_cols.get(key_)
                if pid is None:
                    pt = _tableau_of_cols(state, n)
                    table = factor_table(pt.outer, n)
                    pid = by_cols[key_] = p_ids[pt.rows] = len(p_tables)
                    p_tables.append((table, table.index[pt.rows]))
                p.append(pid)
                key_ = tuple(map(tuple, rows))
                qid = q_ids.get(key_)
                if qid is None:
                    qid = q_ids[key_] = len(q_tableaux)
                    q_tableaux.append(Tableau._raw(key_, (), n))
                q.append(qid)
                if self.failed is None:
                    peel_back(state, rows, depth, k, cols, prefix)

        visit(0, [], [], ())


def _check_rsk(seq: RectSequence) -> Iterator[dict]:
    n = seq.n
    fc = FastCrystal(seq)
    walk = RskWalk(fc)
    # bijection: round trip and cardinality of the image
    if walk.failed is not None:
        yield _fail(fc.instance_json(walk.failed), "rsk_inverse . rsk_pair = id", "mismatch")
    count = sum(sum(character_weights(lam, n).values()) * len(group) for lam, group in _lr_rows(seq).items())
    if count != len(fc.elements):
        yield _fail({"rects": seq.to_json()}, f"image size {len(fc.elements)}", count)
    P, Q, p_tables = walk.p, walk.q, walk.p_tables
    # by p id, the ids of tableau_f(p, i) and tableau_reflection(p, i), read
    # off p's shape table (None when the image is no p of this instance)
    p_id = {pt: pid for pid, pt in enumerate(p_tables)}
    colors = [
        (
            fc.color(i),
            [p_id.get((t, t.f_map[i][k])) for t, k in p_tables],
            [p_id.get((t, t.reflect[i][k])) for t, k in p_tables],
        )
        for i in range(1, n)
    ]
    promotion = fc.promotion
    # pair promotion in two halves: the recording half, which reads only q
    # and the strip of letters n in p, once per (q, strip), giving the new
    # q's id and the added cells; the insertion half once per (p, added
    # cells), giving the new p's id.  A half that raises holds None.  The
    # insertion half repeats for under a quarter of the elements, but its memo
    # still paid: verify_rsk(4, 7) took 3.59 s with it and 3.71 s without
    # (medians of 3 alternating fresh-process runs, 2-vCPU VM, Python 3.11).
    recorded: dict = {}
    inserted: dict = {}
    for code, (pb, qb) in enumerate(zip(P, Q)):
        # equivariance under e_i, f_i, r_i for classical colors
        for i, ((sigs, f_img, e_img), f_p, r_p) in enumerate(colors, start=1):
            fel = f_img[code]
            if fel is not None and (Q[fel] != qb or P[fel] != f_p[pb]):
                yield _fail(fc.instance_json(fc.elements[code]), f"equivariance f_{i}", "mismatch")
            phi_, eps_, _, _ = sigs[code]
            rel = code
            for _ in range(phi_ - eps_):
                rel = f_img[rel]
            for _ in range(eps_ - phi_):
                rel = e_img[rel]
            if Q[rel] != qb or P[rel] != r_p[pb]:
                yield _fail(fc.instance_json(fc.elements[code]), f"equivariance r_{i}", "mismatch")
        # promotion computed on the pair alone agrees with the element route
        t, k = p_tables[pb]
        strip = t.strip[k]
        if (qb, strip) not in recorded:
            try:
                q_new, _, _, added = _promote_recording(walk.q_tableaux[qb], strip, seq)
                recorded[qb, strip] = (walk.q_ids.get(q_new.rows), added)
            except InconsistentPairError:
                recorded[qb, strip] = None
        promoted = recorded[qb, strip]
        if promoted is not None:
            new_q, added = promoted
            if (pb, added) not in inserted:
                try:
                    inserted[pb, added] = walk.p_ids.get(_promote_insertion(t.tableaux[k], added, n).rows)
                except InconsistentPairError:
                    inserted[pb, added] = None
            promoted = (inserted[pb, added], new_q)
        pc = promotion[code]
        if promoted != (P[pc], Q[pc]):
            yield _fail(fc.instance_json(fc.elements[code]), "pair promotion", "mismatch")


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
    sigma = [fs.code(table.sigma[a][b]) for a, b in fc.elements]  # by code
    images = [(fc.color(i), fs.color(i)) for i in range(n)]
    taus: dict[Tableau, Tableau] = {}  # tau of each recording tableau met
    for code, el in enumerate(fc.elements):
        sel = table.sigma[el[0]][el[1]]
        pb, psb = rsk_pair(fc.to_element(el)), rsk_pair(fs.to_element(sel))
        if psb.p != pb.p:
            yield _fail(fc.instance_json(el), "sigma keeps p", "mismatch")
        if pb.q not in taus:
            taus[pb.q] = _checked_tau(LRTableau(pb.q, seq), 1).tableau
        if psb.q != taus[pb.q]:
            yield _fail(fc.instance_json(el), "sigma acts as tau on q", "mismatch")
        if back.sigma[sel[0]][sel[1]] != el:
            yield _fail(fc.instance_json(el), "sigma involution", "mismatch")
        if back.energy[sel[0]][sel[1]] != table.energy[el[0]][el[1]]:
            yield _fail(fc.instance_json(el), "H' . sigma = H", "mismatch")
        for i, (fc_arrays, fs_arrays) in enumerate(images):
            for op, slot in (("e", 2), ("f", 1)):
                img = fc_arrays[slot][code]
                lhs = None if img is None else sigma[img]
                if lhs != fs_arrays[slot][sigma[code]]:
                    yield _fail(fc.instance_json(el), f"sigma {op}_{i} = {op}_{i} sigma", "mismatch")


def _check_yang_baxter(seq: RectSequence) -> Iterator[dict]:
    fc = FastCrystal(seq)
    for el in fc.elements:
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
    H = [table.energy[a][b] for a, b in fc.elements]  # by code
    # normalization at the stacked key element and the pair of keys
    y = tuple(t.index[seq.key_tableau(j).rows] for j, t in enumerate(fc.tables, start=1))
    root = fc.code(y)
    if H[root] != 0:
        yield _fail(fc.instance_json(y), "H(v_R) = 0", H[root])
    keys = tuple(t.index[key((mu,) * eta, n=n).rows] for t, (eta, mu) in zip(fc.tables, seq.rects))
    expected = min(seq.eta(1), seq.eta(2)) * min(seq.mu(1), seq.mu(2))
    if H[fc.code(keys)] != expected:
        yield _fail(fc.instance_json(keys), f"H(keys) = {expected}", H[fc.code(keys)])
    # axioms as a consistent propagation: classical edges keep H, zero edges
    # follow the three-way branch
    colors = [fc.color(i) for i in range(n)]
    assigned = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for code in frontier:
            for i, (_, f_img, e_img) in enumerate(colors):
                for op, images in (("e", e_img), ("f", f_img)):
                    img = images[code]
                    if img is None:
                        continue
                    if i == 0:
                        # (H2) pins the jump across the raising direction
                        if op == "e":
                            val = assigned[code] + _h2_jump(fc, table, fc.elements[code])
                        else:
                            val = assigned[code] - _h2_jump(fc, table, fc.elements[img])
                    else:
                        val = assigned[code]
                    if img in assigned:
                        if assigned[img] != val:
                            yield _fail(fc.instance_json(fc.elements[code]), "axiom propagation consistent", i)
                    else:
                        assigned[img] = val
                        nxt.append(img)
        frontier = nxt
    if len(assigned) != len(H):
        yield _fail({"rects": seq.to_json()}, "connected", f"{len(assigned)}/{len(H)}")
    for code, h in enumerate(H):
        if assigned.get(code) != h:
            yield _fail(fc.instance_json(fc.elements[code]), f"H = d(q) = {h}", assigned.get(code))
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
    energies = [fc.energy(el) for el in fc.elements]  # by code
    colors = [fc.color(i) for i in range(1, n)]
    for code, (el, en) in enumerate(zip(fc.elements, energies)):
        hw = True
        for i, (sigs, f_img, _) in enumerate(colors, start=1):
            hw = hw and sigs[code][1] == 0
            if f_img[code] is not None and energies[f_img[code]] != en:
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
    sigs, _, e_img = fc.color(0)
    for code, el in enumerate(fc.elements):
        _, eps_, _, k = sigs[code]
        if eps_ <= widest:
            continue
        # eps_0 > widest >= 1, so e_0 acts, at position k
        if k == 1:
            yield _fail(fc.instance_json(el), "acting position > 1", k)
            continue
        want, got = _level_sums(fc, el), _level_sums(fc, fc.elements[e_img[code]])
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
    for lam, group in _lrt_energies(seq).items():
        if lam[0] != M:
            continue
        for rows in group:
            t = Tableau._raw(rows, (), seq.n)
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
    for group in _lrt_energies(seq).values():
        for rows, en in group.items():
            t = Tableau._raw(rows, (), seq.n)
            ch = classical_charge(t)
            if en != ch:
                yield _fail(t.to_json(), f"charge {ch}", en)


def _charge_sequences(n_max: int, max_cells: int) -> list[RectSequence]:
    """One R of one-row rectangles per partition with 2..n_max parts and at
    most ``max_cells`` cells: charge needs partition content."""
    lams = (lam for k in range(2, max_cells + 1) for lam in partitions_of(k, n_max) if len(lam) > 1)
    return [RectSequence(tuple((1, mu) for mu in lam)) for lam in lams]


def verify_charge_energy(n_max: int, max_cells: int, jobs: int = 1) -> VerifyReport:
    seqs = _charge_sequences(n_max, max_cells)
    return _run_instances("charge-energy", [(seqs, _check_charge)], jobs)


# ---------------------------------------------------------------------------
# Suite: cocyclage realized by e_0.

def _check_cocyclage(seq: RectSequence) -> Iterator[dict]:
    n = seq.n
    M = max(seq.mu(j) for j in range(1, seq.m + 1))
    for lam, group in _lrt_energies(seq).items():
        for rows, energy in group.items():
            t = Tableau._raw(rows, (), n)
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
                    drop = energy - tableau_energy(LRTableau(got, seq))
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
    e_img = fc.color(0)[2]
    hits = 0
    for code, el in enumerate(fc.elements):
        if rsk_pair(fc.to_element(el)).q != src:
            continue
        if e_img[code] is None:
            continue
        hits += 1
        if rsk_pair(fc.to_element(fc.elements[e_img[code]])).q != dst:
            yield _fail(fc.instance_json(el), "lands in the wider component", "no")
        if energies[0] != energies[1]:
            yield _fail(fc.instance_json(el), "equal energy", energies)
    if hits != 5:
        yield _fail({"rects": seq.to_json()}, "five elements admit e_0", hits)


# ---------------------------------------------------------------------------
# Suite: the two expansion routes of the graded character.

def _check_characters(seq: RectSequence) -> Iterator[dict]:
    """Scan B^R and check against it the Kostka walk that graded_character
    reads, run on R's own order rather than the walk order of its multiset.

    The coefficient of s_lambda counted over sl_n highest weight elements of
    weight lambda, graded by energy, must equal K_{lambda;R}(q); and the
    expansion, weighted by the irreducible characters, must reproduce the
    weight-and-energy generating function of the whole crystal.
    """
    n = seq.n
    by_hw: dict[tuple[int, ...], dict[int, int]] = {}
    weight_sum: dict[tuple[tuple[int, ...], int], int] = {}
    fc = FastCrystal(seq)
    signatures = [fc.color(i)[0] for i in range(1, n)]
    for code, (el, wt) in enumerate(zip(fc.elements, fc.weights)):
        en = fc.energy(el)
        weight_sum[(wt, en)] = weight_sum.get((wt, en), 0) + 1
        if all(sigs[code][1] == 0 for sigs in signatures):
            counts = by_hw.setdefault(partition(wt), {})
            counts[en] = counts.get(en, 0) + 1
    hw_route = {lam: LaurentPolynomial(d) for lam, d in by_hw.items()}
    lr_route = {lam: LaurentPolynomial(c) for lam, c in _kostka_counts(seq).items()}
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
    for lam in _lrt_energies(seq):
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


# In-process cost of each check per element of B^R, in microseconds, once
# its tables and memos are built (a worker rebuilds them, which
# MIN_US_PER_WORKER pays for).  Measured on a 2-core box at the bounds
# (4, 6), (3, 7) and (5, 5), between which it varies by up to a factor of
# two.  The LR-walking checks walk no B^R, but their work grows with it.
US_PER_ELEMENT = {
    _check_crystal_axioms: 8,
    _check_rsk: 40,
    _check_rmatrix_pairs: 70,
    _check_yang_baxter: 8,
    _check_energy_two_factor: 10,
    _check_energy_general: 8,
    _check_energy_drop: 3,
    _check_three_rectangles: 0.5,
    _check_charge: 0.4,
    _check_cocyclage: 7,
    _check_characters: 8,
    _check_monotonicity_seq: 8,
}


def verify_all(n_max: int, max_cells: int, jobs: int = 1) -> list[VerifyReport]:
    reports = [fn(n_max, max_cells, jobs=jobs) for fn in SUITES.values()]
    for level in (1, 2):
        for n in range(2, min(n_max, 5) + 1):
            reports.append(verify_main_theorem(n, level, jobs=jobs))
    return reports
