"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line; the exhaustive bounds and the
runtime targets are fixed here and match the statements being verified.
"""

import time

from rectcrys.affine import e0, pair_promote, promote
from rectcrys.crystal import e, signature, young_w0
from rectcrys.energy import energy_terms, total_energy
from rectcrys.rmatrix import sigma_swap
from rectcrys.rsk import rsk_pair
from rectcrys.verify import (
    verify_charge_energy,
    verify_characters,
    verify_cocyclage,
    verify_crystal_axioms,
    verify_energy,
    verify_main_theorem,
    verify_monotonicity,
    verify_rmatrix,
    verify_rsk,
)
from conftest import canonical


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}: {detail}"


def report_suite(name: str, rep, limit_ms: int | None = None) -> None:
    ok = rep.ok and (limit_ms is None or rep.elapsed_ms <= limit_ms)
    detail = f"{rep.instances} instances, {rep.elapsed_ms} ms"
    if rep.failures:
        detail += f"; first failure: {rep.failures[0]}"
    report(name, ok, detail)


def test_criterion_1_golden_example(golden, golden_seq, golden_b):
    start = time.monotonic()
    checks = []

    prb = promote(golden_b)
    checks.append(canonical(prb.to_json()["factors"]) == canonical(golden["pr_b"]))

    sig = signature(prb, 1)
    checks.append([p for p, _ in sig.reduced] == golden["signature_e1_pr"]["positions"])
    checks.append("".join(s for _, s in sig.reduced) == golden["signature_e1_pr"]["signs"])

    e1prb = e(prb, 1)
    checks.append(canonical(e1prb.to_json()["factors"]) == canonical(golden["e1_pr_b"]))

    e0b = e0(golden_b)
    checks.append(canonical(e0b.to_json()["factors"]) == canonical(golden["e0_b"]))

    pair = rsk_pair(golden_b)
    checks.append(canonical(pair.p.to_json()) == canonical(golden["p"]))
    checks.append(canonical(pair.q.to_json()) == canonical(golden["q"]))

    newpair, trace = pair_promote(pair, golden_seq)
    checks.append(canonical(newpair.q.to_json()) == canonical(golden["q_pr"]))
    checks.append(canonical(newpair.p.to_json()) == canonical(golden["p_pr"]))
    checks.append(
        canonical([list(c) for c in trace.removed_strip]) == canonical(golden["removed_strip"])
    )
    checks.append(canonical(list(trace.ejected)) == canonical(golden["ejected"]))
    checks.append(
        canonical(trace.intermediate.to_json()) == canonical(golden["intermediate"])
    )
    checks.append(
        canonical(young_w0(trace.intermediate, golden_seq).to_json())
        == canonical(golden["w0_intermediate"])
    )
    checks.append(
        canonical([list(c) for c in trace.added_strip]) == canonical(golden["added_strip"])
    )

    checks.append(
        canonical(rsk_pair(e1prb).p.to_json()) == canonical(golden["p_e1_pr"])
    )
    pair_e0 = rsk_pair(e0b)
    checks.append(canonical(pair_e0.q.to_json()) == canonical(golden["q_e0"]))
    checks.append(canonical(pair_e0.p.to_json()) == canonical(golden["p_e0"]))

    tau2 = sigma_swap(golden_b, 2)
    checks.append(canonical(tau2.seq.to_json()) == canonical(golden["tau2_rects"]))
    checks.append(canonical(tau2.to_json()["factors"]) == canonical(golden["tau2_b"]))

    terms = energy_terms(golden_b)
    checks.append([v for _, _, v in terms] == golden["energy_terms"])
    checks.append(total_energy(golden_b) == golden["energy"])

    elapsed = time.monotonic() - start
    report(
        "criterion 1: golden seven-letter example",
        all(checks) and elapsed < 1.0,
        f"{sum(checks)}/{len(checks)} byte-exact checks, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_crystal_axioms():
    rep = verify_crystal_axioms(4, 8)
    report_suite("criterion 2: crystal axioms, n<=4, <=8 cells", rep, limit_ms=120_000)


def test_criterion_3_rsk():
    rep = verify_rsk(4, 8)
    report_suite("criterion 3: RSK equivariance and bijectivity", rep)


def test_criterion_4_rmatrix():
    rep = verify_rmatrix(4, 8)
    report_suite("criterion 4: switch isomorphisms and Yang-Baxter", rep)


def test_criterion_5_energy():
    rep = verify_energy(4, 8)
    charge = verify_charge_energy(4, 7)
    rep.instances += charge.instances
    rep.failures.extend(charge.failures)
    rep.elapsed_ms += charge.elapsed_ms
    report_suite("criterion 5: energy axioms and charge agreement", rep)


def test_criterion_6_cocyclage():
    rep = verify_cocyclage(4, 7)
    report_suite("criterion 6: cocyclage realized by the zero operator", rep)


def test_criterion_7_main_theorem():
    start = time.monotonic()
    failures = []
    count = 0
    cases = [(n, level) for n in (2, 3, 4, 5) for level in (1, 2)] + [(6, 2)]
    for n, level in cases:
        rep = verify_main_theorem(n, level)
        count += rep.instances
        failures.extend(rep.failures)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    ok = not failures and elapsed_ms <= 300_000
    detail = f"{count} (n, level, mu) instances, {elapsed_ms} ms"
    if failures:
        detail += f"; first failure: {failures[0]}"
    report("criterion 7: Demazure character matches the graded crystal character", ok, detail)


def test_criterion_8_monotonicity():
    rep = verify_monotonicity(3, 6)
    report_suite("criterion 8: monotonicity under adding a rectangle", rep)


def test_criterion_9_character_routes():
    rep = verify_characters(4, 8)
    report_suite("criterion 9: both graded character expansions agree", rep)
