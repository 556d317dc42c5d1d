"""Acceptance gate: one test per shipped guarantee, eleven in total.

Run with -v to get a single pass/fail row per criterion; each test also
prints a "[criterion N] PASS/FAIL" line with its measured runtime.  All
numeric slack is pinned to TOL below; everything else is exact integer
or Fraction arithmetic.  Criteria with a runtime budget assert it.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import sympy

import kmcert.bounds as bd
import kmcert.chevalley as ch
import kmcert.gcm as gc
import kmcert.roots as rt
import kmcert.sigma as sg
import kmcert.symrep as sr
from kmcert.errors import OppositePair

from conftest import (
    A1,
    A1XA1,
    A2,
    A3,
    AFF_A1,
    AFF_A2,
    B2,
    B2_LONG_FIRST,
    D4_STAR,
    G2,
    IND3,
    NOT_2SPH,
    SIGMA_CATALOGUE,
)

TOL = 1e-12


def _verdict(n, problems, detail, t0, budget=None):
    dt = time.monotonic() - t0
    if budget is not None and dt > budget:
        problems.append(f"runtime {dt:.2f}s exceeds budget {budget:.0f}s")
    status = "PASS" if not problems else "FAIL"
    used = "" if budget is None else f", {100 * dt / budget:.0f} % of {budget:g}s"
    print(f"[criterion {n}] {status} - {detail} ({dt:.2f}s{used})")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


# -------------------------------------------------- 1: classification ---


def test_criterion_01_classification_table():
    t0 = time.monotonic()
    problems = []
    # name, matrix, kind, indecomposable, two_spherical, M, nA
    table = [
        ("A1", A1, gc.SPHERICAL, True, True, 0, None),
        ("A2", A2, gc.SPHERICAL, True, True, 1, 4),
        ("B2", B2, gc.SPHERICAL, True, True, 2, 48),
        ("B2'", B2_LONG_FIRST, gc.SPHERICAL, True, True, 2, 48),
        ("G2", G2, gc.SPHERICAL, True, True, 3, 12320768),
        ("A3", A3, gc.SPHERICAL, True, True, 1, 16),
        ("D4*", D4_STAR, gc.SPHERICAL, True, True, 1, 36),
        ("affA1", AFF_A1, gc.AFFINE, True, False, 2, None),
        ("affA2", AFF_A2, gc.AFFINE, True, True, 1, 16),
        ("ind3", IND3, gc.INDEFINITE, True, True, 2, 768),
        ("not2sph", NOT_2SPH, gc.INDEFINITE, True, False, 3, None),
        ("A1xA1", A1XA1, gc.SPHERICAL, False, True, 0, None),
    ]
    for name, mat, kind, ind, two_sph, M, nA in table:
        c = gc.classify(mat)
        got = (c.kind, c.indecomposable, c.two_spherical, c.M, c.nA)
        want = (kind, ind, two_sph, M, nA)
        if got != want:
            problems.append(f"{name}: {got} != {want}")
    _verdict(1, problems, f"{len(table)} matrices classified exactly", t0, budget=1.0)


# ------------------------------------------------- 2: order threshold ---


def test_criterion_02_critical_order_exact():
    t0 = time.monotonic()
    problems = []
    pinned = [((2, 1), 4), ((2, 2), 48), ((2, 3), 12320768), ((3, 1), 16), ((4, 1), 36)]
    for (d, M), want in pinned:
        if gc.critical_order(d, M) != want:
            problems.append(f"n(d={d}, M={M}) = {gc.critical_order(d, M)} != {want}")
    for d in range(2, 11):
        b = 2 * d - 2
        for M, want in ((1, b**2), (2, 3 * b**4), (3, 188 * b**16)):
            if gc.critical_order(d, M) != want:
                problems.append(f"formula mismatch at d={d}, M={M}")
    if gc.classify(G2).nA != gc.critical_order(2, 3):
        problems.append("classify(G2) disagrees with critical_order")
    _verdict(2, problems, "n(A) exact on pinned values and closed forms", t0)


# ----------------------------------------------------- 3: root slices ---


def test_criterion_03_root_slice_counts():
    t0 = time.monotonic()
    problems = []
    for mat, want in ((A2, 6), (B2, 8), (G2, 12)):
        got = len(rt.enumerate_real_roots(mat, 10))
        if got != want:
            problems.append(f"count {got} != {want}")
    # affine rank 2: the slice is exactly the |m - n| = 1 lattice strip
    for cap in (7, 10):
        got = set(rt.enumerate_real_roots(AFF_A1, cap).entries)
        want = {
            (m, n)
            for m in range(-cap, cap + 1)
            for n in range(-cap, cap + 1)
            if abs(m - n) == 1
            and 0 < abs(m) + abs(n) <= cap
            and ((m >= 0 and n >= 0) or (m <= 0 and n <= 0))
        }
        if got != want:
            problems.append(f"affine slice wrong at cap {cap}")
    _verdict(3, problems, "counts 6/8/12 and affine closed form", t0)


# --------------------------------------------------- 4: prenilpotency ---


def _nspan_count(slice_, a, b):
    cap = slice_.cap
    count = 0
    for i in range(cap + 1):
        for j in range(cap + 1):
            if i + j == 0:
                continue
            if tuple(i * x + j * y for x, y in zip(a, b)) in slice_.entries:
                count += 1
    return count


def test_criterion_04_prenilpotency_probe():
    """Pairing criterion vs brute-force span growth, every pair, 4 types.

    Tripling the cap decides finiteness exactly: an infinite N-span here
    always contains a member with i + j <= 3, of height at most 3x the
    base cap, while finite spans close far below the base cap.
    """
    t0 = time.monotonic()
    problems = []
    pairs = 0
    for mat in (A2, B2, G2, AFF_A1):
        small = rt.enumerate_real_roots(mat, 10)
        big = rt.enumerate_real_roots(mat, 30)
        entries = sorted(small.entries.values(), key=lambda e: e.root)
        for ea, eb in itertools.combinations(entries, 2):
            if tuple(-c for c in ea.root) == eb.root:
                continue
            pairs += 1
            verdict = rt.is_prenilpotent(mat, ea, eb)
            stabilizes = _nspan_count(small, ea.root, eb.root) == _nspan_count(
                big, ea.root, eb.root
            )
            if verdict != stabilizes:
                problems.append(f"disagree on {ea.root}, {eb.root}")
    _verdict(4, problems, f"probe agrees on all {pairs} pairs", t0)


# ------------------------------------------------ 5: Sigma certified ---


def test_criterion_05_sigma_certificates():
    t0 = time.monotonic()
    problems = []
    kinds = {sg.RANK_TWO_EMBED: 0, sg.COMMUTE: 0}
    for name, mat in SIGMA_CATALOGUE.items():
        sigma = sg.build_sigma(mat)
        if sigma.size >= 2 * len(mat):
            problems.append(f"{name}: |Sigma| = {sigma.size} not < 2d")
        slice_ = rt.enumerate_real_roots(mat, sg.required_cap(sigma))
        certs = sg.certify_pairs(sigma, slice_)
        if len(certs) != sigma.size * (sigma.size - 1) // 2:
            problems.append(f"{name}: {len(certs)} certificates, pair count off")
        for cert in certs:
            kinds[cert.kind] += 1
            try:
                if not sg.verify_certificate(mat, slice_, cert):
                    problems.append(f"{name}: verifier rejected {cert.kind}")
            except Exception as exc:  # noqa: BLE001  - any failure is a finding
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
    detail = (
        f"{len(SIGMA_CATALOGUE)} matrices, 100% certified "
        f"({kinds[sg.RANK_TWO_EMBED]} embed, {kinds[sg.COMMUTE]} commute)"
    )
    _verdict(5, problems, detail, t0, budget=10.0)


# --------------------------------------------------- 6: bound windows ---


def test_criterion_06_bound_envelopes():
    """s_2 < (3/m)^{1/4} and s_4 < (188/m)^{1/16} on all of [2, 10^6],
    and the type-worst bound at m = n(A) clears 1/(2d - 2) for d <= 10.
    """
    t0 = time.monotonic()
    problems = []
    m = np.arange(2, 10**6 + 1, dtype=np.float64)
    s = np.zeros_like(m)
    levels = {}
    for i in range(1, 5):
        s = np.sqrt(s + 1.0 / m)
        levels[i] = s
    bad2 = int(np.sum(levels[2] > (3.0 / m) ** 0.25 + TOL))
    bad4 = int(np.sum(levels[4] > (188.0 / m) ** (1.0 / 16.0) + TOL))
    if bad2 or bad4:
        problems.append(f"envelope violations: s2 {bad2}, s4 {bad4}")
    # tie the vectorized scan to the reference implementation
    for probe in (2, 53, 999983, 10**6):
        for i in (2, 4):
            if abs(levels[i][probe - 2] - bd.s_sequence(probe, i)) > TOL:
                problems.append(f"scan drifts from s_{i}({probe})")
    # worst rank-2 bound at the critical order, exact comparison: equality
    # at M = 1 (s_1((2d-2)^2) is exactly 1/(2d-2)), strict below otherwise
    for M, typ, level in ((1, bd.A2_TYPE, 1), (2, bd.B2_TYPE, 2), (3, bd.G2_TYPE, 4)):
        for d in range(2, 11):
            n = gc.critical_order(d, M)
            cmp = bd.compare_s_to(n, level, Fraction(1, 2 * d - 2))
            want = 0 if M == 1 else -1
            if cmp != want:
                problems.append(f"exact sign {cmp} != {want} at d={d}, M={M}")
            if bd.orth_bound(typ, n) > 1.0 / (2 * d - 2) + TOL:
                problems.append(f"orth_bound over threshold at d={d}, M={M}")
    _verdict(6, problems, "envelopes hold on [2, 1e6]; thresholds met to d=10", t0, budget=30.0)


# -------------------------------------------------- 7: ring verdicts ---


def test_criterion_07_ring_verdicts():
    t0 = time.monotonic()
    problems = []

    def run(mat, spec):
        return bd.certify_property_T(mat, bd.parse_ring_spec(spec))

    c = run(A2, "Z/5")
    if not (c.verdict == "certified" and c.m == 5):
        problems.append(f"(A2, Z/5): {c.verdict}, m={c.m}")
    c = run(B2, "Z/5")
    if c.verdict != "failed":
        problems.append(f"(B2, Z/5): {c.verdict}")
    if any(p for n, p, _ in c.hypotheses if n == "min_ideal_index"):
        problems.append("(B2, Z/5): m = 5 < 48 not flagged")
    c = run(B2, "Z/53")
    max_bound = c.report.as_dict()["max_bound"]
    if not (c.verdict == "certified" and max_bound < 0.5):
        problems.append(f"(B2, Z/53): {c.verdict}, max bound {max_bound}")
    if abs(max_bound - bd.s_sequence(53, 2)) > TOL:
        problems.append("(B2, Z/53): max bound is not s_2(53)")
    c = run(A2, "poly(Zloc!4)")
    if not (c.verdict == "certified" and c.m == 5):
        problems.append(f"(A2, poly(Zloc!4)): {c.verdict}, m={c.m}")
    _verdict(7, problems, "verdicts exact on the four pinned ring cases", t0)


# ------------------------------------------------ 8: unipotent engines ---


def test_criterion_08_unipotent_engines():
    t0 = time.monotonic()
    problems = []
    rng = random.Random(0)
    for typ in ("A2", "B2", "G2"):
        eng = ch.UnipotentEngine(typ, 7)
        n = len(eng.roots)
        ident = eng.identity().coeffs
        for _ in range(10**4):
            g, h, k = (
                eng.element([rng.randrange(7) for _ in range(n)]) for _ in range(3)
            )
            if ((g * h) * k).coeffs != (g * (h * k)).coeffs:
                problems.append(f"{typ}: associativity broke")
                break
            if (g * eng.inverse(g)).coeffs != ident:
                problems.append(f"{typ}: inverse broke")
                break
    for typ, q, want in (("A2", 3, 27), ("A2", 5, 125), ("B2", 3, 81), ("B2", 5, 625), ("G2", 5, 15625)):
        rep = ch.unipotent_closure_report(typ, q)
        if not (rep.ok and rep.data["order"] == want):
            problems.append(f"closure {typ}/{q}: {rep.data['order']} != {want}")
    for rep in (ch.heis_iso_report(3), ch.sp4_regression_report(5)):
        if not rep.ok:
            problems.append(f"{rep.name} failed")
    _verdict(8, problems, "3x10^4 triples, 5 closures, Heis and Sp4 locks", t0, budget=120.0)


# ---------------------------------------------- 9: generation orders ---


def test_criterion_09_sigma_generation_orders():
    t0 = time.monotonic()
    problems = []
    for group, q, want in (("sl3", 2, 168), ("sl3", 5, 372000), ("sp4", 3, 51840)):
        rep = ch.sigma_generation_report(group, q)
        if not (rep.ok and rep.data["order"] == want):
            problems.append(f"{group}/{q}: order {rep.data['order']} != {want}")
    _verdict(9, problems, "orders 168, 372000, 51840 reached exactly", t0, budget=300.0)


# ------------------------------------------------ 10: affine letters ---


def test_criterion_10_affine_relation_probe():
    t0 = time.monotonic()
    problems = []
    rep = ch.affine_pi_check(3, 5, 6)
    tried = {c["name"]: (c["tried"], c["failed"]) for c in rep.checks}
    want = {
        "r1_additivity": (150, 0),
        "r2_commutators_match_law": (600, 0),
        "gcm_prenilpotency_agrees_with_law": (30, 0),
    }
    if not rep.ok:
        problems.append("affine probe reported failures")
    if tried != want:
        problems.append(f"check counts {tried} != {want}")
    if rep.data.get("skipped_opposite_pairs") != 6:
        problems.append("opposite-pair bookkeeping changed")
    _verdict(10, problems, "d=3, q=5, window 6: zero failures", t0)


# ------------------------------------------ 11: symmetric power suite ---


def test_criterion_11_symmetric_power_suite():
    t0 = time.monotonic()
    problems = []
    # symbolic shear rows, n = 4
    s = sympy.Symbol("s")
    want = (
        (1, 3 * s, 3 * s**2, s**3),
        (0, 1, 2 * s, s**2),
        (0, 0, 1, s),
        (0, 0, 0, 1),
    )
    got = sr.shear_rows(4, s)
    if any(
        sympy.expand(g - w) != 0 for gr, wr in zip(got, want) for g, w in zip(gr, wr)
    ):
        problems.append("symbolic shear rows drifted")
    for n in range(2, 7):
        rep = sr.symrep_report(n, 7)
        if not rep.ok:
            problems.append(f"symrep_report({n}, 7) failed")
    rep = ch.claim_a9_check(5)
    if not (rep.ok and rep.data["quotient_order"] == 625):
        problems.append("quotient comparison failed")
    rep = ch.g2_v4_conjugation_check(5)
    if not (rep.ok and rep.data["dictionary"]["matches"] == 16):
        problems.append("conjugation dictionary failed")
    for q in (5, 35):
        rep = sr.check_transport(q, 10**5, 0)
        # the clash check runs once per sampled B-vector: 2 x samples tries
        bad = [
            c["name"]
            for c in rep.checks
            if c["failed"]
            or (c["tried"] != 10**5 and c["name"] != "s_conditions_never_simultaneous")
        ]
        if bad or not rep.ok:
            problems.append(f"transport q={q}: {bad or 'not ok'}")
    rep = sr.ledger_check()
    if not (rep.ok and rep.data["coefficients"]["total"] == 22):
        problems.append("coefficient ledger failed")
    if Fraction(1, 22) * 22 != 1:
        problems.append("mass normalization off")
    _verdict(11, problems, "shears, quotients, transport 2x10^5, ledger", t0, budget=120.0)
