"""Tests of the benchmark's own oracles and a smoke run of every workload.

    python3 -m pytest bench/test_bench.py
"""

import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import oracles as O

ROOT = Path(__file__).resolve().parent.parent


def e_series(n):
    """E_n: a path 1-2-...-(n-1) with vertex n attached to vertex 3."""
    edges = [(i, i + 1, -1, -1) for i in range(n - 2)] + [(2, n - 1, -1, -1)]
    return corpus.cartan(n, edges)


@pytest.mark.parametrize(
    "gcm, kind",
    [
        ([[2, -1], [-1, 2]], "Spherical"),
        ([[2, -2], [-1, 2]], "Spherical"),
        ([[2, -3], [-1, 2]], "Spherical"),
        ([[2, -2], [-2, 2]], "Affine"),
        ([[2, -4], [-1, 2]], "Affine"),
        ([[2, -3], [-3, 2]], "Indefinite"),
        (e_series(8), "Spherical"),
        (e_series(9), "Affine"),
        (e_series(10), "Indefinite"),
        (corpus.wide_type("D~", 12), "Affine"),
        (corpus.wide_type("C", 11), "Spherical"),
        ([[2, 0], [0, 2]], "Spherical"),
        ([[2, 0, 0], [0, 2, -2], [0, -2, 2]], "Indefinite"),
    ],
)
def test_inertia_classifier(gcm, kind):
    assert O.classify_kind(gcm) == kind


def test_random_family_is_symmetrizable_and_two_spherical():
    rng = random.Random(0)
    for d in (2, 3, 4, 5, 6):
        for _ in range(20):
            gcm = corpus.random_symmetrizable(rng, d, 0.7)
            assert O.symmetrizer(gcm) is not None
            cls = O.classification(gcm)
            assert cls["indecomposable"] and cls["two_spherical"] and cls["M"] <= 3


def test_critical_order_closed_forms():
    assert O.n_of_A(2, 1) == 4
    assert O.n_of_A(2, 2) == 48
    assert O.n_of_A(2, 3) == 12320768
    assert O.n_of_A(4, 1) == 36


@pytest.mark.parametrize(
    "spec, m",
    [("Z/35", 5), ("Z/2", 2), ("Zloc!4", 5), ("Zi!1", 2), ("Zi!2", 5), ("Zi!6", 13), ("poly(Z/7)", 7), ("poly(Zi!2)", 5)],
)
def test_min_ideal_index(spec, m):
    assert O.min_ideal_index(O.parse_ring(spec)) == m


def test_units():
    assert O.is_unit(O.parse_ring("Z/35"), 2) and not O.is_unit(O.parse_ring("Z/10"), 2)
    assert O.is_unit(O.parse_ring("poly(Zloc!3)"), 3) and not O.is_unit(O.parse_ring("Zi!2"), 3)


def test_compare_s_exact_and_against_floats():
    assert O.compare_s(4, 1, Fraction(1, 2)) == 0  # s_1(4) = 1/2
    assert O.compare_s(5, 1, Fraction(1, 2)) == -1
    assert O.compare_s(3, 1, Fraction(1, 2)) == 1
    assert O.compare_s(5, 0, 0) == 0
    rng = random.Random(1)
    for _ in range(300):
        m, i = rng.randrange(2, 10**6), rng.choice((1, 2, 4))
        t = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        s = O.s_float(m, i)
        if abs(s - t) > 1e-9:
            assert O.compare_s(m, i, t) == (1 if s > t else -1)


def test_real_root_test():
    a2 = [[2, -1], [-1, 2]]
    assert O.is_real_root(a2, (1, 1)) and O.is_real_root(a2, (-1, -1))
    assert not O.is_real_root(a2, (2, 1)) and not O.is_real_root(a2, (1, -1))
    aff = [[2, -2], [-2, 2]]
    assert O.is_real_root(aff, (2, 1)) and O.is_real_root(aff, (3, 2))
    assert not O.is_real_root(aff, (1, 1))  # delta is imaginary
    assert O.count_roots(a2, 10, 100) == 6
    assert O.count_roots(aff, 3, 100) == 8  # +-a1, +-a2, +-(2,1), +-(1,2)


def test_group_orders():
    assert [O.unitriangular_order(q) for q in (2, 3, 5)] == [8, 27, 125]
    assert O.sl3_order(2) == 168 and O.sl3_order(3) == 5616


def test_shear_rows_are_binomial_and_additive():
    assert O.shear_rows(4, 1, True, 101)[0] == (1, 3, 3, 1)
    assert O.shear_rows(4, 2, False, 101)[3] == (8, 12, 6, 1)
    rows = O._rows_mul(O.shear_rows(5, 2, True, 7), O.shear_rows(5, 3, True, 7), 7)
    assert rows == O.shear_rows(5, 5, True, 7)


def test_transport_oracle_holds_and_catches_a_wrong_target(monkeypatch):
    assert O.transport_subsample(7, random.Random(2), 30) == []
    wrong = dict(O.TRANSPORT_FACTS)
    wrong["uplust_B_minus_S_to_A4o"] = ("BminusS", [(True, 1, 1, "A1_strict")])
    monkeypatch.setattr(O, "TRANSPORT_FACTS", wrong)
    assert O.transport_subsample(7, random.Random(2), 30)


def _certify_payload(tmp_path, gcm, ring):
    sys.path.insert(0, str(ROOT / "src"))
    from kmcert import cli

    path = tmp_path / "m.gcm"
    path.write_text(corpus.gcm_text(gcm, "test"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["certify", "--gcm", str(path), "--ring", ring])
    return json.loads(out.getvalue()), code


@pytest.mark.parametrize(
    "gcm, ring",
    [
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "Z/53"),
        ([[2, -3], [-1, 2]], "Zloc!5"),
        (corpus.wide_type("B~", 5), "poly(Z/10007)"),
        ([[2, -2, -1], [-1, 2, -1], [-1, -2, 2]], "Z/4"),
    ],
)
def test_certify_oracle_accepts_kmcert_and_rejects_corruption(tmp_path, gcm, ring):
    payload, code = _certify_payload(tmp_path, gcm, ring)
    assert O.check_certificate(gcm, ring, payload, code) == []
    bad = json.loads(json.dumps(payload))
    bad["verdict"] = "certified" if payload["verdict"] != "certified" else "failed"
    assert O.check_certificate(gcm, ring, bad, code)
    bad = json.loads(json.dumps(payload))
    bad["gcm"]["kind"] = "Affine" if payload["gcm"]["kind"] != "Affine" else "Spherical"
    assert O.check_certificate(gcm, ring, bad, code)
    if payload["bound_report"]:
        bad = json.loads(json.dumps(payload))
        bad["bound_report"]["pairs"][-1]["bound"] += 1e-6
        assert O.check_certificate(gcm, ring, bad, code)


def test_promised_tried_counts():
    assert O.chevalley_tried("G2", 3)["g2_quotient_a_plus_3b_central"] == 20
    assert O.chevalley_tried("G2", 5)["dictionary_verified_exhaustively"] == 3125
    assert O.chevalley_tried("B2", 5)["inverses_exhaustive"] == 625
    assert O.chevalley_tried("G2", 4)["inverses_random"] == 1000


@pytest.mark.parametrize("workload", ["certify", "rank2", "transport"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
