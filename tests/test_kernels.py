"""Oracles for the compiled arithmetic kernels.

`polylaw.compile_law` turns law rows into straight-line Python taking each
operand as its own tuple; it is checked against a plain loop over the rows
at the concatenated operands (kept here as the reference), and a chained
product law against the engine's products taken one at a time.
`chevalley._loop_mul` multiplies loop-group matrices stored as offsets from
the identity, one flat dict {(row, column, degree): coefficient}:
(I + a)(I + b) = I + (a + b + ab).  On full matrices of Laurent scalars
converted to offsets it is checked against a triple loop, its products must
be canonical (every coefficient in 1..q-1), and `affine_pi_check` must
notice a product that loses a cell.
"""

import copy
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmcert import chevalley as ch
from kmcert.errors import SoundnessCheckFailed
from kmcert.polylaw import BINARY, UNARY, compile_law, mat_mul

from conftest import lp_add, lp_canon

SRC = Path(__file__).resolve().parent.parent / "src"


def evaluate(rows, vals, q):
    """The coordinates of `law_rows` at the integer values vals, reduced mod q."""
    out = []
    for row in rows:
        s = 0
        for m, c in row:
            for i in m:
                c *= vals[i]
            s += c
        out.append(s % q)
    return tuple(out)


# ------------------------------------------------------------ product laws ---

ENGINES = [
    pytest.param(ch.A2, None, id="A2"),
    pytest.param(ch.B2, None, id="B2"),
    pytest.param(ch.G2, None, id="G2"),
    pytest.param(ch.G2, {5}, id="G2-mod-2a+3b"),
    pytest.param(ch.G2, {4, 5}, id="G2-mod-a+3b,2a+3b"),
]


@pytest.mark.parametrize("typ, killed", ENGINES)
@pytest.mark.parametrize("q", [2, 3, 5, 7, 25, 101])
def test_compiled_laws_match_plain_evaluation(typ, killed, q):
    eng = ch.QuotientEngine(typ, q, killed) if killed else ch.UnipotentEngine(typ, q)
    rng = random.Random(f"compile:{typ}:{killed}:{q}")
    n = len(eng.roots)
    for inverse, chain in ((False, BINARY), (True, UNARY)):
        rows = eng.derive_law(inverse=inverse)
        law = compile_law(rows, chain)
        for k in range(200):
            # reduced values as the engine passes them, then unreduced ones
            lo, hi = (0, q) if k % 2 else (-3 * q, 3 * q)
            ops = [tuple(rng.randrange(lo, hi) for _ in range(n)) for _ in range(chain[0])]
            assert law(*ops, q) == evaluate(rows, sum(ops, ()), q)
    # the product law chained into both bracketings of a triple, as
    # chevalley_report compiles it from the reduced rows
    assoc = eng._compile(False, ch._ASSOCIATIVITY)
    for k in range(200):
        lo, hi = (0, q) if k % 2 else (-3 * q, 3 * q)
        g, h, x = (tuple(rng.randrange(lo, hi) for _ in range(n)) for _ in range(3))
        assert assoc(g, h, x, q) == (eng.mul(eng.mul(g, h), x), eng.mul(g, eng.mul(h, x)))


def test_compile_law_edge_rows():
    rows = ((), (((), 3),), (((0, 0, 1), 1), ((1,), -2)))
    law = compile_law(rows, UNARY)
    assert law((4, 5, 6), 7) == (0, 3, (16 * 5 - 10) % 7)
    law = compile_law(rows, UNARY, reduce=False)
    assert law((4, 5, 6), 7) == (0, 3, 16 * 5 - 10)
    # each operand has exactly len(rows) coordinates
    for v in ((4, 5), (4, 5, 6, 7)):
        with pytest.raises(ValueError):
            law(v, 7)
    # a binary step reads coordinate i % 3 of operand i // 3
    law = compile_law(((((0, 3), 1),), (((1, 5), 2),), (((2,), 1), ((4,), 1))), BINARY)
    assert law((1, 2, 3), (4, 5, 6), 100) == (4, 24, 8)
    # f(x) = (0, 3, x_0^2 x_2 - 2 x_1) chained as f(f(x)); a result may be any operand
    chain = (1, ((0,), (1,)), (2, 1, 0))
    law = compile_law(((), (((), 3),), (((0, 0, 2), 1), ((1,), -2))), chain=chain)
    assert law((4, 5, 6), 7) == ((0, 3, 1), (0, 3, 2), (4, 5, 6))


@pytest.mark.parametrize(
    "rows",
    [
        ((((0,), 1.5),),),
        ((((0,), True),),),
        ((((0,), "1"),),),
        (((("0",), 1),),),
        ((((-1,), 1),),),
        ((((0, 1.0), 1),),),
    ],
)
def test_compile_law_refuses_non_integer_terms(rows):
    with pytest.raises(SoundnessCheckFailed):
        compile_law(rows, UNARY)
    with pytest.raises(SoundnessCheckFailed):
        compile_law(rows, ch._ASSOCIATIVITY)


@pytest.mark.parametrize(
    "chain",
    [
        (3, ((0, 3),), (3,)),
        (3, ((0, 1),), (4,)),
        (3, ((0, -1),), (3,)),
        (3, ((0, "1"),), (3,)),
        (3.0, ((0, 1),), (3,)),
        (2, ((0, True),), (2,)),
    ],
)
def test_compile_law_refuses_chains_not_made_of_earlier_operands(chain):
    with pytest.raises(SoundnessCheckFailed):
        compile_law(((((0,), 1),),), chain=chain)


@pytest.mark.parametrize(
    "rows, chain",
    [
        (((((1,), 1),),), UNARY),
        (((((0, 2), 1),),), BINARY),
        (((((2,), 1),), (((1,), 1),)), UNARY),
        (((((4,), 1),), (((0,), 1),)), ch._ASSOCIATIVITY),
        # index 3 is in a binary step's operands, not in a unary step's
        (((((0,), 1), ((3,), 1)), (((1,), 1),)), (2, ((0, 1), (2,)), (3,))),
    ],
)
def test_compile_law_refuses_indices_outside_the_operands(rows, chain):
    # index >= len(step) * len(rows) names no coordinate of the step's operands
    with pytest.raises(SoundnessCheckFailed, match="law index"):
        compile_law(rows, chain)


def test_compile_law_refuses_a_law_with_no_rows():
    # with no coordinates the unpacking line would read ", = x0"
    for chain in (UNARY, BINARY, ch._ASSOCIATIVITY):
        with pytest.raises(SoundnessCheckFailed, match="no rows"):
            compile_law((), chain)
    # the product of two 0 x 0 matrices is such a law
    with pytest.raises(SoundnessCheckFailed, match="no rows"):
        mat_mul((), (), 0, 5)


def test_compile_law_refusal_survives_python_O():
    script = (
        "from kmcert.polylaw import UNARY, compile_law\n"
        "from kmcert.errors import SoundnessCheckFailed\n"
        "try:\n"
        "    compile_law(((((0,), '__import__(\"os\")'),),), UNARY)\n"
        "except SoundnessCheckFailed:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "rejected\n"


# ---------------------------------------------------- loop-group matrices ---


def _canon(m, q):
    """m with every scalar reduced mod q and the zero cells dropped."""
    return {pos: lp_canon(p, q) for pos, p in m.items() if lp_canon(p, q)}


def _shift_diagonal(m, d, q, c):
    """m with c added to every diagonal entry and the zero cells dropped."""
    out = dict(m)
    for k in range(1, d + 1):
        out[(k, k)] = lp_add(q, m.get((k, k), {}), {0: c})
    return {pos: p for pos, p in out.items() if p}


def offset(m, d, q):
    """The stored form of a full canonical matrix m of scalars: M - I as one
    flat dict {(row, column, degree): coefficient}."""
    return {
        (i, j, deg): c
        for (i, j), p in _shift_diagonal(m, d, q, -1).items()
        for deg, c in p.items()
    }


def full(a, d, q):
    """The full matrix I + a of scalars for a stored offset a."""
    m = {}
    for (i, j, deg), c in a.items():
        m.setdefault((i, j), {})[deg] = c
    return _shift_diagonal(m, d, q, 1)


@st.composite
def _laurent_pairs(draw):
    d = draw(st.integers(2, 4))
    q = draw(st.sampled_from((2, 3, 5, 7, 16, 35)))
    cell = st.tuples(st.integers(1, d), st.integers(1, d))
    poly = st.dictionaries(st.integers(-2, 2), st.integers(-q, 2 * q), max_size=3)

    def matrix():
        # full matrices, diagonal cells included
        if draw(st.booleans()):
            # elementary: identity diagonal plus one off-diagonal cell, the
            # shape of the affine images
            i, j = draw(cell.filter(lambda ij: ij[0] != ij[1]))
            p = draw(poly)
            return _canon({**{(k, k): {0: 1} for k in range(1, d + 1)}, (i, j): p}, q)
        return _canon(draw(st.dictionaries(cell, poly, max_size=d * d)), q)

    return d, q, matrix(), matrix()


def _triple_loop(x, y, d, q):
    out = {}
    for i in range(1, d + 1):
        for l in range(1, d + 1):
            acc = {}
            for k in range(1, d + 1):
                for d1, c1 in x.get((i, k), {}).items():
                    for d2, c2 in y.get((k, l), {}).items():
                        acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
            acc = {deg: c % q for deg, c in acc.items() if c % q}
            if acc:
                out[(i, l)] = acc
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_laurent_pairs())
def test_laurent_product_is_canonical(case):
    d, q, x, y = case
    a, b = offset(x, d, q), offset(y, d, q)
    before = copy.deepcopy((a, b))
    prod = ch._loop_mul(a, b, q)
    assert (a, b) == before
    assert all(0 < c < q for c in prod.values())
    assert prod == offset(_triple_loop(x, y, d, q), d, q)
    assert full(prod, d, q) == _triple_loop(x, y, d, q)


@pytest.mark.parametrize("q", [2, 5, 16])
def test_laurent_product_with_a_zero_diagonal_entry(q):
    # q - 1 at (1, 1, 0) stores the entry 0: diag(0, 1) here
    d = 2
    zero = {(1, 1, 0): q - 1}
    shear = {(1, 2, 1): 1}
    assert ch._loop_mul(zero, shear, q) == zero
    assert ch._loop_mul(shear, zero, q) == {(1, 2, 1): 1, (1, 1, 0): q - 1}
    assert ch._loop_mul(zero, zero, q) == zero
    for a, b in ((zero, shear), (shear, zero), (zero, zero)):
        assert full(ch._loop_mul(a, b, q), d, q) == _triple_loop(full(a, d, q), full(b, d, q), d, q)


def test_elementary_of_zero_is_the_identity():
    # E_ij(p) E_ij(p') = E_ij(p + p'): a sum that is 0 mod q leaves {}
    assert ch._loop_mul({(1, 2, 0): 2}, {(1, 2, 0): 3}, 5) == {}
    assert ch._loop_mul({(2, 1, -1): 8}, {(2, 1, -1): 8}, 16) == {}
    assert ch._loop_mul({(2, 1, -1): 9}, {(2, 1, -1): 8}, 16) == {(2, 1, -1): 1}
    assert ch._loop_mul({}, {}, 5) == {}
    x = {(1, 2, 3): 4}
    assert ch._loop_mul(x, {}, 5) == ch._loop_mul({}, x, 5) == x
    # nothing is truncated: E12(t^3) E21(t^2) keeps its t^5 on the diagonal
    assert ch._loop_mul(x, {(2, 1, 2): 1}, 5) == {(1, 2, 3): 4, (2, 1, 2): 1, (1, 1, 5): 4}


def test_affine_window_only_labels_the_report():
    for d, q in ((3, 5), (5, 16)):
        low, high = ch.affine_pi_check(d, q, 4), ch.affine_pi_check(d, q, 64)
        assert (low.name, high.name) == (f"affine_pi_d{d}_q{q}_w4", f"affine_pi_d{d}_q{q}_w64")
        assert low.ok and (low.checks, low.data) == (high.checks, high.data)


def test_affine_check_fails_when_products_lose_a_cell(monkeypatch):
    loop_mul = ch._loop_mul

    def lossy(a, b, q):
        out = loop_mul(a, b, q)
        out.pop((1, 2, 0), None)
        return out

    monkeypatch.setattr(ch, "_loop_mul", lossy)
    rep = ch.affine_pi_check(3, 5, 6)
    failed = {c["name"]: c["failed"] for c in rep.checks}
    assert not rep.ok
    assert failed["r1_additivity"] > 0 and failed["r2_commutators_match_law"] > 0
