"""Oracles for the compiled arithmetic kernels.

`polylaw.compile_law` turns law rows into straight-line Python taking each
operand as its own tuple; it is checked against a plain loop over the rows
at the concatenated operands (kept here as the reference), and a chained
product law against the engine's products taken one at a time.
`laurent.lm_mul` multiplies offsets from the identity, (I + a)(I + b) =
I + (a + b + ab), without a canonicalizing pass and shares polynomial dicts
with its factors; on full matrices converted to offsets it is checked
against a triple loop and against `lp_canon`, and `affine_pi_check` must
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
from kmcert.errors import SoundnessCheckFailed, WindowBreach
from kmcert.laurent import lm_elementary, lm_mul, lp_add, lp_canon
from kmcert.polylaw import BINARY, UNARY, compile_law, mat_mul

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


# --------------------------------------------------------- Laurent matrices ---


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
    """The stored form M - I of a full canonical matrix m."""
    return _shift_diagonal(m, d, q, -1)


def full(a, d, q):
    """The full matrix I + a of a stored offset a."""
    return _shift_diagonal(a, d, q, 1)


@st.composite
def _laurent_pairs(draw):
    d = draw(st.integers(2, 4))
    q = draw(st.sampled_from((2, 3, 5, 7, 16, 35)))
    window = draw(st.integers(4, 8))
    cell = st.tuples(st.integers(1, d), st.integers(1, d))
    poly = st.dictionaries(st.integers(-2, 2), st.integers(-q, 2 * q), max_size=3)

    def matrix():
        # full matrices, diagonal cells included
        if draw(st.booleans()):
            # elementary: identity diagonal plus one off-diagonal cell, so the
            # product meets cells with a single part
            i, j = draw(cell.filter(lambda ij: ij[0] != ij[1]))
            p = draw(poly)
            m = _canon({**{(k, k): {0: 1} for k in range(1, d + 1)}, (i, j): p}, q)
            assert offset(m, d, q) == lm_elementary(q, window, i, j, p)
            return m
        return _canon(draw(st.dictionaries(cell, poly, max_size=d * d)), q)

    return d, q, window, matrix(), matrix()


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
    d, q, window, x, y = case
    a, b = offset(x, d, q), offset(y, d, q)
    before = copy.deepcopy((a, b))
    prod = lm_mul(a, b, q, window)
    # the product may share polynomial dicts with its factors: neither changes
    assert (a, b) == before
    assert prod == _canon(prod, q)
    assert full(prod, d, q) == _triple_loop(x, y, d, q)
    assert all(p and all(0 < c < q for c in p.values()) for p in prod.values())


@pytest.mark.parametrize("deg1, deg2", [(3, 2), (-4, -1)])
def test_laurent_product_leaving_the_window_raises(deg1, deg2):
    x = lm_elementary(5, 4, 1, 2, {deg1: 1})
    y = lm_elementary(5, 4, 2, 3, {deg2: 2})
    with pytest.raises(WindowBreach) as exc:
        lm_mul(x, y, 5, 4)
    assert exc.value.degree == deg1 + deg2 and exc.value.window == 4
    # inside the window the same product is fine, and cancellation is dropped
    assert lm_mul(x, x, 5, 4) == {(1, 2): {deg1: 2}}
    neg = lm_elementary(5, 4, 1, 2, {deg1: 4})
    assert lm_mul(x, neg, 5, 4) == {}


def test_laurent_product_leaving_the_window_on_the_diagonal_raises():
    # E12(t^3) E21(t^2) = I + t^3 E12 + t^2 E21 + t^5 E11: the off-diagonal
    # cells stay inside window 4, and only the diagonal entry 1 + t^5 leaves it
    x = lm_elementary(5, 4, 1, 2, {3: 1})
    y = lm_elementary(5, 4, 2, 1, {2: 1})
    with pytest.raises(WindowBreach) as exc:
        lm_mul(x, y, 5, 4)
    assert exc.value.degree == 5 and exc.value.window == 4
    with pytest.raises(WindowBreach) as exc:
        lm_mul(y, x, 5, 4)
    assert exc.value.degree == 5
    assert lm_mul(x, y, 5, 5) == {(1, 2): {3: 1}, (2, 1): {2: 1}, (1, 1): {5: 1}}


@pytest.mark.parametrize("q", [2, 5, 16])
def test_laurent_product_with_a_zero_diagonal_entry(q):
    # {0: q - 1} on the diagonal stores the entry 0: diag(0, 1) here
    d = 2
    zero = {(1, 1): {0: q - 1}}
    shear = lm_elementary(q, 4, 1, 2, {1: 1})
    assert lm_mul(zero, shear, q, 4) == zero
    assert lm_mul(shear, zero, q, 4) == {(1, 2): {1: 1}, (1, 1): {0: q - 1}}
    assert lm_mul(zero, zero, q, 4) == zero
    for a, b in ((zero, shear), (shear, zero), (zero, zero)):
        assert full(lm_mul(a, b, q, 4), d, q) == _triple_loop(full(a, d, q), full(b, d, q), d, q)


def test_elementary_of_zero_is_the_identity():
    assert lm_elementary(5, 4, 1, 2, {}) == {}
    assert lm_elementary(5, 4, 1, 2, {0: 5, 3: -10}) == {}
    assert lm_elementary(16, 4, 2, 1, {-1: 16, 1: 32}) == {}
    assert lm_elementary(16, 4, 2, 1, {-1: 17}) == {(2, 1): {-1: 1}}


def test_affine_check_fails_when_products_lose_a_cell(monkeypatch):
    def lossy(a, b, q, window):
        out = lm_mul(a, b, q, window)
        out.pop((1, 2), None)
        return out

    monkeypatch.setattr(ch, "lm_mul", lossy)
    rep = ch.affine_pi_check(3, 5, 6)
    failed = {c["name"]: c["failed"] for c in rep.checks}
    assert not rep.ok
    assert failed["r1_additivity"] > 0 and failed["r2_commutators_match_law"] > 0
