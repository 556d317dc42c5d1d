"""Oracles for the compiled arithmetic kernels.

`polylaw.compile_law` turns law rows into straight-line Python; it is checked
against the plain loop that evaluated the same rows before (kept here as the
reference).  `laurent.lm_mul` builds its product without a canonicalizing
pass and shares polynomial dicts with its factors; it is checked against a
triple loop and against `lp_canon`, and `affine_pi_check` must notice a
product that loses a cell.
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
from kmcert.laurent import lm_elementary, lm_mul, lp_canon
from kmcert.polylaw import compile_law

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
    for inverse in (False, True):
        rows = eng.derive_law(inverse=inverse)
        law = compile_law(rows)
        width = len(eng.roots) * (1 if inverse else 2)
        for k in range(200):
            # reduced values as the engine passes them, then unreduced ones
            lo, hi = (0, q) if k % 2 else (-3 * q, 3 * q)
            v = tuple(rng.randrange(lo, hi) for _ in range(width))
            assert law(v, q) == evaluate(rows, v, q)


def test_compile_law_edge_rows():
    law = compile_law(((), (((), 3),), (((0, 0, 1), 1), ((1,), -2))))
    assert law((4, 5), 7) == (0, 3, (16 * 5 - 10) % 7)
    law = compile_law(((), (((), 3),), (((0, 0, 1), 1), ((1,), -2))), reduce=False)
    assert law((4, 5), 7) == (0, 3, 16 * 5 - 10)


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
        compile_law(rows)


def test_compile_law_refusal_survives_python_O():
    script = (
        "from kmcert.polylaw import compile_law\n"
        "from kmcert.errors import SoundnessCheckFailed\n"
        "try:\n"
        "    compile_law(((((0,), '__import__(\"os\")'),),))\n"
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


@st.composite
def _laurent_pairs(draw):
    d = draw(st.integers(2, 4))
    q = draw(st.sampled_from((2, 3, 5, 7, 16, 35)))
    window = draw(st.integers(4, 8))
    cell = st.tuples(st.integers(1, d), st.integers(1, d))
    poly = st.dictionaries(st.integers(-2, 2), st.integers(-q, 2 * q), max_size=3)

    def matrix():
        if draw(st.booleans()):
            # elementary: identity diagonal plus one off-diagonal cell, so the
            # product meets {0: 1} factors and cells with a single part
            i, j = draw(cell.filter(lambda ij: ij[0] != ij[1]))
            return lm_elementary(d, q, window, i, j, draw(poly))
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
    before = copy.deepcopy((x, y))
    prod = lm_mul(x, y, q, window)
    # the product may share polynomial dicts with its factors: neither changes
    assert (x, y) == before
    assert prod == _canon(prod, q)
    assert prod == _triple_loop(x, y, d, q)
    assert all(p and all(0 < c < q for c in p.values()) for p in prod.values())


@pytest.mark.parametrize("deg1, deg2", [(3, 2), (-4, -1)])
def test_laurent_product_leaving_the_window_raises(deg1, deg2):
    x = lm_elementary(3, 5, 4, 1, 2, {deg1: 1})
    y = lm_elementary(3, 5, 4, 2, 3, {deg2: 2})
    with pytest.raises(WindowBreach) as exc:
        lm_mul(x, y, 5, 4)
    assert exc.value.degree == deg1 + deg2 and exc.value.window == 4
    # inside the window the same product is fine, and cancellation is dropped
    assert lm_mul(x, x, 5, 4)[(1, 2)] == {deg1: 2}
    neg = lm_elementary(3, 5, 4, 1, 2, {deg1: 4})
    assert lm_mul(x, neg, 5, 4) == lm_elementary(3, 5, 4, 1, 2, {})


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
