"""Shared fixture matrices, the oracles for classification and intervals,
the listing form of a root interval, Laurent scalars over Z/q, and the
README's CLI lines.

Rank-2 conventions: vertex 1 is the short simple root, vertex 2 the long
one, so B2 = [[2,-2],[-1,2]] and G2 = [[2,-3],[-1,2]] (a_12 = <a_1^, a_2>).
"""

import re
import shlex
import sys
from collections import namedtuple
from itertools import combinations
from operator import add
from pathlib import Path

import pytest
from hypothesis import strategies as st

from kmcert import roots as rt
from kmcert import symrep as sr
from kmcert.errors import OppositePair
from kmcert.gcm import parse_gcm_text, submatrix

A1 = ((2,),)
A2 = ((2, -1), (-1, 2))
B2 = ((2, -2), (-1, 2))
B2_LONG_FIRST = ((2, -1), (-2, 2))
G2 = ((2, -3), (-1, 2))
A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
D4_STAR = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
AFF_A1 = ((2, -2), (-2, 2))
AFF_A2 = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
IND3 = ((2, -1, -1), (-1, 2, -2), (-1, -1, 2))
# affine C5 (bench/corpus.py wide_type("C~", 5)) and a 2-spherical matrix
# with no symmetrizer, both golden certify inputs
AFF_C5 = (
    (2, -2, 0, 0, 0),
    (-1, 2, -1, 0, 0),
    (0, -1, 2, -1, 0),
    (0, 0, -1, 2, -1),
    (0, 0, 0, -2, 2),
)
NONSYM3 = ((2, -1, -1), (-1, 2, -1), (-1, -2, 2))
NOT_2SPH = ((2, -2), (-3, 2))
A1XA1 = ((2, 0), (0, 2))

SPHERICAL_CATALOGUE = {
    "A1": A1,
    "A2": A2,
    "B2": B2,
    "G2": G2,
    "A3": A3,
    "D4_STAR": D4_STAR,
}

SIGMA_CATALOGUE = {
    "A2": A2,
    "B2": B2,
    "G2": G2,
    "A3": A3,
    "D4_STAR": D4_STAR,
    "AFF_A2": AFF_A2,
    "IND3": IND3,
}


def int_det(mat):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def principal_minors(gcm):
    """All principal minors as a dict {index tuple: det}, exact integers.

    The oracle for gcm.classify: the classification is defined by these
    2^d - 1 minors, which classify never evaluates.
    """
    d = len(gcm)
    out = {}
    for size in range(1, d + 1):
        for idx in combinations(range(1, d + 1), size):
            out[idx] = int_det(submatrix(gcm, idx))
    return out


# Laurent scalars over Z/q: dicts {degree: coefficient} in t, coefficients
# in 1..q-1, zero coefficients dropped, {} = 0.  The oracle form for the
# packed transport vectors and the loop-group products.


def lp_canon(p, q):
    return {d: c % q for d, c in p.items() if c % q}


def lp_add(q, *parts):
    """Sum of any number of scalars in one pass."""
    out = {}
    for part in parts:
        for d, c in part.items():
            s = (out.get(d, 0) + c) % q
            if s:
                out[d] = s
            else:
                out.pop(d, None)
    return out


def lp_mul(a, b, q):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = d1 + d2
            out[d] = (out.get(d, 0) + c1 * c2) % q
    return {d: c for d, c in out.items() if c}


# the roots i*a + j*b (i, j >= 1) found within a slice, as a frozenset;
# truncated means the slice cap was too small to promise completeness, so
# the roots are only a lower approximation
IntervalResult = namedtuple("IntervalResult", "roots truncated")


def closed_interval(slice_, a, b):
    """The listing form of roots.interval_is_empty: every root of the pair's
    interval in the slice, from the same scan, with its truncation flag."""
    return IntervalResult(
        frozenset(rt._interval_scan(slice_, a.root, b.root)), rt._interval_truncated(slice_, a, b)
    )


def closed_interval_oracle(slice_, a, b):
    """closed_interval by testing every i*a + j*b within the height cap.

    The oracle for the sign ranges closed_interval solves for: it builds
    each vector of every row, mixed signs included, and asks the slice.
    """
    gcm = slice_.gcm
    ar, br = tuple(a.root), tuple(b.root)
    ha, hb = rt.height(ar), rt.height(br)
    found = set()
    max_i = slice_.cap // max(ha, 1) + 1
    max_j = slice_.cap // max(hb, 1) + 1
    for i in range(1, max_i + 1):
        v = tuple(i * x for x in ar)
        inside = False
        for _j in range(max_j):
            v = tuple(map(add, v, br))
            if rt.height(v) > slice_.cap:
                if inside:
                    break  # the height is convex in j: it stays above the cap
                continue
            inside = True
            if v in slice_:
                found.add(v)
    try:
        pre = rt.is_prenilpotent(gcm, a, b)
    except OppositePair:
        pre = False
    need = rt.interval_exact_cap(slice_.two_spherical, ar, br)
    truncated = not (pre and need is not None and slice_.cap >= need)
    return IntervalResult(frozenset(found), truncated)


@st.composite
def gcms(draw, min_d, max_d):
    """Random GCMs of rank min_d..max_d.

    Edges form a random forest (a vertex may start a new component, so
    decomposable matrices occur) plus up to three extra edges, which close
    cycles.  Each edge gets independent entries in -4..-1, so finite,
    affine and indefinite types occur, and a cycle whose entries disagree
    is not symmetrizable.
    """
    d = draw(st.integers(min_d, max_d))
    edges = set()
    for j in range(1, d):
        parent = draw(st.integers(-1, j - 1))
        if parent >= 0:
            edges.add((parent, j))
    vertex = st.integers(0, d - 1)
    for i, j in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        if i != j:
            edges.add((min(i, j), max(i, j)))
    m = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for i, j in sorted(edges):
        m[i][j] = draw(st.integers(-4, -1))
        m[j][i] = draw(st.integers(-4, -1))
    return tuple(tuple(row) for row in m)


def golden_gcms():
    """{file name: matrix} for the GCM inputs of the golden CLI outputs."""
    return {p.name: parse_gcm_text(p.read_text(encoding="utf-8"))
            for p in sorted((Path(__file__).resolve().parent / "golden" / "gcm").glob("*.gcm"))}


def bench_wide_types():
    """{label: matrix} for bench/corpus.py wide_type at ranks 10-13."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import corpus
    finally:
        sys.path.remove(bench)
    return {f"{name}{d}": tuple(map(tuple, corpus.wide_type(name, d)))
            for name in corpus.FINITE_TYPES + corpus.AFFINE_TYPES for d in range(10, 14)}


def gcm_text(gcm):
    lines = [str(len(gcm))]
    lines += [" ".join(str(e) for e in row) for row in gcm]
    return "\n".join(lines) + "\n"


def readme_cli_lines():
    """The `kmcert ...` lines of the README's CLI block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("kmcert ")]


def readme_cli_forms(line):
    """The argv of a README line without its optional [...] parts and with them spelled out."""
    forms = (re.sub(r"\s*\[[^\]]*\]", "", line), re.sub(r"[\[\]]", "", line))
    return [shlex.split(form)[1:] for form in forms]


@pytest.fixture
def write_gcm(tmp_path):
    def _write(gcm, name="m.gcm"):
        p = tmp_path / name
        p.write_text(gcm_text(gcm))
        return str(p)

    return _write


@pytest.fixture
def wrong_transport_target(monkeypatch):
    """TRANSPORT_FACTS with B - S sent to A1* instead of A4* (it never is)."""
    facts = []
    for name, source, stages in sr.TRANSPORT_FACTS:
        if name == "uplust_B_minus_S_to_A4o":
            stages = ((sr.UPPER, 1, 1, "A1_strict"),)
        facts.append((name, source, stages))
    monkeypatch.setattr(sr, "TRANSPORT_FACTS", tuple(facts))
