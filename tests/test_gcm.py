import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmcert import gcm as gc
from kmcert.errors import AxiomViolation, BadM, KmcertError, ParseError

from conftest import (
    A1,
    A2,
    A3,
    AFF_A1,
    AFF_A2,
    B2,
    D4_STAR,
    G2,
    IND3,
    NOT_2SPH,
    A1XA1,
    SPHERICAL_CATALOGUE,
    gcm_text,
    gcms,
    int_det,
    principal_minors,
)


# ------------------------------------------------------------ validation ---


def test_validate_accepts_catalogue():
    for mat in (A1, A2, B2, G2, A3, D4_STAR, AFF_A1, AFF_A2, IND3, NOT_2SPH):
        assert gc.validate_gcm([list(r) for r in mat]) == mat


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ([], "empty"),
        ([[2, -1]], "length"),
        ([[1, -1], [-1, 2]], "diagonal"),
        ([[2, 1], [-1, 2]], "positive"),
        ([[2, -1], [0, 2]], "zero pattern"),
        ([[2, 0], [-1, 2]], "zero pattern"),
        ([[2, -1.5], [-1, 2]], "not an integer"),
        ([[2, True], [-1, 2]], "not an integer"),
    ],
)
def test_validate_rejects(rows, fragment):
    with pytest.raises(AxiomViolation, match=fragment):
        gc.validate_gcm(rows)


def test_parse_round_trip():
    for mat in (A2, G2, AFF_A2):
        assert gc.parse_gcm_text(gcm_text(mat)) == mat


def test_parse_ignores_comments_and_blanks():
    text = "# rank two\n\n2\n2 -1\n\n# done\n-1 2\n"
    assert gc.parse_gcm_text(text) == A2


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        gc.parse_gcm_text("2\n2 -1\n-1 x\n")
    assert ei.value.line == 3 and ei.value.col == 4
    with pytest.raises(ParseError, match="rows"):
        gc.parse_gcm_text("3\n2 -1\n-1 2\n")
    with pytest.raises(ParseError, match="entries"):
        gc.parse_gcm_text("2\n2 -1 0\n-1 2\n")
    with pytest.raises(ParseError, match="empty"):
        gc.parse_gcm_text("# nothing\n")
    # axiom violations surface as ParseError naming the offending line
    with pytest.raises(ParseError) as ei:
        gc.parse_gcm_text("2\n2 1\n-1 2\n")
    assert ei.value.line == 2


_GCM_TOKENS = st.sampled_from(
    ["2", "-1", "0", "-3", "1", "3", "9" * 30, "x", "1.5", "²", "٣", "#", " ", "\t", "\n", "\r", "\x1c", "\u2028"]
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(max_size=60), st.lists(_GCM_TOKENS, max_size=30).map("".join)))
def test_parse_gcm_text_raises_only_kmcert_errors(text):
    try:
        gcm = gc.parse_gcm_text(text)
    except KmcertError:
        return
    assert gc.validate_gcm([list(row) for row in gcm]) == gcm


# -------------------------------------------------------------- exact det ---


def _cofactor_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _cofactor_det(minor)
    return total


def test_int_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert int_det(mat) == _cofactor_det(mat)


def test_int_det_exactness_on_fraction_killer():
    # fraction-free elimination must not round: a matrix whose naive float
    # elimination drifts
    mat = [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]
    assert int_det(mat) == 5  # A4 Cartan determinant


# --------------------------------------------------------- classification ---


def test_classification_catalogue():
    assert gc.classify(A1).kind == gc.SPHERICAL
    assert gc.classify(A2).kind == gc.SPHERICAL
    assert gc.classify(B2).kind == gc.SPHERICAL
    assert gc.classify(G2).kind == gc.SPHERICAL
    assert gc.classify(A3).kind == gc.SPHERICAL
    assert gc.classify(D4_STAR).kind == gc.SPHERICAL
    assert gc.classify(AFF_A1).kind == gc.AFFINE
    assert gc.classify(AFF_A2).kind == gc.AFFINE
    ind = gc.classify(IND3)
    assert ind.kind == gc.INDEFINITE and ind.two_spherical
    assert not gc.classify(NOT_2SPH).two_spherical


def test_classification_fields():
    c = gc.classify(G2)
    assert (c.M, c.simply_laced, c.indecomposable) == (3, False, True)
    assert c.nA == 12320768
    c = gc.classify(A1XA1)
    assert c.kind == gc.SPHERICAL and not c.indecomposable
    assert gc.classify(A2).as_dict() == {
        "kind": "Spherical",
        "indecomposable": True,
        "two_spherical": True,
        "simply_laced": True,
        "M": 1,
        "nA": 4,
    }


def test_affine_label_needs_indecomposable():
    # AFF_A1 next to A1: decomposable, one component affine -> Indefinite
    mat = (
        (2, -2, 0),
        (-2, 2, 0),
        (0, 0, 2),
    )
    c = gc.classify(mat)
    assert c.kind == gc.INDEFINITE and not c.indecomposable


def _principal_submatrices(mat, k):
    return [gc.submatrix(mat, idx) for idx in combinations(range(1, len(mat) + 1), k)]


def test_spherical_hereditary():
    # every principal submatrix of a spherical GCM is spherical
    for mat in SPHERICAL_CATALOGUE.values():
        for k in range(1, len(mat) + 1):
            for sub in _principal_submatrices(mat, k):
                assert gc.classify(sub).kind == gc.SPHERICAL, sub


def test_two_spherical_equals_2_sphericity():
    # a_ij a_ji <= 3 is exactly "every 2x2 principal submatrix is spherical"
    for mat in (A2, B2, G2, A3, D4_STAR, AFF_A2, IND3, NOT_2SPH, AFF_A1):
        subs = _principal_submatrices(mat, 2)
        assert gc.is_two_spherical(mat) == all(gc.classify(s).kind == gc.SPHERICAL for s in subs)


def _kind_from_all_minors(gcm):
    """The module docstring's definition, read off every principal minor."""
    minors = principal_minors(gcm)
    full = tuple(range(1, len(gcm) + 1))
    if all(v > 0 for v in minors.values()):
        return gc.SPHERICAL  # decomposable too: its minors factor over the components
    proper_positive = all(v > 0 for idx, v in minors.items() if idx != full)
    if gc.is_indecomposable(gcm) and minors[full] == 0 and proper_positive:
        return gc.AFFINE
    return gc.INDEFINITE


def _path(d, ends):
    """Rank-d chain; ends gives (a_12, a_21) and (a_{d-1,d}, a_{d,d-1})."""
    m = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(d)] for i in range(d)]
    (m[0][1], m[1][0]), (m[d - 2][d - 1], m[d - 1][d - 2]) = ends
    return tuple(tuple(row) for row in m)


def _branch(d, arms):
    """Star-shaped tree: vertex 1 joined to the first vertex of each arm."""
    m = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    v = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            m[prev][v] = m[v][prev] = -1
            prev, v = v, v + 1
    return tuple(tuple(row) for row in m)


_CYCLE8 = tuple(
    tuple(2 if i == j else (-1 if (i - j) % 8 in (1, 7) else 0) for j in range(8)) for i in range(8)
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gcm=gcms(1, 8))
@example(gcm=AFF_A1)
@example(gcm=AFF_A2)
@example(gcm=IND3)  # not symmetrizable
@example(gcm=_CYCLE8)  # affine A7
@example(gcm=_branch(5, (1, 1, 1, 1)))  # affine D4
@example(gcm=_branch(7, (2, 2, 2)))  # affine E6
@example(gcm=_branch(8, (1, 3, 3)))  # affine E7
@example(gcm=_branch(8, (1, 2, 4)))  # E8
@example(gcm=_branch(8, (2, 2, 3)))  # T(3,3,4): indefinite
@example(gcm=_path(3, ((-1, -3), (-1, -1))))  # affine G2
@example(gcm=_path(4, ((-2, -1), (-1, -2))))  # affine, double bonds at both ends
@example(gcm=_path(8, ((-2, -1), (-1, -1))))  # B8
def test_classify_matches_all_principal_minors(gcm):
    cls = gc.classify(gcm)
    assert cls.kind == _kind_from_all_minors(gcm)
    e = gc.symmetrizer(gcm)
    assert cls.symmetrizer == e
    if e is not None:
        d = len(gcm)
        assert all(x > 0 for x in e)
        assert all(e[i] * gcm[i][j] == e[j] * gcm[j][i] for i in range(d) for j in range(d))


def test_symmetrizer_values():
    assert gc.symmetrizer(A2) == (1, 1)
    assert gc.symmetrizer(B2) == (1, 2)
    assert gc.symmetrizer(G2) == (1, 3)
    assert gc.symmetrizer(A1XA1) == (1, 1)
    assert gc.symmetrizer(IND3) is None  # a_12 a_23 a_31 = -2, a_13 a_32 a_21 = -1


def test_principal_minors_affine_signature():
    minors = principal_minors(AFF_A2)
    full = (1, 2, 3)
    assert minors[full] == 0
    assert all(v > 0 for idx, v in minors.items() if idx != full)


# ------------------------------------------------------- critical order ---


def test_critical_order_frozen_values():
    assert gc.critical_order(2, 1) == 4
    assert gc.critical_order(2, 2) == 48
    assert gc.critical_order(2, 3) == 12320768
    assert gc.critical_order(3, 1) == 16


def test_critical_order_formulas():
    for d in range(2, 11):
        b = 2 * d - 2
        assert gc.critical_order(d, 1) == b**2
        assert gc.critical_order(d, 2) == 3 * b**4
        assert gc.critical_order(d, 3) == 188 * b**16
    # M = 0 (no off-diagonal entries at all) falls under the M <= 1 formula
    assert gc.critical_order(2, 0) == 4


def test_critical_order_rejects():
    with pytest.raises(BadM):
        gc.critical_order(1, 1)
    with pytest.raises(BadM):
        gc.critical_order(2, 4)


def test_monotone_in_m():
    for d in range(2, 8):
        vals = [gc.critical_order(d, m) for m in (1, 2, 3)]
        assert vals == sorted(vals) and len(set(vals)) == 3


# ------------------------------------------------------------- structure ---


def test_components_and_neighbours():
    assert gc.components(A1XA1) == [(1,), (2,)]
    assert gc.components(A3) == [(1, 2, 3)]
    assert gc.neighbours(D4_STAR, 2) == {1, 3, 4}
    assert gc.neighbours(D4_STAR, 1) == {2}
    assert gc.dynkin_diagram(G2) == {(1, 2): 3}
    assert gc.dynkin_diagram(AFF_A1) == {(1, 2): 4}


def test_submatrix_is_principal():
    sub = gc.submatrix(D4_STAR, (2, 4))
    assert sub == ((2, -1), (-1, 2))
    assert gc.submatrix(A3, (1, 3)) == ((2, 0), (0, 2))
