"""Seeded operation lists for the three workloads.

An operation is one README command line for `kmcert.cli.main` plus the
independent check its output must pass. The lists depend only on the seed
(and on the smoke flag); the program never sees anything but the argv and
the GCM files written here.

Sizes are fixed per slot and work is bounded per request, so that every
seed gives a round of similar length and the median and tail fall inside
blocks of like operations rather than on a boundary between families.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracles as O


class Op:
    __slots__ = ("family", "argv", "check")

    def __init__(self, family, argv, check):
        self.family = family
        self.argv = argv
        self.check = check  # (payload, exit_code) -> list of problems


# -------------------------------------------------------------- certify ---

# (family, rank, how many, inclusive root-count band at the Sigma cap)
CERTIFY_SLOTS = (
    ("small", 2, 36, None),
    ("small", 3, 40, (40, 160)),
    ("small", 4, 8, (40, 260)),
    ("indefinite", 4, 8, (290, 370)),
    ("indefinite", 5, 8, (1000, 1200)),
    ("indefinite", 6, 8, (2400, 2600)),
    ("wide", 10, 2, None),
    ("wide", 11, 2, None),
    ("wide", 12, 2, None),
    ("wide", 13, 2, None),
)
SMOKE_CERTIFY_SLOTS = (
    ("small", 2, 2, None),
    ("small", 3, 2, (40, 160)),
    ("indefinite", 4, 1, (290, 370)),
    ("wide", 10, 2, None),
)

FINITE_TYPES = ("A", "B", "C", "D")
AFFINE_TYPES = ("A~", "B~", "C~", "D~")


def cartan(d, edges):
    """GCM from (i, j, a_ij, a_ji) edges, 0-based."""
    a = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for i, j, x, y in edges:
        a[i][j], a[j][i] = x, y
    return a


def wide_type(name, d):
    """Finite A_d..D_d or affine (d-1)-rank-loop A~, B~, C~, D~ on d nodes."""
    e = [(i, i + 1, -1, -1) for i in range(d - 1)]
    if name in ("B", "B~"):
        e[-1] = (d - 2, d - 1, -2, -1)
    if name in ("C", "C~"):
        e[-1] = (d - 2, d - 1, -1, -2)
    if name in ("D", "D~"):
        e[-1] = (d - 3, d - 1, -1, -1)
    if name == "A~":
        e.append((0, d - 1, -1, -1))
    if name in ("B~", "D~"):
        e[0] = (0, 2, -1, -1)
    if name == "C~":
        e[0] = (0, 1, -2, -1)
    return cartan(d, e)


def random_symmetrizable(rng, d, density):
    """Indecomposable, 2-spherical, symmetrizable: e_i a_ij = e_j a_ji.

    Symmetrizer values come from {1, 2} or {1, 3}, so every edge has
    a_ij * a_ji in {1, 2, 3}; a random spanning tree keeps it connected.
    """
    big = rng.choice((1, 2, 2, 3))
    e = [rng.choice((1, big)) for _ in range(d)]
    order = list(range(d))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[k], rng.choice(order[:k])))) for k in range(1, d)}
    pairs |= {(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < density}
    edges = []
    for i, j in sorted(pairs):
        if e[i] == e[j]:
            edges.append((i, j, -1, -1))
        else:  # e_i a_ij = e_j a_ji with {a_ij, a_ji} = {-1, -ratio}
            r = max(e[i], e[j]) // min(e[i], e[j])
            edges.append((i, j, -r, -1) if e[i] < e[j] else (i, j, -1, -r))
    return cartan(d, edges)


def random_ring(rng, nA):
    """A ring spec from the README grammar, with m(R) >= n(A) about half the time."""
    kind = rng.choice(("Z/", "Z/", "Zloc!", "Zi!"))
    if nA is not None and nA <= 10**6 and rng.random() < 0.5:
        if kind == "Z/":
            q = nA + rng.randrange(1, 500)
            while not O.is_prime(q):
                q += 1
            spec = f"Z/{q}"
        else:
            spec = f"{kind}{nA + rng.randrange(0, 500)}"
    elif kind == "Z/":
        spec = f"Z/{rng.randrange(2, 10**5)}"
    else:
        spec = f"{kind}{rng.randrange(1, 200)}"
    return f"poly({spec})" if rng.random() < 0.25 else spec


def gcm_text(gcm, label):
    rows = "\n".join(" ".join(str(x) for x in row) for row in gcm)
    return f"# {label}\n{len(gcm)}\n{rows}\n"


def _banded_matrix(rng, d, band, density):
    """Draw until the matrix's root count at its Sigma cap lies in the band."""
    while True:
        gcm = random_symmetrizable(rng, d, density)
        if band is None:
            return gcm
        cap = O.required_cap(O.sigma(gcm)[2])
        if band[0] <= O.count_roots(gcm, cap, band[1]) <= band[1]:
            return gcm


def certify_ops(seed, workdir, smoke=False):
    rng = random.Random(f"certify:{seed}")
    # each wide rank gets one finite and one affine type, and every type is
    # used once, so the seed moves the pairing but hardly the total work
    wide = list(zip(rng.sample(FINITE_TYPES, 4), rng.sample(AFFINE_TYPES, 4)))
    ops = []
    for family, d, count, band in SMOKE_CERTIFY_SLOTS if smoke else CERTIFY_SLOTS:
        for k in range(count):
            if family == "wide":
                name = wide[d - 10][k]
                gcm = wide_type(name, d)
                label = f"{name}{d}"
            else:
                density = 0.9 if family == "indefinite" else 0.5
                gcm = _banded_matrix(rng, d, band, density)
                label = f"{family} rank {d}"
            ring = random_ring(rng, O.classification(gcm)["nA"])
            path = Path(workdir) / f"{family}-{d}-{k}.gcm"
            path.write_text(gcm_text(gcm, label))
            ops.append(
                Op(
                    family,
                    ["certify", "--gcm", str(path), "--ring", ring],
                    lambda payload, code, gcm=gcm, ring=ring: O.check_certificate(gcm, ring, payload, code),
                )
            )
    return ops


# ---------------------------------------------------------------- rank2 ---

# Fixed configurations; the seed only moves --seed and the order. The
# twelve G2 q = 2 calls form the block the tail percentile falls in: only
# four calls cost more. G2 at q = 5 (several seconds in one call) is left out.
RANK2_CONFIGS = (
    [("chevalley", "a2", q, 3) for q in (2, 3, 5, 7)]
    + [("chevalley", "b2", q, 2) for q in (2, 3)]
    + [("chevalley", "b2", 5, 1), ("chevalley", "g2", 3, 1), ("chevalley", "g2", 2, 12)]
    + [("generation", "sl3", 2, 2), ("generation", "sl3", 3, 1)]
    + [("affine", d, q, 2) for d, q in ((3, 3), (3, 5), (4, 3), (5, 3))]
    + [("affine", 4, 5, 1)]
)
SMOKE_RANK2_CONFIGS = (
    ("chevalley", "a2", 2, 1),
    ("chevalley", "b2", 2, 1),
    ("chevalley", "g2", 2, 1),
    ("generation", "sl3", 2, 1),
    ("affine", 3, 3, 1),
)


def rank2_ops(seed, smoke=False):
    rng = random.Random(f"rank2:{seed}")
    ops = []
    for suite, a, q, count in SMOKE_RANK2_CONFIGS if smoke else RANK2_CONFIGS:
        for _ in range(count):
            if suite == "chevalley":
                s = rng.randrange(10**6)
                typ = a.upper()
                argv = ["verify", "chevalley", "--type", a, "--q", str(q), "--seed", str(s)]
                check = lambda p, c, typ=typ, q=q: O.check_chevalley(typ, q, p, c)
            elif suite == "generation":
                argv = ["verify", "generation", "--group", a, "--q", str(q)]
                check = lambda p, c, q=q: O.check_generation(q, p, c)
            else:
                argv = ["verify", "affine", "--d", str(a), "--q", str(q), "--window", "6"]
                check = lambda p, c, d=a, q=q: O.check_affine(d, q, 6, p, c)
            ops.append(Op(f"{suite}-{a}-q{q}", argv, check))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ transport ---

TRANSPORT_MODULI = (5, 7, 11, 13, 25, 35)  # coprime to 6: primes and composites
TRANSPORT_SAMPLES = 300
SYMREP_CONFIGS = [(n, q) for n in range(2, 7) for q in (5, 7, 11)]


def transport_ops(seed, smoke=False):
    rng = random.Random(f"transport:{seed}")
    per_modulus, samples, symrep = (5, TRANSPORT_SAMPLES, SYMREP_CONFIGS)
    if smoke:
        per_modulus, samples, symrep = 1, 20, [(2, 5), (4, 7)]
    ops = []
    for q in TRANSPORT_MODULI[:2] if smoke else TRANSPORT_MODULI:
        for _ in range(per_modulus):
            s = rng.randrange(10**6)
            sub = random.Random(f"transport-oracle:{seed}:{q}:{s}")
            argv = ["verify", "transport", "--q", str(q), "--samples", str(samples), "--seed", str(s)]
            check = lambda p, c, q=q, s=s, sub=sub: O.check_transport(q, samples, s, p, c, sub, 10)
            ops.append(Op("transport", argv, check))
    for n, q in symrep:
        sub = random.Random(f"symrep-oracle:{seed}:{n}:{q}")
        argv = ["verify", "symrep", "--n", str(n), "--q", str(q)]
        ops.append(Op("symrep", argv, lambda p, c, n=n, q=q, sub=sub: O.check_symrep(n, q, p, c, sub)))
    rng.shuffle(ops)
    return ops
