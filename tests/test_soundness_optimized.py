"""Soundness checks must not depend on `assert`, so they survive python -O.

Each case breaks one invariant and expects SoundnessCheckFailed from a
`python -O` subprocess, where assert statements are compiled away.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import random
from kmcert import chevalley as ch, roots as rt, symrep as sr
from kmcert.errors import SoundnessCheckFailed
from kmcert.polylaw import UNARY, compile_law

assert False, "assertions are on"  # skipped under -O


def expect(name, fn, names=""):
    # a rejection's message must also name the entry `names`, if given
    try:
        fn()
    except SoundnessCheckFailed as exc:
        print(name, "rejected" if names in str(exc) else f"rejected without naming {names}")
    else:
        print(name, "accepted")


def emptied_table():
    saved = ch._TABLES[ch.A2]
    ch._TABLES[ch.A2] = {}
    try:
        ch.UnipotentEngine(ch.A2, 5)
    finally:
        ch._TABLES[ch.A2] = saved


def table_exponent():
    # an exponent of 0 would reach Poly.__pow__ as a bare TypeError
    saved = ch._TABLES[ch.A2]
    ch._TABLES[ch.A2] = {(0, 1): [(2, 0, 1, 1)]}
    try:
        ch.UnipotentEngine(ch.A2, 3)
    finally:
        ch._TABLES[ch.A2] = saved


def runaway_collection():
    # collect directly: the product law may already be in ch._LAWS
    eng = ch.UnipotentEngine(ch.A2, 5)
    saved = ch._COLLECT_STEP_CAP
    ch._COLLECT_STEP_CAP = 0
    try:
        eng.collect([(1, 1), (0, 1)])
    finally:
        ch._COLLECT_STEP_CAP = saved


def ledger_cycle():
    saved = dict(sr.LEDGER_NODES)
    sr.LEDGER_NODES["A1_into_E"] = ("path", 2, ("total",), "uplust_uminus1_A1_to_A4o_to_E")
    try:
        sr.ledger_check()
    finally:
        sr.LEDGER_NODES.clear()
        sr.LEDGER_NODES.update(saved)


def ledger_dependency_typo():
    saved = sr.LEDGER_NODES["mu_E"]
    sr.LEDGER_NODES["mu_E"] = ("subset", 2, ("mu_A1_minus_A1o_typo",))
    try:
        sr.ledger_check()
    finally:
        sr.LEDGER_NODES["mu_E"] = saved


def transport_stage_typo(stage):
    # a typo in a spec table is a failed check, not a bare KeyError
    saved = sr.TRANSPORT_FACTS
    sr.TRANSPORT_FACTS = saved + (("typo_fact", "A1", (stage,)),)
    try:
        sr.check_transport(5, samples=1)
    finally:
        sr.TRANSPORT_FACTS = saved


def bogus_coroot():
    # <a^, b> = -1 but <b^, a> = +1 with b's coroot negated
    gcm = ((2, -1), (-1, 2))
    a = rt.RootEntry((1, 0), (1, 0), 1, ())
    b = rt.RootEntry((0, 1), (0, -1), 2, ())
    rt.prenilpotency(gcm, a, b)


def identity_shears():
    # no dictionary turns the G2 conjugation into an identity "shear"
    saved = sr.shear_matrix
    sr.shear_matrix = lambda n, s, orientation, q: tuple(
        int(i == j) for i in range(n) for j in range(n)
    )
    try:
        ch.g2_v4_conjugation_check(5)
    finally:
        sr.shear_matrix = saved


expect("table", emptied_table)
expect("table exponent", table_exponent)
expect("quotient", lambda: ch.QuotientEngine(ch.G2, 5, {2}))
expect("collect", runaway_collection)
expect("ledger", ledger_cycle)
expect("ledger dependency", ledger_dependency_typo, "mu_E")
expect("fact target", lambda: transport_stage_typo((sr.UPPER, 1, 0, "A4_not_strickt")), "typo_fact")
expect("fact action", lambda: transport_stage_typo((sr.UPPER, 2, 0, "A4_strict")), "typo_fact")
expect("sampler", lambda: sr.sample_region(random.Random(0), 5, "S", 8, max_tries=0))
expect("pairing", bogus_coroot)
expect("dictionary", identity_shears)
# a packed shear term must be (source, integer, shift >= 0) before eval sees it
expect("shear term", lambda: sr._compiled_shear(((), ((0, 1.5, 1),), (), ()), 5, 8))
expect("shear shift", lambda: sr._compiled_shear(((), ((0, 1, -1),), (), ()), 5, 8))
# so must a term of a chained law, and each operand of its chain
expect("chain term", lambda: compile_law(((((0,), 1.5),),), chain=ch._ASSOCIATIVITY))
expect("chain operand", lambda: compile_law(((((0,), 1),),), chain=(3, ((0, 3),), (3,))))
# and a monomial index must name a coordinate of its step's operands
expect("law index", lambda: compile_law(((((1,), 1),),), UNARY))
# a law with no rows has no source to build
expect("empty law", lambda: compile_law((), UNARY))
"""


def test_soundness_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == [
        "table rejected",
        "table exponent rejected",
        "quotient rejected",
        "collect rejected",
        "ledger rejected",
        "ledger dependency rejected",
        "fact target rejected",
        "fact action rejected",
        "sampler rejected",
        "pairing rejected",
        "dictionary rejected",
        "shear term rejected",
        "shear shift rejected",
        "chain term rejected",
        "chain operand rejected",
        "law index rejected",
        "empty law rejected",
        "",
    ]
