"""Byte-for-byte golden outputs of the README command forms.

Each case runs `kmcert.cli.main` in-process and compares the exit code and
the exact stdout with `tests/golden/<name>.txt`, whose first line is
`exit <code>` and whose remainder is stdout.  The GCM inputs live in
`tests/golden/gcm/`.  Regenerate (only when an output change is intended)
with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from kmcert import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
GCM = GOLDEN / "gcm"

CASES = {
    "classify_a2": ["classify", "--gcm", "A2.gcm"],
    "classify_affine_a2": ["classify", "--gcm", "AFF_A2.gcm"],
    "classify_decomposable": ["classify", "--gcm", "A1xA1.gcm"],
    "roots_a2": ["roots", "--gcm", "A2.gcm", "--height-cap", "12"],
    "sigma_a3": ["sigma", "--gcm", "A3.gcm"],
    "sigma_a3_pseudo": ["sigma", "--gcm", "A3.gcm", "--pseudo", "1,2"],
    "bounds_b2_z53": ["bounds", "--gcm", "B2.gcm", "--ring", "Z/53"],
    "certify_a2_certified": ["certify", "--gcm", "A2.gcm", "--ring", "poly(Zloc!4)"],
    "certify_a2_failed": ["certify", "--gcm", "A2.gcm", "--ring", "Z/2"],
    "certify_ind3_indefinite": ["certify", "--gcm", "IND3.gcm", "--ring", "Zloc!4"],
    # all four certificate kinds: identity embeddings, Weyl words, disjoint
    # supports and empty intervals
    "certify_aff_c5": ["certify", "--gcm", "AFF_C5.gcm", "--ring", "Z/1000003"],
    # 2-spherical and not symmetrizable: real roots have no norm test
    "certify_nonsym3": ["certify", "--gcm", "NONSYM3.gcm", "--ring", "Z/1000003"],
    # the Gaussian scan past two inert primes (7 -> 49, 11 -> 121, so m = 13)
    # under the poly(...) spelling, and a failed min_ideal_index
    "certify_b2_poly_zi6": ["certify", "--gcm", "B2.gcm", "--ring", "poly(Zi!6)"],
    "verify_chevalley_a2": ["verify", "chevalley", "--type", "a2", "--q", "3"],
    "verify_chevalley_b2": ["verify", "chevalley", "--type", "b2", "--q", "3"],
    "verify_chevalley_g2": ["verify", "chevalley", "--type", "g2", "--q", "3"],
    # the most frequent bench rank2 call: the reduced laws drop every even
    # coefficient and the G2 quotient checks are skipped
    "verify_chevalley_g2_q2": ["verify", "chevalley", "--type", "g2", "--q", "2"],
    "verify_chevalley_g2_q5": ["verify", "chevalley", "--type", "g2", "--q", "5"],
    # the other admitted q where the v4 dictionary runs: gcd(q, 6) = 1, q <= 10
    "verify_chevalley_g2_q7": ["verify", "chevalley", "--type", "g2", "--q", "7"],
    "verify_generation_sl3": ["verify", "generation", "--group", "sl3", "--q", "3"],
    "verify_generation_sp4": ["verify", "generation", "--group", "sp4", "--q", "3"],
    # |SL3(7)| = 5,630,688, ordered by Schreier-Sims without listing it
    "verify_generation_sl3_q7": ["verify", "generation", "--group", "sl3", "--q", "7"],
    "verify_affine": ["verify", "affine", "--d", "3", "--q", "5", "--window", "6"],
    # the largest d with the smallest window
    "verify_affine_d5_q3_w4": ["verify", "affine", "--d", "5", "--q", "3", "--window", "4"],
    # the largest admitted q, whose zero divisors cancel the most cells
    "verify_affine_d4_q16_w6": ["verify", "affine", "--d", "4", "--q", "16", "--window", "6"],
    # every affine limit at once: AFFINE_MAX_D, AFFINE_MAX_Q, AFFINE_MAX_WINDOW
    "verify_affine_d5_q16_w64": ["verify", "affine", "--d", "5", "--q", "16", "--window", "64"],
    "verify_symrep": ["verify", "symrep", "--n", "4", "--q", "5"],
    # SYMREP_MAX_N: the 8 x 8 matrix law and the oracle at their largest size
    "verify_symrep_n8_q13": ["verify", "symrep", "--n", "8", "--q", "13"],
    "verify_transport": ["verify", "transport", "--q", "5", "--samples", "2000", "--seed", "0"],
    "verify_transport_bad_modulus": ["verify", "transport", "--q", "6"],
    "text_certify_a2_failed": ["--format", "text", "certify", "--gcm", "A2.gcm", "--ring", "Z/2"],
}


def _argv(args):
    return [str(GCM / a) if a.endswith(".gcm") else a for a in args]


def _render(code, out):
    return f"exit {code}\n{out}"


def _golden(name):
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    code = cli.main(_argv(CASES[name]))
    assert _render(code, capsys.readouterr().out) == _golden(name)


def test_calls_in_one_process_do_not_leak(capsys):
    # main may run many times in one process: no call may see another's
    # --format, argparse error or output
    for name in ("text_certify_a2_failed", "certify_a2_failed", "roots_a2", "classify_a2"):
        code = cli.main(_argv(CASES[name]))
        assert _render(code, capsys.readouterr().out) == _golden(name), name
    with pytest.raises(SystemExit) as exc:
        cli.main(_argv(["--format", "text", "certify", "--gcm", "A2.gcm", "--ring"]))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code = cli.main(_argv(CASES["certify_a2_certified"]))
    assert _render(code, capsys.readouterr().out) == _golden("certify_a2_certified")


def _regenerate():
    import contextlib
    import io

    for name, args in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(_argv(args))
        (GOLDEN / f"{name}.txt").write_text(_render(code, buf.getvalue()), encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
