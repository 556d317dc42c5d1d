import json
from pathlib import Path

import jsonschema
import pytest

from kmcert import cli

from conftest import A2, B2, NOT_2SPH, gcm_text

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.json").read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def _validate(payload):
    jsonschema.validate(payload, SCHEMA)


# --------------------------------------------------------------- classify ---


def test_classify_ok(capsys, write_gcm):
    code, payload, _ = run_json(capsys, "classify", "--gcm", write_gcm(A2))
    assert code == 0
    assert payload["kind"] == "Spherical"
    assert payload["nA"] == 4
    _validate(payload)


def test_classify_axiom_violation(capsys, tmp_path):
    p = tmp_path / "bad.gcm"
    p.write_text("2\n2 0\n-1 2\n")  # a_12 = 0 but a_21 != 0
    code, out, err = run_cli(capsys, "classify", "--gcm", str(p))
    assert code == 2 and out == ""
    assert "error" in err


def test_classify_missing_file(capsys):
    code, out, err = run_cli(capsys, "classify", "--gcm", "/nonexistent/x.gcm")
    assert code == 2 and "cannot read" in err


def test_classify_parse_position(capsys, tmp_path):
    p = tmp_path / "bad.gcm"
    p.write_text("2\n2 -1\n-1 x\n")
    code, _, err = run_cli(capsys, "classify", "--gcm", str(p))
    assert code == 2 and "line 3" in err


# ------------------------------------------------------------- roots/sigma ---


def test_roots_sorted_and_valid(capsys, write_gcm):
    code, payload, _ = run_json(capsys, "roots", "--gcm", write_gcm(B2), "--height-cap", "10")
    assert code == 0 and len(payload) == 8
    heights = [sum(abs(c) for c in e["coeffs"]) for e in payload]
    assert heights == sorted(heights)
    _validate(payload)


def test_sigma_full(capsys, write_gcm):
    code, payload, _ = run_json(capsys, "sigma", "--gcm", write_gcm(A2))
    assert code == 0
    assert payload["sigma"] == [[1, 0], [0, 1], [-1, -1]]
    assert len(payload["certificates"]) == 3
    _validate(payload)


def test_sigma_pseudo(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "sigma", "--gcm", write_gcm(A2), "--pseudo", "1,2"
    )
    assert code == 0 and payload["index_set"] == [1, 2]
    _validate(payload)


def test_sigma_pseudo_bad_list(capsys, write_gcm):
    code, _, err = run_cli(capsys, "sigma", "--gcm", write_gcm(A2), "--pseudo", "1,x")
    assert code == 2 and "--pseudo" in err


def test_sigma_not_two_spherical(capsys, write_gcm):
    code, _, err = run_cli(capsys, "sigma", "--gcm", write_gcm(NOT_2SPH))
    assert code == 2 and "NotTwoSpherical" in err


# ---------------------------------------------------------- bounds/certify ---


def test_bounds_all_below(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "bounds", "--gcm", write_gcm(A2), "--ring", "Z/5"
    )
    assert code == 0 and payload["verdict"] == "AllBelow"
    _validate(payload)


def test_bounds_fails(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "bounds", "--gcm", write_gcm(B2), "--ring", "Z/5"
    )
    assert code == 1 and payload["verdict"] == "Fails"
    _validate(payload)


def test_bounds_ring_parse_error(capsys, write_gcm):
    code, _, err = run_cli(capsys, "bounds", "--gcm", write_gcm(A2), "--ring", "Z/x")
    assert code == 2 and "col 3" in err


def test_certify_verdicts(capsys, write_gcm):
    code, payload, _ = run_json(
        capsys, "certify", "--gcm", write_gcm(A2), "--ring", "Z/5"
    )
    assert code == 0 and payload["verdict"] == "certified"
    _validate(payload)

    code, payload, _ = run_json(
        capsys, "certify", "--gcm", write_gcm(B2), "--ring", "Z/5"
    )
    assert code == 1 and payload["verdict"] == "failed"
    _validate(payload)

    code, payload, _ = run_json(
        capsys, "certify", "--gcm", write_gcm(B2), "--ring", "Z/53"
    )
    assert code == 0 and payload["verdict"] == "certified"
    _validate(payload)


# ----------------------------------------------------------------- verify ---


def test_verify_chevalley(capsys):
    code, payload, _ = run_json(capsys, "verify", "chevalley", "--type", "a2", "--q", "3")
    assert code == 0 and payload["ok"]
    _validate(payload)


def test_verify_generation(capsys):
    code, payload, _ = run_json(capsys, "verify", "generation", "--group", "sl3", "--q", "2")
    assert code == 0 and payload["ok"]
    assert payload["order"] == 168
    _validate(payload)


def test_verify_generation_non_prime_modulus(capsys):
    code, out, err = run_cli(capsys, "verify", "generation", "--group", "sl3", "--q", "4")
    assert code == 2 and out == ""
    assert "BadModulus" in err


def test_verify_affine(capsys):
    code, payload, _ = run_json(capsys, "verify", "affine", "--d", "3", "--q", "3")
    assert code == 0 and payload["ok"]
    _validate(payload)


def test_verify_symrep(capsys):
    code, payload, _ = run_json(capsys, "verify", "symrep", "--n", "4", "--q", "7")
    assert code == 0 and payload["ok"]
    _validate(payload)


def test_verify_transport(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "transport", "--q", "5", "--samples", "100", "--seed", "0"
    )
    assert code == 0 and payload["ok"]
    names = [c["name"] for c in payload["checks"]]
    assert "dag_acyclic" in names  # ledger checks merged in
    _validate(payload)


def test_verify_transport_bad_modulus(capsys):
    code, out, err = run_cli(capsys, "verify", "transport", "--q", "6")
    assert code == 2 and out == ""
    assert "modulus must be coprime to 6" in err


# ------------------------------------------------------------ output modes ---


def test_reruns_byte_identical(capsys, write_gcm):
    path = write_gcm(A2)
    _, out1, _ = run_cli(capsys, "classify", "--gcm", path)
    _, out2, _ = run_cli(capsys, "classify", "--gcm", path)
    assert out1 == out2
    _, t1, _ = run_cli(capsys, "verify", "transport", "--q", "5", "--samples", "50")
    _, t2, _ = run_cli(capsys, "verify", "transport", "--q", "5", "--samples", "50")
    assert t1 == t2


def test_text_format(capsys, write_gcm):
    code, out, _ = run_cli(
        capsys, "--format", "text", "classify", "--gcm", write_gcm(A2)
    )
    assert code == 0
    assert "kind: Spherical" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
