"""Command-line entry point.

Commands print one JSON document to stdout (sorted keys, so reruns are
byte-identical for the same inputs and seed); diagnostics go to stderr.
Exit codes: 0 success / certified, 1 a verdict or check that did not reach
"certified" (Boundary included; the payload distinguishes), 2 bad input or
a reader that closed stdout early (no traceback is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as bd
from . import chevalley as ch
from . import gcm as gc
from . import roots as rt
from . import sigma as sg
from . import symrep as sr
from .errors import CertificationFailed, KmcertError, ParseError

EXIT_OK = 0
EXIT_UNPROVEN = 1
EXIT_INPUT = 2


def _read_gcm(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", line=1)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1)
    return gc.parse_gcm_text(text)


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in _text_lines(payload):
            print(line)


def _text_lines(obj, key=None, indent=0):
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(obj, dict):
        if key is not None:
            yield f"{pad}{key}:"
        for k in sorted(obj):
            yield from _text_lines(obj[k], k, indent + (key is not None))
    elif isinstance(obj, list):
        if key is not None:
            yield f"{pad}{key}:"
        for item in obj:
            if isinstance(item, (dict, list)):
                yield from _text_lines(item, None, indent + 1)
                yield f"{pad}  -"
            else:
                yield f"{pad}  - {item}"
    else:
        yield f"{pad}{label}{obj}"


def _check_exit(report):
    return EXIT_OK if report.ok else EXIT_UNPROVEN


# ------------------------------------------------------------- commands ---


def _cmd_classify(args):
    gcm = _read_gcm(args.gcm)
    return gc.classify(gcm).as_dict(), EXIT_OK


def _cmd_roots(args):
    gcm = _read_gcm(args.gcm)
    slice_ = rt.enumerate_real_roots(gcm, args.height_cap)
    entries = sorted(slice_.entries.values(), key=lambda e: (rt.height(e.root), e.root))
    return [e.as_dict() for e in entries], EXIT_OK


def _cmd_sigma(args):
    gcm = _read_gcm(args.gcm)
    if args.pseudo:
        try:
            index_set = [int(t) for t in args.pseudo.split(",")]
        except ValueError:
            raise ParseError(f"bad --pseudo list {args.pseudo!r}", line=1)
        sigma = sg.build_sigma_pseudo(gcm, index_set)
    else:
        sigma = sg.build_sigma(gcm)
    certs = sg.certify_pairs(sigma)
    payload = sigma.as_dict()
    payload["certificates"] = [c.as_dict() for c in certs]
    return payload, EXIT_OK


def _cmd_bounds(args):
    gcm = _read_gcm(args.gcm)
    ring = bd.parse_ring_spec(args.ring)
    sigma = sg.build_sigma(gcm)
    certs = sg.certify_pairs(sigma)
    report = bd.bound_report(gcm, certs, sigma.size, ring.min_ideal_index(), ring)
    code = EXIT_OK if report.verdict == bd.ALL_BELOW else EXIT_UNPROVEN
    return report.as_dict(), code


def _cmd_certify(args):
    gcm = _read_gcm(args.gcm)
    ring = bd.parse_ring_spec(args.ring)
    cert = bd.certify_property_T(gcm, ring)
    return cert.as_dict(), EXIT_OK if cert.certified else EXIT_UNPROVEN


def _cmd_verify_chevalley(args):
    typ = {"a2": "A2", "b2": "B2", "g2": "G2"}[args.type]
    rep = ch.chevalley_report(typ, args.q, seed=args.seed)
    return rep.as_dict(), _check_exit(rep)


def _cmd_verify_generation(args):
    rep = ch.sigma_generation_report(args.group, args.q)
    return rep.as_dict(), _check_exit(rep)


def _cmd_verify_affine(args):
    rep = ch.affine_pi_check(args.d, args.q, window=args.window)
    return rep.as_dict(), _check_exit(rep)


def _cmd_verify_symrep(args):
    rep = sr.symrep_report(args.n, args.q)
    return rep.as_dict(), _check_exit(rep)


def _cmd_verify_transport(args):
    rep = sr.check_transport(args.q, samples=args.samples, seed=args.seed)
    rep.merge(sr.ledger_check())
    return rep.as_dict(), _check_exit(rep)


def build_parser():
    p = argparse.ArgumentParser(prog="kmcert")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a GCM file")
    c.add_argument("--gcm", required=True)
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("roots", help="real-root slice up to a height cap")
    c.add_argument("--gcm", required=True)
    c.add_argument("--height-cap", type=int, default=12)
    c.set_defaults(func=_cmd_roots)

    c = sub.add_parser("sigma", help="Sigma generating set with certificates")
    c.add_argument("--gcm", required=True)
    c.add_argument("--pseudo", default=None, metavar="I", help="comma-separated vertex subset")
    c.set_defaults(func=_cmd_sigma)

    c = sub.add_parser("bounds", help="pair bound report for a GCM over a ring")
    c.add_argument("--gcm", required=True)
    c.add_argument("--ring", required=True)
    c.set_defaults(func=_cmd_bounds)

    c = sub.add_parser("certify", help="full property (T) hypothesis checklist")
    c.add_argument("--gcm", required=True)
    c.add_argument("--ring", required=True)
    c.set_defaults(func=_cmd_certify)

    v = sub.add_parser("verify", help="self-contained verification suites")
    vsub = v.add_subparsers(dest="suite", required=True)

    c = vsub.add_parser("chevalley", help="rank-2 engine checks")
    c.add_argument("--type", choices=("a2", "b2", "g2"), required=True)
    c.add_argument("--q", type=int, default=5)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_verify_chevalley)

    c = vsub.add_parser("generation", help="Sigma subgroup closure orders")
    c.add_argument("--group", choices=("sl3", "sp4"), required=True)
    c.add_argument("--q", type=int, required=True)
    c.set_defaults(func=_cmd_verify_generation)

    c = vsub.add_parser("affine", help="loop-group image relation checks")
    c.add_argument("--d", type=int, default=3)
    c.add_argument("--q", type=int, default=5)
    c.add_argument("--window", type=int, default=6)
    c.set_defaults(func=_cmd_verify_affine)

    c = vsub.add_parser("symrep", help="shear matrix and oracle checks")
    c.add_argument("--n", type=int, default=4)
    c.add_argument("--q", type=int, default=5)
    c.set_defaults(func=_cmd_verify_symrep)

    c = vsub.add_parser("transport", help="seeded region transport sampling")
    c.add_argument("--q", type=int, default=5)
    c.add_argument("--samples", type=int, default=10**4)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_verify_transport)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNPROVEN
    except KmcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's fd goes to devnull so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
