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


_string = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode  # floats, bools, None; TypeError for the rest
_LITERALS = {x: _scalar(x) for x in (None, True, False)}


def _key(key):
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _to_json(obj, pad="\n"):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    Before Python 3.13 json takes a pure-Python path for any indent; this
    writes a whole all-int list at once and leaves only the leaves to json.
    """
    if isinstance(obj, str):
        return _string(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_to_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_string(_key(k)) + ": " + _to_json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _scalar(obj)


def _emit(payload, fmt):
    if fmt == "json":
        print(_to_json(payload))
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
    if args.pseudo is not None:
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


def _suite(report):
    """A verify handler: exit 0 only when every check of `report(args)` passed."""
    def handler(args):
        rep = report(args)
        return rep.as_dict(), EXIT_OK if rep.ok else EXIT_UNPROVEN
    return handler


_GCM, _RING = ("--gcm", dict(required=True)), ("--ring", dict(required=True))


def _int(flag, default):
    return flag, dict(type=int, default=default)


# command words -> (help, handler, arguments) in usage order; a handler of
# None opens a level of suites, and an argument is (flag, add_argument keywords)
_COMMANDS = {
    ("classify",): ("classify a GCM file", _cmd_classify, [_GCM]),
    ("roots",): ("real-root slice up to a height cap", _cmd_roots, [_GCM, _int("--height-cap", 12)]),
    ("sigma",): ("Sigma generating set with certificates", _cmd_sigma,
                 [_GCM, ("--pseudo", dict(metavar="I", help="comma-separated vertex subset"))]),
    ("bounds",): ("pair bound report for a GCM over a ring", _cmd_bounds, [_GCM, _RING]),
    ("certify",): ("full property (T) hypothesis checklist", _cmd_certify, [_GCM, _RING]),
    ("verify",): ("self-contained verification suites", None, []),
    ("verify", "chevalley"): (
        "rank-2 engine checks", _suite(lambda a: ch.chevalley_report(a.type.upper(), a.q, seed=a.seed)),
        [("--type", dict(choices=("a2", "b2", "g2"), required=True)), _int("--q", 5), _int("--seed", 0)]),
    ("verify", "generation"): (
        "Sigma subgroup closure orders", _suite(lambda a: ch.sigma_generation_report(a.group, a.q)),
        [("--group", dict(choices=("sl3", "sp4"), required=True)), ("--q", dict(type=int, required=True))]),
    ("verify", "affine"): (
        "loop-group image relation checks", _suite(lambda a: ch.affine_pi_check(a.d, a.q, window=a.window)),
        [_int("--d", 3), _int("--q", 5), _int("--window", 6)]),
    ("verify", "symrep"): (
        "shear matrix and oracle checks", _suite(lambda a: sr.symrep_report(a.n, a.q)), [_int("--n", 4), _int("--q", 5)]),
    ("verify", "transport"): (
        "seeded region transport sampling",
        _suite(lambda a: sr.check_transport(a.q, samples=a.samples, seed=a.seed).merge(sr.ledger_check())),
        [_int("--q", 5), _int("--samples", 10**4), _int("--seed", 0)]),
}


def _named_path(argv):
    """The command words after any leading `--format` value (the option maybe
    abbreviated), if they name a handler in `_COMMANDS`; else None."""
    i = 0
    while i < len(argv) and argv[i].startswith("--f") and "--format".startswith(argv[i].partition("=")[0]):
        if "=" not in argv[i]:
            i += 1
            if i == len(argv) or argv[i].startswith("-"):
                return None
        i += 1
    for words in (tuple(argv[i:i + 2]), tuple(argv[i:i + 1])):
        if words in _COMMANDS and _COMMANDS[words][1]:
            return words
    return None


def build_parser(argv=None):
    """The full parser, or for an `argv` naming a command only its branch.

    A call parses one command, and argparse spends most of a build in each
    `ArgumentParser.__init__`: a branch is 2 parsers (3 for a verify suite)
    against 12, about a third of a certify call. For `argv` None or naming no
    command the full tree is built, so help and usage errors stay its own.
    """
    path = None if argv is None else _named_path(argv)
    p = argparse.ArgumentParser(prog="kmcert")
    p.add_argument("--format", choices=("json", "text"), default="json")
    parsers, levels = {(): p}, {}
    for words, (help_, func, arguments) in _COMMANDS.items():
        if path is not None and path[:len(words)] != words:
            continue
        up = words[:-1]
        if up not in levels:
            # a branch names its level's every choice in usage, as the full tree
            # does; the full tree keeps argparse's metavar, which errors quote
            names = "{%s}" % ",".join(w[-1] for w in _COMMANDS if w[:-1] == up)
            levels[up] = parsers[up].add_subparsers(
                dest="suite" if up else "command", required=True, metavar=None if path is None else names)
        c = parsers[words] = levels[up].add_parser(words[-1], help=help_)
        for flag, kw in arguments:
            c.add_argument(flag, **kw)
        if func is not None:
            c.set_defaults(func=func)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
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
