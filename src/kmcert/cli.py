"""Command-line entry point.

Commands print one JSON document to stdout (sorted keys, so reruns are
byte-identical for the same inputs and seed); diagnostics go to stderr.
Exit codes: 0 success / certified, 1 a verdict or check that did not reach
"certified" (Boundary included; the payload distinguishes), 2 bad input or
a reader that closed stdout early (no traceback is printed).

No domain module is imported at the top: each command handler imports the
modules it runs, so a process compiles only those, and `import kmcert.cli`
loads `kmcert`, `kmcert.cli` and `kmcert.errors` alone. `verify transport`,
for one, never compiles chevalley or the bounds chain.

`_COMMANDS` is the one table of commands.  A plain argv is read straight from
it: an optional leading `--format json|text`, the command words, then
`--flag value` pairs, each flag of the command's row in full and at most
once, no value starting with "-", every type, choices and required rule met.
Any other argv (help, usage errors, abbreviations, `--flag=value`) goes to
the argparse tree built from it.  No parser or cache outlives a call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CertificationFailed, KmcertError, ParseError

EXIT_OK = 0
EXIT_UNPROVEN = 1
EXIT_INPUT = 2


def _read_gcm(path):
    from . import gcm as gc
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


def _to_json(obj, pad="\n", prefixes=None):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    Before Python 3.13 json takes a pure-Python path for any indent; this
    writes every str, int, finite float, bool and None itself.  `prefixes`,
    new in each top-level call, holds a dict's sorted `"key": ` prefixes by
    key tuple, all-str only: 0, 0.0 and False are equal keys that print apart."""
    if isinstance(obj, str):
        return _string(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is float and obj - obj == 0:
        return float.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    inner = pad + "  "
    prefixes = {} if prefixes is None else prefixes
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = [_to_json(x, inner, prefixes) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = tuple(obj)
        keyed = prefixes.get(keys)
        if keyed is None:
            keyed = [(k, _string(_key(k)) + ": ") for k in sorted(keys)]
            if all(type(k) is str for k in keys):
                prefixes[keys] = keyed
        items = []
        for k, prefix in keyed:
            v = obj[k]
            items.append(prefix + (_string(v) if type(v) is str else
                                   int.__repr__(v) if type(v) is int else _to_json(v, inner, prefixes)))
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
    from . import gcm as gc
    gcm = _read_gcm(args.gcm)
    return gc.classify(gcm).as_dict(), EXIT_OK


def _cmd_roots(args):
    from . import roots as rt
    gcm = _read_gcm(args.gcm)
    slice_ = rt.enumerate_real_roots(gcm, args.height_cap)
    entries = sorted(slice_.entries.values(), key=lambda e: (rt.height(e.root), e.root))
    return [e.as_dict() for e in entries], EXIT_OK


def _cmd_sigma(args):
    from . import sigma as sg
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
    from . import bounds as bd
    from . import sigma as sg
    gcm = _read_gcm(args.gcm)
    ring = bd.parse_ring_spec(args.ring)
    sigma = sg.build_sigma(gcm)
    certs = sg.certify_pairs(sigma)
    report = bd.bound_report(gcm, certs, sigma.size, ring.m, ring)
    code = EXIT_OK if report.verdict == bd.ALL_BELOW else EXIT_UNPROVEN
    return report.as_dict(), code


def _cmd_certify(args):
    from . import bounds as bd
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


@_suite
def _cmd_verify_chevalley(args):
    from . import chevalley as ch
    return ch.chevalley_report(args.type.upper(), args.q, seed=args.seed)


@_suite
def _cmd_verify_generation(args):
    from . import chevalley as ch
    return ch.sigma_generation_report(args.group, args.q)


@_suite
def _cmd_verify_affine(args):
    from . import chevalley as ch
    return ch.affine_pi_check(args.d, args.q, window=args.window)


@_suite
def _cmd_verify_symrep(args):
    from . import symrep as sr
    return sr.symrep_report(args.n, args.q)


@_suite
def _cmd_verify_transport(args):
    from . import symrep as sr
    return sr.check_transport(args.q, samples=args.samples, seed=args.seed).merge(sr.ledger_check())


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
        "rank-2 engine checks", _cmd_verify_chevalley,
        [("--type", dict(choices=("a2", "b2", "g2"), required=True)), _int("--q", 5), _int("--seed", 0)]),
    ("verify", "generation"): (
        "Sigma subgroup closure orders", _cmd_verify_generation,
        [("--group", dict(choices=("sl3", "sp4"), required=True)), ("--q", dict(type=int, required=True))]),
    ("verify", "affine"): (
        "loop-group image relation checks", _cmd_verify_affine,
        [_int("--d", 3), _int("--q", 5), _int("--window", 6)]),
    ("verify", "symrep"): (
        "shear matrix and oracle checks", _cmd_verify_symrep, [_int("--n", 4), _int("--q", 5)]),
    ("verify", "transport"): (
        "seeded region transport sampling", _cmd_verify_transport,
        [_int("--q", 5), _int("--samples", 10**4), _int("--seed", 0)]),
}


def _plain_args(argv):
    """`build_parser().parse_args(argv)` read straight from `_COMMANDS` for a
    plain argv (see the module docstring); None for any other."""
    fmt, words = (argv[1:2], argv[2:]) if argv[:1] == ["--format"] else (["json"], argv)
    if fmt not in (["json"], ["text"]):
        return None
    n = 2 if words[:1] == ["verify"] else 1
    _, func, arguments = _COMMANDS.get(tuple(words[:n]), (None, None, None))
    pairs = words[n:]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if func is None or len(pairs) != 2 * len(given) or any(v.startswith("-") for v in given.values()):
        return None
    args = argparse.Namespace(format=fmt[0], command=words[0], func=func)
    if n == 2:
        args.suite = words[1]
    for flag, kw in arguments:
        value = given.pop(flag, kw.get("default"))
        if isinstance(value, str):
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
        if value is None and kw.get("required") or value not in kw.get("choices", (value,)):
            return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return None if given else args


def build_parser():
    """The full argparse tree, for the argvs `_plain_args` leaves to it."""
    p = argparse.ArgumentParser(prog="kmcert")
    p.add_argument("--format", choices=("json", "text"), default="json")
    parsers, levels = {(): p}, {}
    for words, (help_, func, arguments) in _COMMANDS.items():
        up = words[:-1]
        if up not in levels:
            levels[up] = parsers[up].add_subparsers(dest="suite" if up else "command", required=True)
        c = parsers[words] = levels[up].add_parser(words[-1], help=help_)
        for flag, kw in arguments:
            c.add_argument(flag, **kw)
        if func is not None:
            c.set_defaults(func=func)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
