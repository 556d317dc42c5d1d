"""Spans around the calls into each kmcert layer, installed from outside.

The tracer replaces module attributes and methods with timing wrappers for
the duration of a traced run and restores them afterwards; `src/` is not
edited. Each span records (id, parent id, operation index, name, start,
end, count, products). A call nested inside an open span of the same name (for
example QuotientEngine.collect calling UnipotentEngine.collect) is not
recorded again, so each logical call is counted once.

Per-layer values are sums over one operation's spans. `symrep.transport_s`
is the self time of check_transport: its duration minus its sample_region
children.
"""

from __future__ import annotations

import functools
import time

# metric -> how a span contributes: "time" adds its duration, "count" adds
# its count field, "calls" adds one
LAYER_METRICS = {
    "cli.parse_s": ("parse", "time"),
    "cli.emit_s": ("emit", "time"),
    "gcm.classify_s": ("classify", "time"),
    "roots.enumerate_s": ("enumerate_real_roots", "time"),
    "roots.entries": ("enumerate_real_roots", "count"),
    "sigma.build_s": ("build_sigma", "time"),
    "sigma.certify_pairs_s": ("certify_pairs", "time"),
    "sigma.pairs": ("certify_pairs", "count"),
    "bounds.report_s": ("bound_report", "time"),
    "chevalley.collect_s": ("collect", "time"),
    "chevalley.collect_calls": ("collect", "calls"),
    "chevalley.bfs_closure_s": ("bfs_closure", "time"),
    "chevalley.closure_elements": ("bfs_closure", "count"),
    "chevalley.closure_products": ("bfs_closure", "products"),
    "chevalley.affine_s": ("affine_pi_check", "time"),
    "symrep.sample_region_s": ("sample_region", "time"),
    "symrep.samples": ("sample_region", "calls"),
    "symrep.transport_s": ("check_transport", "self"),
    "symrep.symrep_report_s": ("symrep_report", "time"),
}
UNITS = {name: ("s" if name.endswith("_s") else "count") for name in LAYER_METRICS}


def _targets(km):
    """(owner, attribute, span name, count function) for every wrapped call.

    A name imported into another module (bounds imports classify and
    enumerate_real_roots) is wrapped at each place it is looked up.
    """
    bd, ch, cli, gc, rt, sg, sr = km.bounds, km.chevalley, km.cli, km.gcm, km.roots, km.sigma, km.symrep
    return [
        (gc, "parse_gcm_text", "parse", None),
        (bd, "parse_ring_spec", "parse", None),
        (cli, "_emit", "emit", None),
        (bd.Certificate, "as_dict", "emit", None),
        (km.report.CheckReport, "as_dict", "emit", None),
        (gc, "classify", "classify", None),
        (bd, "classify", "classify", None),
        (rt, "enumerate_real_roots", "enumerate_real_roots", len),
        (bd, "enumerate_real_roots", "enumerate_real_roots", len),
        (sg, "build_sigma", "build_sigma", None),
        (sg, "certify_pairs", "certify_pairs", len),
        (bd, "bound_report", "bound_report", None),
        (ch.UnipotentEngine, "collect", "collect", None),
        (ch.QuotientEngine, "collect", "collect", None),
        (ch, "bfs_closure", "bfs_closure", lambda res: res.order),
        (ch, "affine_pi_check", "affine_pi_check", None),
        (sr, "sample_region", "sample_region", None),
        (sr, "check_transport", "check_transport", None),
        (sr, "symrep_report", "symrep_report", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, t0, t1, count, products)
        self.op = -1
        self._stack = []  # open (span id, name)
        self._saved = []

    def _wrap(self, fn, name, count):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if any(n == name for _, n in stack):
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else None
            products = None
            if name == "bfs_closure":
                # closure products are computed, not timed: order x generators
                gens = list(args[0])
                args = (gens,) + args[1:]
                products = len(gens)
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            n = count(result) if count else None
            if products is not None:
                products *= n
            tracer.spans[sid] = (sid, parent, tracer.op, name, t0, t1, n, products)
            return result

        return wrapper

    def install(self, km):
        for owner, attr, name, count in _targets(km):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def totals_by_op(self):
        """{operation index: {per-layer metric: value}} over all spans."""
        spans = [s for s in self.spans if s is not None]  # None: the call raised
        child_time = {}
        for sid, parent, _op, _name, t0, t1, _n, _p in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        by_op = {}
        for sid, _parent, op, name, t0, t1, n, products in spans:
            agg = by_op.setdefault(op, {}).setdefault(
                name, {"time": 0.0, "self": 0.0, "count": 0, "calls": 0, "products": 0}
            )
            agg["time"] += t1 - t0
            agg["self"] += t1 - t0 - child_time.get(sid, 0.0)
            agg["count"] += n or 0
            agg["products"] += products or 0
            agg["calls"] += 1
        return {
            op: {metric: names.get(name, {}).get(field, 0) for metric, (name, field) in LAYER_METRICS.items()}
            for op, names in by_op.items()
        }
