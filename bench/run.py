"""kmcert benchmark: README commands through `kmcert.cli.main`, closed loop.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. One process and one thread replay a seeded
round of operations until --seconds have passed, always finishing the round
it is in. Each operation is one CLI call made in-process with stdout
captured, so argument parsing, validation, the computation and the JSON
dump are all timed. The first round's outputs are checked against the
independent oracles in oracles.py and the JSON schema; later rounds must
reproduce the first round byte for byte.

Times are reported in reference seconds: each measured time is multiplied
by REFERENCE_S / c, where c is the time of a fixed pure-Python calibration
loop (calibrate() below) measured just before and just after it. On the
2-vCPU host of the reference figures in README.md, speed changes by 30 %
and more from one minute to the next, and the calibration loop slows down
with it; the scaled figures repeat between runs where the raw ones do not.
stderr shows both.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics, writes the spans to bench/out/
and reports the tracing overhead on stderr and in that file.
--smoke runs a small version of the workload, once, with every check.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("certify", "rank2", "transport")
COLD_STARTS = 12
# Reference seconds: a measured time scaled to a machine on which one
# calibrate() call takes exactly this long. Changing calibrate() or this
# constant changes every reported time.
REFERENCE_S = 0.001


def calibrate():
    """Fixed interpreter work: tuples, a dict, small-integer arithmetic."""
    d = {}
    acc = 0
    for i in range(1500):
        t = (i, i * 7 % 13, i ^ 5)
        d[t] = d.get(t[1], 0) + i
        acc += sum(t) % 11
    return acc


def calibration_s():
    """Least of three calibrate() times."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        calibrate()
        best = min(best, time.perf_counter() - t0)
    return best


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


class ColdStarts:
    """Times of fresh `python -c "import kmcert.cli"` processes.

    The starts are spread over the run, between operations, so that they
    see the same machine as the operations do. One unmeasured start comes
    first, so byte-compiling the sources is not counted.
    """

    def __init__(self, count, seconds):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = count
        self.gap = seconds / count
        self.raw = []
        self.scaled = []
        self._start()
        self.next_at = time.perf_counter()

    def _start(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kmcert.cli"], env=self.env, cwd=ROOT, check=True, timeout=60)
        return time.perf_counter() - t0

    def take(self, cal_before):
        """One measured start; returns the calibration time taken after it."""
        t = self._start()
        cal_after = calibration_s()
        self.raw.append(t)
        self.scaled.append(t * 2 * REFERENCE_S / (cal_before + cal_after))
        self.next_at += self.gap
        return cal_after

    def due(self):
        return len(self.raw) < self.count and time.perf_counter() >= self.next_at


def tail_percentile(n):
    """Highest whole percentile with at least ten of n operations beyond it."""
    return math.floor(100 * (1 - 10 / n)) if n > 10 else 50


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def per_op_medians(rounds):
    """Each operation's median over the rounds it succeeded in."""
    per_op = [[r[k] for r in rounds if r[k] is not None] for k in range(len(rounds[0]))]
    return [statistics.median(xs) for xs in per_op if xs]


class Runner:
    def __init__(self, cli, validator, ops):
        self.cli = cli
        self.validator = validator
        self.ops = ops
        self.reference = [None] * len(ops)  # first round: (exit code, stdout)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.scale = {}  # attempt index -> REFERENCE_S / calibration time
        self.tracer = None
        self.cold_starts = None

    def _call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return elapsed, code, out.getvalue()

    def _problems(self, k, code, text):
        op = self.ops[k]
        if self.reference[k] is not None:
            if (code, text) != self.reference[k]:
                return ["output differs from the first round"]
            return []
        self.reference[k] = (code, text)
        if code not in (0, 1):
            return [f"exit code {code}"]
        payload = json.loads(text)
        errs = [f"schema: {e.message}" for e in self.validator.iter_errors(payload)]
        return errs + op.check(payload, code)

    def round(self):
        """Run every operation once.

        Returns (raw, scaled) latencies by position, None where it failed.
        """
        raw, scaled = [], []
        cal_before = calibration_s()
        for k, op in enumerate(self.ops):
            attempt = self.attempted
            if self.tracer is not None:
                self.tracer.op = attempt
            self.attempted += 1
            elapsed = None
            try:
                elapsed, code, text = self._call(op.argv)
                errs = self._problems(k, code, text)
            except (Exception, SystemExit):
                errs = [traceback.format_exc(limit=3)]
            cal_after = calibration_s()
            self.scale[attempt] = 2 * REFERENCE_S / (cal_before + cal_after)
            if errs:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append((op, errs[:3]))
                elapsed = None
            raw.append(elapsed)
            scaled.append(None if elapsed is None else elapsed * self.scale[attempt])
            if self.cold_starts is not None and self.cold_starts.due():
                cal_after = self.cold_starts.take(cal_after)
            cal_before = cal_after
        return raw, scaled


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, seconds, smoke):
    """Whole rounds until `seconds` have passed; the end-to-end metrics."""
    n = len(runner.ops)
    runner.cold_starts = starts = ColdStarts(3 if smoke else COLD_STARTS, seconds)
    raw, scaled = [], []
    t_end = time.perf_counter() + seconds
    while not raw or (not smoke and time.perf_counter() < t_end):
        r, s = runner.round()
        raw.append(r)
        scaled.append(s)
    while len(starts.raw) < starts.count:
        starts.take(calibration_s())
    per_op = per_op_medians(scaled)
    if not per_op:
        fail("no operation succeeded")
    p = tail_percentile(n)
    print(
        f"bench: {len(raw)} rounds of {n} operations; tail = p{p} of {len(per_op)} per-operation medians\n"
        f"bench: raw seconds: round {sum(per_op_medians(raw)):.4f}, "
        f"cold start {statistics.median(starts.raw):.4f}",
        file=sys.stderr,
    )
    return {
        "setup_s": metric(statistics.median(starts.scaled), "s"),
        "wall_s": metric(sum(per_op), "s"),
        "latency_p50_s": metric(statistics.median(per_op), "s"),
        "latency_tail_s": metric(percentile(per_op, p), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner, kmcert, seconds, smoke, trace_file, header):
    """Untraced and traced rounds alternate, so that a drift in machine
    speed does not show up as tracing overhead; the per-layer metrics."""
    from tracer import UNITS, Tracer

    n = len(runner.ops)
    tracer = Tracer()
    plain, traced, firsts = [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or (not smoke and time.perf_counter() < t_end):
        plain.append(runner.round()[1])
        firsts.append(runner.attempted)
        runner.tracer = tracer
        tracer.install(kmcert)
        try:
            traced.append(runner.round()[1])
        finally:
            tracer.uninstall()
            runner.tracer = None
    by_op = tracer.totals_by_op()
    zero = dict.fromkeys(UNITS, 0)

    def value(attempt, name):
        v = by_op.get(attempt, zero)[name]
        return v * runner.scale[attempt] if UNITS[name] == "s" else v

    # like the latencies: each operation's median over the traced rounds
    # (counts repeat exactly from round to round)
    layers = {
        name: sum(statistics.median_low(value(f + k, name) for f in firsts) for k in range(n)) for name in UNITS
    }
    plain_wall, traced_wall = sum(per_op_medians(plain)), sum(per_op_medians(traced))
    overhead = traced_wall / plain_wall - 1
    print(
        f"bench: tracing overhead {100 * overhead:+.1f}% "
        f"(round {traced_wall:.3f} s traced, {plain_wall:.3f} s untraced; {len(traced)} rounds each)",
        file=sys.stderr,
    )
    with trace_file.open("w") as fh:
        summary = dict(
            header,
            ops_per_round=n,
            rounds_each=len(traced),
            untraced_round_s=plain_wall,
            traced_round_s=traced_wall,
            overhead=overhead,
            layers=layers,
            span_fields=["id", "parent", "op", "name", "t0", "t1", "count", "products"],
            note="layer times and round times are in reference seconds; span times are raw perf_counter seconds",
        )
        fh.write(json.dumps(summary) + "\n")
        for span in tracer.spans:
            if span is not None:
                fh.write(json.dumps(span) + "\n")
    return {name: metric(layers[name], UNITS[name]) for name in UNITS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small workload, one round, every check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kmcert" / "cli.py").is_file():
        fail(f"no kmcert sources under {ROOT / 'src'}; run from a checkout of the repository")
    schema_path = ROOT / "schema" / "report.json"
    if not schema_path.is_file():
        fail(f"missing {schema_path}")
    try:
        import jsonschema
    except ImportError:
        fail("jsonschema is needed to check the payloads (pip install -e '.[test]')")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import corpus
    import kmcert
    import kmcert.cli

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "certify":
            ops = corpus.certify_ops(args.seed, workdir, args.smoke)
        elif args.workload == "rank2":
            ops = corpus.rank2_ops(args.seed, args.smoke)
        else:
            ops = corpus.transport_ops(args.seed, args.smoke)
        validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
        runner = Runner(kmcert.cli, validator, ops)
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            header = {"workload": args.workload, "seed": args.seed}
            metrics = per_layer(runner, kmcert, args.seconds, args.smoke, trace_file, header)
        else:
            metrics = end_to_end(runner, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op, errs in runner.problems:
        print(f"bench: FAILED [{op.family}] {' '.join(op.argv)}", file=sys.stderr)
        for e in errs:
            print(f"    {e}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
