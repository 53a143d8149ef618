"""polydec benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; polydec is imported from ``src/``.
``--trace 0`` times a closed loop with one client for S seconds and prints
the end-to-end metrics; ``--trace 1`` runs a fixed set of ops untraced and
then traced and prints the per-layer metrics.  Every answer is checked.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter, deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 15  # set-up is timed this many times; the median is reported
MIN_OPS = 100       # so that at least ten latencies lie beyond the p90

# On a shared machine the CPU speed can drift by 2x within seconds, so every
# time is rescaled to a reference speed: it is multiplied by NOMINAL_S over
# the duration of a fixed calibration loop timed next to it.
NOMINAL_S = 0.0008     # the calibration loop's duration at reference speed
CALIBRATE_EVERY_S = 0.02


class _Term:
    __slots__ = ("exp", "coeff")

    def __init__(self, exp, coeff):
        self.exp = exp
        self.coeff = coeff


def _calibration_loop():
    """Fixed pure-Python work with polydec's mix of operations (modular
    list arithmetic, tuples, dict lookups, small objects, string building),
    using none of polydec's code."""
    size = 0
    for rep in range(10):
        a, b = list(range(rep, rep + 20)), list(range(5, 25))
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % 7
        seen = {}
        for k, c in enumerate(prod):
            seen[(k, c)] = seen.get((c, k), 0) + 1
        terms = [_Term(k, c) for k, c in enumerate(prod) if c]
        size += len(seen) + len("+".join(f"{t.coeff}*x^{t.exp}" for t in terms))
    return size


class Speed:
    """Machine speed, sampled with the calibration loop between ops."""

    def __init__(self):
        self.samples = deque(maxlen=5)
        self.last = -1.0

    def sample(self):
        t0 = time.perf_counter()
        _calibration_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self):
        """Factor from wall seconds to reference seconds, from the last
        five samples (for an op longer than CALIBRATE_EVERY_S, four before
        it and one after)."""
        return NOMINAL_S / statistics.median(self.samples)


class BudgetExceeded(BaseException):
    """Raised by the per-op alarm.  A BaseException, so that library code
    catching Exception (run_selftest does) cannot swallow it."""


def cut_by_budget(error):
    return error is not None and error.startswith("budget")


class Budget:
    """Wall-clock limit on one op, enforced with SIGALRM."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise BudgetExceeded

    def run(self, call):
        """(result, error or None, seconds) for one call."""
        try:
            t0 = time.perf_counter()
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, self.seconds)
                result, error = call(), None
            except BudgetExceeded:
                result, error = None, f"budget of {self.seconds:g} s exceeded"
            except Exception as exc:
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
            return result, error, time.perf_counter() - t0
        except BudgetExceeded:  # the alarm landed between return and disarm
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            return None, f"budget of {self.seconds:g} s exceeded", self.seconds


def set_up(wl_cls, speed):
    """Import polydec afresh and build the workload's fields.

    Returns (reference seconds, pd, fields).
    """
    for name in [m for m in sys.modules if m == "polydec" or m.startswith("polydec.")]:
        del sys.modules[name]
    speed.sample()
    speed.sample()
    t0 = time.perf_counter()
    pd = [importlib.import_module(m) for m in wl_cls.modules][0]
    fields = {spec: pd.parse_field_spec(spec) for spec in wl_cls.specs}
    seconds = time.perf_counter() - t0
    speed.sample()
    return seconds * speed.scale(), pd, fields


def execute(ops, budget, speed, tracer=None):
    """Run ops in order, one at a time.

    Returns (result, error, wall seconds, reference seconds) per op.
    """
    out = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i + 1)
        speed.maybe_sample()
        result, error, seconds = budget.run(op.call)
        speed.maybe_sample()
        # an op cut at its budget took the budget's wall time, whatever the speed
        scaled = seconds if cut_by_budget(error) else seconds * speed.scale()
        out.append((result, error, seconds, scaled))
    return out


def verify(ops, runs, budget):
    """Failure reason per op (None when the answer is right)."""
    reasons = []
    for op, (result, error, *_) in zip(ops, runs):
        if error is None:
            bad, check_error, _ = budget.run(lambda: op.check(result))
            error = bad or (check_error and f"check {check_error}")
        reasons.append(error)
    return reasons


def digest(ops, runs):
    h = hashlib.sha256()
    for op, (result, error, *_) in zip(ops, runs):
        text = f"error: {error}" if error else op.render(result)
        h.update(f"{op.mix}\n{text}\n\0".encode())
    return h.hexdigest()[:16]


def print_failures(tally):
    """One line per (mix entry, reason, known defect) with its count."""
    for (mix, reason, known), n in sorted(tally.items()):
        tag = "known defect" if known else "UNEXPECTED"
        print(f"  fail x{n} [{tag}] {mix}: {reason}")


def timed_run(wl, seed, seconds, budget, speed):
    """Whole passes until ``seconds`` of wall-clock op time and MIN_OPS ops.

    Each pass is checked and dropped before the next starts, and garbage is
    collected between passes, so the heap the timed ops see stays the same
    size however long the run.  Metrics use reference seconds.
    """
    lat, failures, passes, busy, wall = [], Counter(), 0, 0.0, 0.0
    failed = unexpected = 0
    pass0 = None
    while wall < seconds or len(lat) < MIN_OPS:
        ops = wl.pass_ops(passes)
        gc.collect()
        runs = execute(ops, budget, speed)
        if pass0 is None:
            pass0 = digest(ops, runs)
        for op, reason in zip(ops, verify(ops, runs, budget)):
            if reason:
                failed += 1
                unexpected += not op.known_defect
                failures[op.mix, reason, op.known_defect] += 1
        lat += [r[3] for r in runs]
        busy += sum(r[3] for r in runs)
        wall += sum(r[2] for r in runs)
        passes += 1
    lat.sort()
    n = len(lat)
    metrics = {
        "ops_s": (n / busy, "1/s"),
        "lat_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "lat_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }
    print(
        f"{wl.name} seed={seed}: {passes} passes, {n} ops in {wall:.2f} s of wall"
        f" time = {busy:.2f} reference s; digest of pass 0 = {pass0}"
    )
    print(
        f"  ops_s={metrics['ops_s'][0]:.3f} 1/s  lat_p50_ms={metrics['lat_p50_ms'][0]:.3f} ms"
        f" (n={n})  lat_p90_ms={metrics['lat_p90_ms'][0]:.3f} ms (n={n},"
        f" {sum(1 for x in lat if x * 1e3 > metrics['lat_p90_ms'][0])} beyond)"
        f"  fail_ratio={failed / n:.4f} ({failed}/{n}, {unexpected} unexpected)"
    )
    print_failures(failures)
    return metrics, n, failed, unexpected == 0


def traced_run(wl, seed, budget, speed, pd):
    from tracer import Tracer

    ops = [op for k in range(wl.trace_passes) for op in wl.pass_ops(k)]
    plain = execute(ops, budget, speed)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        for spec in wl.specs:  # field building, as in set-up
            pd.parse_field_spec(spec)
        traced = execute(ops, budget, speed, tracer)
    finally:
        tracer.uninstall()
    reasons = verify(ops, plain, budget)
    same = digest(ops, plain) == digest(ops, traced)
    failed = sum(1 for r in reasons if r)
    unexpected = sum(1 for op, r in zip(ops, reasons) if r and not op.known_defect)
    wall_plain = sum(r[3] for r in plain)
    wall_traced = sum(r[3] for r in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    # an op cut by its budget records as many spans as fit in the budget, so
    # only completed ops are counted, to keep the count repeatable
    completed = {i + 1 for i, run in enumerate(traced) if not cut_by_budget(run[1])}
    metrics["trace.spans"] = (
        sum(1 for op_id in tracer.span_op if op_id in completed), "count")
    print(
        f"{wl.name} seed={seed} traced: {len(ops)} ops, untraced {wall_plain:.2f} s,"
        f" traced {wall_traced:.2f} s (reference s), {len(tracer.span_end)} spans; digest"
        f" {digest(ops, plain)} untraced, {digest(ops, traced)} traced"
        f" ({'equal' if same else 'DIFFERENT'})"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    top = sorted(tracer.self_by_name.items(), key=lambda kv: -kv[1])[:8]
    print("  largest self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
    print_failures(
        Counter((op.mix, r, op.known_defect) for op, r in zip(ops, reasons) if r))
    return metrics, len(ops), failed, unexpected == 0 and same


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polydec", "__init__.py")):
        print(f"error: no polydec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl_cls = WORKLOADS[args.workload]
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, pd, fields = set_up(wl_cls, speed)
        setups.append(seconds)
    if not os.path.abspath(pd.__file__).startswith(SRC + os.sep):
        print(f"error: imported polydec from {pd.__file__}", file=sys.stderr)
        return 2
    wl = wl_cls(pd, fields, args.seed)
    budget = Budget(wl.budget_s)

    if args.trace:
        metrics, attempted, failed, correct = traced_run(wl, args.seed, budget, speed, pd)
    else:
        metrics, attempted, failed, correct = timed_run(
            wl, args.seed, args.seconds, budget, speed)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(
            f"  setup_s={metrics['setup_s'][0]:.4f} s (median of {SETUP_REPEATS})"
            f"  peak_rss_mb={metrics['peak_rss_mb'][0]:.1f} MB"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
