"""Benchmark for borsuk: four seeded workloads, each a closed loop with one
client in a single process.

    python3 perfbench/run.py --workload doubling --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; borsuk is imported from its
``src`` directory, and the run fails if that is missing. With
``--trace 0`` the loop runs until ``--seconds`` have passed (and at least
the fixed digest prefix of the request list, ending on a whole round of
the pool) and prints the end-to-end metrics, whose times are scaled to a
reference machine speed by a probe run between requests (see ``probe``).
With ``--trace 1`` the fixed prefix runs once untraced and once with
spans recorded around borsuk's public functions, and the per-layer
metrics are printed, as wall times. Every output is checked; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A workload's known-failing
input runs once after the requests and is reported on its own line; it
is not one of the requests.
Inputs, spans and request outputs go to ``perfbench/out``.

See ``perfbench/BASELINE.json`` for why each workload exists, what each
layer metric is predicted to move, and the numbers at the seed commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

try:
    import workloads  # puts this checkout's src first on sys.path
    import spans
except ImportError as exc:
    sys.exit(f"perfbench: cannot import borsuk from this checkout: {exc}")

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
PROBE_TERMS = 1500
# The probe's fastest time on a 2-vCPU x86-64 Linux container under
# Python 3.11.7; a scaled time is the time at the speed at which the
# probe takes this long.
PROBE_REFERENCE_S = 0.0075
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import borsuk; print(time.perf_counter() - t)"
)


def probe():
    """Time a fixed piece of pure-Python Fraction arithmetic, the kind of
    work borsuk does. The code is the benchmark's own, so a change to
    borsuk cannot move it; its time tracks how fast the shared machine
    runs Python at that moment, which drifts by up to 2x within minutes.
    Dividing a wall time by ``probe time / PROBE_REFERENCE_S`` around it
    gives the time at the reference speed."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload, seed):
    """Import borsuk (in a fresh interpreter), generate the inputs and write
    them, SETUP_REPEATS times; returns the pool, the known-failing input and
    the median set-up time at the reference speed."""
    inputs_path = OUT / f"inputs-{workload}-{seed}.json"
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        imported = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(workloads.SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        t0 = time.perf_counter()
        pool = workloads.make_pool(workload, seed)
        defect = workloads.make_known_defect(workload, seed)
        inputs = {"requests": [r.inputs for r in pool]}
        if defect is not None:
            inputs["known_defect"] = dict(defect.request.inputs, why=defect.why)
        inputs_path.write_text(json.dumps(inputs))
        wall = float(imported.stdout) + time.perf_counter() - t0
        times.append(wall * 2 * PROBE_REFERENCE_S / (before + probe()))
    return pool, defect, statistics.median(times)


class Loop:
    """Outcome of requests run in order, one at a time.

    With ``calibrate``, a probe runs after each request, and each request's
    times are also kept scaled by the mean of the probes on either side.
    """

    def __init__(self, calibrate=False):
        self.latencies = []  # seconds; a failed request counts as infinitely slow
        self.times = []  # seconds per request, checks and failed requests included
        self.slowdowns = []  # probe time over PROBE_REFERENCE_S, per request
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # requests whose output failed the check
        self.unexpected = []  # requests that raised
        self.digest = hashlib.sha256()
        self._last_probe = probe() if calibrate else None

    def run(self, spec, req, j, out_path, tracer=None, in_digest=True):
        """Run request ``j`` and check its output."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = spec.execute(req, out_path)
            else:
                with tracer.request(j):
                    raw = spec.execute(req, out_path)
            latency = time.perf_counter() - t0
            units, output = spec.check(req, raw, out_path)
        except workloads.CheckFailed as exc:
            self.failed += 1
            self.wrong.append(f"request {j}: {exc}")
            output, latency = f"wrong: {exc}".encode(), float("inf")
        except Exception as exc:  # the request failed; record it and go on
            self.failed += 1
            self.unexpected.append(f"request {j}: {type(exc).__name__}: {exc}")
            output, latency = f"error: {type(exc).__name__}".encode(), float("inf")
        else:
            self.units += units
        self.times.append(time.perf_counter() - t0)
        self.latencies.append(latency)
        if self._last_probe is not None:
            after = probe()
            self.slowdowns.append((self._last_probe + after) / (2 * PROBE_REFERENCE_S))
            self._last_probe = after
        if in_digest:
            self.digest.update(hashlib.sha256(output).digest())

    def scaled(self, values):
        """``values`` (one per request) at the reference speed."""
        return [v / s for v, s in zip(values, self.slowdowns)]


def run_timed(spec, pool, seconds, out_path):
    """Closed loop: the next request starts when the previous one is checked.

    Stops after ``seconds`` once the fixed prefix of the request list has
    run, at the end of a round, so every run times the pool's mix of
    cheap and costly requests in the same proportions; the outputs of
    the prefix make up the digest.
    """
    warm = Loop()  # one request before timing, so lazy set-up is not timed
    warm.run(spec, pool[0], -1, out_path, in_digest=False)
    loop = Loop(calibrate=True)
    loop.wrong += warm.wrong
    loop.unexpected += warm.unexpected
    start = time.perf_counter()
    j = 0
    while j < spec.trace_requests or j % spec.round_size or time.perf_counter() - start < seconds:
        loop.run(spec, pool[j % len(pool)], j, out_path, in_digest=j < spec.trace_requests)
        j += 1
    return loop


def run_traced(spec, pool, out_path):
    """Each request of the fixed prefix once untraced and once traced, in
    alternating order, so warm-up does not bias the tracing overhead."""
    plain, traced, tracer = Loop(), Loop(), spans.Tracer()
    for j in range(spec.trace_requests):
        req = pool[j % len(pool)]
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.run(spec, req, j, out_path, tracer)
            else:
                plain.run(spec, req, j, out_path)
    return plain, traced, tracer


def run_known_defect(spec, defect, out_path):
    """Run the known-failing input once; returns a problem, or None if it
    still fails the known way or now passes the workload's check."""
    try:
        spec.check(defect.request, spec.execute(defect.request, out_path), out_path)
    except defect.error:
        print(f"known defect still present: {defect.why}")
        return None
    except Exception as exc:
        return f"known-defect input: {type(exc).__name__}: {exc}"
    print(f"known defect fixed, output checks: {defect.why}")
    return None


def report(workload, seed, mode, loop):
    print(
        f"{workload} seed={seed} {mode}: requests={loop.attempted} units={loop.units} "
        f"failed={loop.failed} digest={loop.digest.hexdigest()}"
    )
    if loop.slowdowns:
        print(
            f"  wall time: instances_per_s={loop.units / sum(loop.times):.4f} "
            f"latency_p50_ms={statistics.median(loop.latencies) * 1e3:.3f}; "
            f"machine slowdown median={statistics.median(loop.slowdowns):.3f} "
            f"range={min(loop.slowdowns):.3f}-{max(loop.slowdowns):.3f}"
        )
    for line in loop.wrong + loop.unexpected:
        print(f"  {line}", file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"output-{args.workload}-{os.getpid()}.json"
    pool, defect, setup_s = setup(args.workload, args.seed)
    spec = workloads.REGISTRY[args.workload]
    if args.trace:
        plain, loop, tracer = run_traced(spec, pool, out_path)
        if plain.digest.digest() != loop.digest.digest():
            plain.wrong.append("traced outputs differ from untraced outputs")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        report(args.workload, args.seed, "untraced", plain)
        report(args.workload, args.seed, "traced", loop)
        for name, share in spans.layer_shares(tracer.spans).items():
            print(f"  share of request time: {name} {share:.3f}")
        # requests run in traced/untraced pairs; the median pair ratio is
        # steadier than the ratio of sums, though still within the noise
        # on this few requests
        overhead = statistics.median(t / u for t, u in zip(loop.times, plain.times)) - 1
        layer = spans.layer_metrics(tracer.spans, overhead)
        metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
        loops = (plain, loop)
    else:
        loop = run_timed(spec, pool, args.seconds, out_path)
        report(args.workload, args.seed, "timed", loop)
        metrics = {
            "instances_per_s": metric(loop.units / sum(loop.scaled(loop.times)), "1/s"),
            "latency_p50_ms": metric(statistics.median(loop.scaled(loop.latencies)) * 1e3, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        loops = (loop,)
    problem = run_known_defect(spec, defect, out_path) if defect is not None else None
    if problem is not None:
        print(f"  {problem}", file=sys.stderr)
    out_path.unlink(missing_ok=True)
    result = {
        "correct": problem is None and not any(l.wrong or l.unexpected for l in loops),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
