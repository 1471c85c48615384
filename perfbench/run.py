#!/usr/bin/env python3
"""Benchmark runner for gradix: one client, closed loop, one process.

    python3 perfbench/run.py --workload corpus-gf3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; gradix is imported from `src/`.  It
times each op (parse one generated `.gx` document, answer one
question about its ideal) from outside through gradix's public entry
points, runs whole cycles of rounds until `--seconds` of op time and at least
MIN_OPS ops are done, then checks every answer outside the timed region.
The last line of standard output is one JSON object:

  --trace 0  end-to-end metrics of an untraced run.
  --trace 1  an untraced run of half the time, then the same ops again
             with every layer wrapped; per-layer metrics of the traced
             pass and the tracing overhead.  Spans go to
             perfbench/traces/<workload>.spans.tsv.gz.

`--record` rebuilds perfbench/expected.json from the current code, and
`--self-test` checks the tracer on every workload; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from itertools import chain
from time import perf_counter

import tracer as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")
TRACES = os.path.join(HERE, "traces")

SETUP_REPEATS = 11
MIN_OPS = 100
MAX_BUSY_FACTOR = 5  # stop after this many times --seconds of op time, whatever the op count
# The speed of a shared machine drifts by 20% and more within a fraction of
# a second.  A fixed probe runs before and after every timed op, and the
# op's time is scaled by REF_PROBE_S over the geometric mean of those two
# probes: times are reported in calibrated seconds, those of a machine on
# which the probe takes exactly REF_PROBE_S.
REF_PROBE_S = 0.005

# Per-layer metrics that the prediction table in README.md expects to be
# nonzero on each workload; `--self-test` and every traced run check them.
EXPECT_NONZERO = {
    "corpus-gf3": [
        "groebner.buchberger.calls", "groebner.buchberger.self_s", "groebner.buchberger.out_polys",
        "groebner.normal_form.calls", "groebner.normal_form.self_s", "groebner.gb_cache_hit_ratio",
        "artin.quotient_basis.calls", "artin.quotient_basis.self_s", "artin.quotient_basis.dim_sum",
        "invsys.inverse_system.self_s", "invsys.decompose.self_s", "gxparser.parse_document.self_s",
    ],
    "index-ladder": [
        "artin.quotient_basis.calls", "artin.quotient_basis.self_s", "artin.quotient_basis.dim_sum",
        "artin.radical_certify.calls", "artin.radical_certify.self_s", "artin.minimal_polynomial.self_s",
        "artin.socle.self_s", "linalg.kernel_basis.calls", "linalg.kernel_basis.self_s",
        "linalg.kernel_basis.cells", "gxparser.parse_document.self_s",
    ],
    "star-qq": [
        "groebner.buchberger.calls", "groebner.buchberger.self_s", "groebner.buchberger.out_polys",
        "groebner.elim.calls", "star.truncated.calls", "star.truncated.self_s", "star.lambda.calls",
        "star.lambda.self_s", "star.homogeneous_piece.self_s", "reduc.local_min_generators.self_s",
        "reduc.index_of_star_ideal.self_s", "upoly.squarefree_part.self_s",
        "upoly.qq_irreducible.self_s", "gxparser.parse_document.self_s",
    ],
    "oracle-lattice": [
        "linalg.span_add.calls", "linalg.span_add.self_s", "oracle.enumerate_ideals.self_s",
        "oracle.oracle_index.self_s", "oracle.lattice_members", "gxparser.parse_document.self_s",
    ],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# calibration


def probe():
    """Fixed pure-Python work in gradix's mix, never changed: products of
    dict-of-tuple polynomials mod p, Fraction sums and dense row operations."""
    acc = 0
    for rep in range(6):
        f = {(i, j): (7 * i + j + rep) % 31 for i in range(7) for j in range(7)}
        prod = {}
        for m1, c1 in f.items():
            for m2, c2 in f.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                prod[m] = (prod.get(m, 0) + c1 * c2) % 32003
        acc += len(prod)
        q = Fraction(0)
        for k in range(1, 50):
            q += Fraction(k, k + 3 + rep)
        acc += q.denominator % 7
        rows = [[(3 * i + 5 * j + rep) % 101 for j in range(24)] for i in range(24)]
        for i in range(1, 24):
            c = rows[i][0]
            rows[i] = [(a - c * b) % 101 for a, b in zip(rows[i], rows[0])]
        acc += rows[-1][-1]
    return acc


def timed_probe():
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


class Calibrated:
    """Raw times and their calibrated values, each scaled by the probes
    taken just before and just after it."""

    def __init__(self):
        self.raw: list[float] = []
        self.cal: list[float] = []
        self.last = timed_probe()

    def add(self, dt):
        now = timed_probe()
        self.raw.append(dt)
        self.cal.append(dt * REF_PROBE_S / (self.last * now) ** 0.5)
        self.last = now


# ---------------------------------------------------------------------------
# set-up: importing the program


def import_program():
    """Import gradix and every layer module afresh; returns the seconds taken."""
    for name in [n for n in sys.modules if n == "gradix" or n.startswith("gradix.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("gradix")
    for layer in tr.LAYERS:
        importlib.import_module(f"gradix.{layer}")
    return perf_counter() - t0


def setup():
    """(gradix package, median calibrated import seconds over SETUP_REPEATS imports)."""
    if not os.path.isfile(os.path.join(SRC, "gradix", "__init__.py")):
        fail(f"no gradix sources under {SRC}; run from the root of a gradix checkout")
    sys.path.insert(0, SRC)
    times = Calibrated()
    for _ in range(SETUP_REPEATS):
        times.add(import_program())
    gx = sys.modules["gradix"]
    if os.path.dirname(os.path.dirname(os.path.abspath(gx.__file__))) != SRC:
        fail(f"imported gradix from {gx.__file__}, not from {SRC}")
    return gx, statistics.median(times.cal)


# ---------------------------------------------------------------------------
# the timed loop


def measure(gx, batches, seconds, tracer=None):
    """Run whole batches (cycles) of ops until `seconds` of op time and MIN_OPS ops
    are done.  Returns (ops, Calibrated latencies, outcomes); an outcome is
    the answer, or a string naming the exception the op raised."""
    ops, outcomes = [], []
    lat = Calibrated()
    busy = 0.0
    for batch in batches:
        for op in batch:
            if tracer:
                tracer.begin_op(len(ops))
            t0 = perf_counter()
            try:
                res = wl.execute(gx, op)
                err = None
            except Exception as e:  # an op that raises or is refused counts as failed
                err = f"{type(e).__name__}: {e}"
            dt = perf_counter() - t0
            if tracer:
                tracer.end_op()
            lat.add(dt)
            busy += dt
            ops.append(op)
            outcomes.append(err if err else wl.summarize(gx, op, res))
        if (busy >= seconds and len(ops) >= MIN_OPS) or busy >= MAX_BUSY_FACTOR * seconds:
            break
    return ops, lat, outcomes


def check(gx, ops, outcomes, pinned):
    """(op index, op id, problem) for every problem of every op: it raised or
    was refused, failed an independent check, or gave an answer other than
    the pinned one."""
    failures = []
    independent = {}
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if isinstance(out, str):
            failures.append((i, op.id, out))
            continue
        if op.id not in independent:
            try:
                independent[op.id] = wl.independent_problems(gx, op, out)
            except Exception as e:  # the check itself raised: report, keep checking
                independent[op.id] = [f"independent check raised {type(e).__name__}: {e}"]
        problems = list(independent[op.id])
        if pinned.get(op.id) != wl.digest(out):
            problems.append(f"answer {wl.digest(out)} differs from expected.json {pinned.get(op.id)}")
        failures.extend((i, op.id, p) for p in problems)
    return failures


# ---------------------------------------------------------------------------
# metrics


def end_to_end(lat, setup_s):
    """Calibrated op times (seconds) and set-up time -> end-to-end metrics."""
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(t, untraced_s, traced_s, nops):
    """Per-layer metrics of a traced pass of `nops` ops; untraced_s and
    traced_s are the calibrated op times of the two passes over those ops."""
    calls, self_s, sizes = t.calls, t.self_s, t.sizes

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    gb = n("groebner.Ideal.groebner_basis")
    bb = n("groebner.buchberger")
    m = {
        "groebner.buchberger.calls": (bb, "count"),
        "groebner.buchberger.self_s": (s("groebner.buchberger"), "s"),
        "groebner.buchberger.out_polys": (sizes.get("groebner.buchberger", 0), "count"),
        "groebner.normal_form.calls": (n("groebner.Ideal.normal_form"), "count"),
        "groebner.normal_form.self_s": (s("groebner.Ideal.normal_form"), "s"),
        "groebner.groebner_basis.calls": (gb, "count"),
        "groebner.gb_cache_hit_ratio": (1 - bb / gb if gb else 0.0, "ratio"),
        "groebner.elim.calls": (
            n("groebner.eliminate", "groebner.intersect", "groebner.quotient", "groebner.saturate"),
            "count",
        ),
        "artin.quotient_basis.calls": (n("artin.QuotientBasis.__init__"), "count"),
        "artin.quotient_basis.self_s": (s("artin.QuotientBasis.__init__"), "s"),
        "artin.quotient_basis.dim_sum": (sizes.get("artin.QuotientBasis.__init__", 0), "count"),
        "artin.radical_certify.calls": (n("artin.radical_maximal_certify"), "count"),
        "artin.radical_certify.self_s": (s("artin.radical_maximal_certify"), "s"),
        "artin.minimal_polynomial.self_s": (s("artin.minimal_polynomial"), "s"),
        "artin.action_matrix.calls": (n("artin.QuotientBasis.action_matrix"), "count"),
        "artin.action_matrix.self_s": (s("artin.QuotientBasis.action_matrix"), "s"),
        "artin.socle.self_s": (s("artin.socle", "artin.socle_wrt"), "s"),
        "linalg.kernel_basis.calls": (n("linalg.kernel_basis"), "count"),
        "linalg.kernel_basis.self_s": (s("linalg.kernel_basis"), "s"),
        "linalg.kernel_basis.cells": (sizes.get("linalg.kernel_basis", 0), "count"),
        "linalg.span_add.calls": (n("linalg.Span.add"), "count"),
        "linalg.span_add.self_s": (s("linalg.Span.add"), "s"),
        "invsys.inverse_system.self_s": (s("invsys.inverse_system"), "s"),
        "invsys.decompose.self_s": (s("invsys.decompose"), "s"),
        "star.truncated.calls": (n("star.star_truncated"), "count"),
        "star.truncated.self_s": (s("star.star_truncated"), "s"),
        "star.lambda.calls": (n("star.star_lambda"), "count"),
        "star.lambda.self_s": (s("star.star_lambda"), "s"),
        "star.homogeneous_piece.self_s": (s("star.homogeneous_piece"), "s"),
        "reduc.local_min_generators.self_s": (s("reduc.local_min_generators"), "s"),
        "reduc.index_of_star_ideal.self_s": (s("reduc.index_of_star_ideal"), "s"),
        "oracle.enumerate_ideals.self_s": (s("oracle.enumerate_ideals"), "s"),
        "oracle.oracle_index.self_s": (s("oracle.oracle_index"), "s"),
        "oracle.lattice_members": (sizes.get("oracle.enumerate_ideals", 0), "count"),
        "upoly.squarefree_part.self_s": (s("upoly.squarefree_part"), "s"),
        "upoly.qq_irreducible.self_s": (s("upoly.qq_irreducible"), "s"),
        "gxparser.parse_document.self_s": (s("gxparser.parse_document"), "s"),
    }
    op_s = sum(self_s.values())  # all self time: the traced ops' total duration
    for layer in tr.LAYERS:
        names = [x for x in t.names if x.startswith(layer + ".")]
        layer_s = s(*names)
        m[f"{layer}.self_s"] = (layer_s, "s")
        m[f"{layer}.share"] = (layer_s / op_s, "ratio")
        m[f"{layer}.calls"] = (n(*names), "count")
    m["bench.self_s"] = (s(tr.ROOT), "s")
    m["trace.ops"] = (nops, "count")
    m["trace.spans"] = (len(t.span_name), "count")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    return m


def zero_expected(workload, metrics):
    return [name for name in EXPECT_NONZERO[workload] if not metrics[name][0]]


# ---------------------------------------------------------------------------
# modes


def load_expected(workload):
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def warmed_cycles(gx, workload, seed):
    """The seed's cycles, after one discarded warm-up op."""
    batches = wl.cycles(workload, seed)
    first = next(batches)
    wl.execute(gx, first[0])
    gc.collect()
    return chain([first], batches)


def traced_run(gx, workload, seed, seconds):
    """Untraced pass, then the same ops traced.  Returns (ops, outcomes of
    both passes, per-layer metrics, tracer)."""
    ops, lat, outs = measure(gx, warmed_cycles(gx, workload, seed), seconds)
    t = tr.Tracer(gx)
    t.install()
    try:
        _, tlat, touts = measure(gx, [ops], 0.0, tracer=t)
    finally:
        t.uninstall()
    return ops + ops, outs + touts, per_layer(t, sum(lat.cal), sum(tlat.cal), len(ops)), t


def benchmark(args):
    gx, setup_s = setup()
    pristine = tr.bindings(gx)
    pinned = load_expected(args.workload)
    notes = []
    if args.trace:
        ops, outs, metrics, t = traced_run(gx, args.workload, args.seed, args.seconds / 2)
        missing = zero_expected(args.workload, metrics)
        notes.append("self-test: " + ("ok" if not missing else "zero where the table predicts work: " + ", ".join(missing)))
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, f"{args.workload}.spans.tsv.gz")
        t.write(path, f"workload={args.workload} seed={args.seed} ops={len(ops) // 2}")
        notes.append(f"spans: {len(t.span_name)} written to {os.path.relpath(path)}")
    else:
        ops, lat, outs = measure(gx, warmed_cycles(gx, args.workload, args.seed), args.seconds)
        metrics = end_to_end(lat.cal, setup_s)
        notes.append(
            f"uncalibrated: ops_per_s={len(lat.raw) / sum(lat.raw):.4f} "
            f"op_p50_ms={statistics.median(lat.raw) * 1e3:.4f} "
            f"op_p90_ms={statistics.quantiles(lat.raw, n=10)[-1] * 1e3:.4f} "
            f"probe_scale={sum(lat.cal) / sum(lat.raw):.4f}"
        )
    failures = check(gx, ops, outs, pinned)
    moved = tr.moved(pristine)
    failed_ops = len({i for i, _, _ in failures})
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
        f"failed={failed_ops} failed_ratio={failed_ops / len(ops):.4f}"
    )
    for line in notes:
        print(line)
    if moved:
        print("tracer bindings not restored: " + ", ".join(moved))
    for i, oid, problem in failures[:20]:
        print(f"FAILED op {i} {oid}: {problem}")
    print(
        json.dumps(
            {
                "correct": not failures and not moved,
                "attempted": len(ops),
                "failed": failed_ops,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def record(names):
    """Run every catalogue entry and pin its answer; refuses to pin an
    answer that fails an independent check."""
    gx, _ = setup()
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            pinned = json.load(fh)
    except FileNotFoundError:
        pinned = {}
    for workload in names:
        entries = {}
        for op in wl.catalogue(workload):
            answer = wl.summarize(gx, op, wl.execute(gx, op))
            problems = wl.independent_problems(gx, op, answer)
            if problems:
                fail(f"{workload} {op.id}: {problems}")
            entries[op.id] = wl.digest(answer)
        pinned[workload] = entries
        print(f"{workload}: {len(entries)} answers pinned")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=0, sort_keys=True)
        fh.write("\n")


def self_test(seed, seconds):
    """A short traced run per workload: every metric the table predicts for
    it is nonzero, every answer checks out, afterwards every binding holds
    its original function again, and the metric names are those of
    BENCHMARK.json.  Exit status 1 on any failure."""
    gx, setup_s = setup()
    pristine = tr.bindings(gx)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = 0
    e2e = end_to_end([1.0] * 10, setup_s)
    if [m["name"] for m in spec["end_to_end"]] != list(e2e):
        print(f"end-to-end metrics {list(e2e)} differ from BENCHMARK.json")
        bad += 1
    for workload in wl.WORKLOADS:
        ops, outs, metrics, _ = traced_run(gx, workload, seed, seconds)
        problems = [f"zero: {x}" for x in zero_expected(workload, metrics)]
        problems += [f"op {i} {oid}: {p}" for i, oid, p in check(gx, ops, outs, load_expected(workload))]
        problems += [f"not restored: {x}" for x in tr.moved(pristine)]
        if [m["name"] for m in spec["per_layer"]] != list(metrics):
            problems.append("per-layer metric names differ from BENCHMARK.json")
        share = ", ".join(f"{x} {metrics[x + '.share'][0]:.1%}" for x in tr.LAYERS if metrics[x + ".share"][0] >= 0.005)
        print(f"{workload}: {len(ops) // 2} ops, overhead {metrics['trace.overhead_ratio'][0]:.0%}; {share}")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rebuild expected.json (all workloads unless --workload)")
    ap.add_argument("--self-test", action="store_true", help="check the tracer on every workload")
    args = ap.parse_args(argv)
    if args.record:
        record([args.workload] if args.workload else list(wl.WORKLOADS))
        return 0
    if args.self_test:
        return self_test(args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload is required")
    benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
