"""The timed closed loop, the per-op checks and the statistics of one run.

Times are scaled by a calibration kernel (see calibrate.py). A probe of the
kernel runs after a stage of an operation once the calibrator's interval has
passed since the last probe, and outside every timed stage. The stages timed between
two probes form a segment, scaled by ``nominal / mean of the two probes``: the
kernel's speed interpolated over the segment. An operation's time is the sum
of its scaled stages.

The samples are the operations' scaled times or, for a pool of more than
2 * TAIL_BEYOND inputs, each input's median over its repetitions: the tail is
then that of the inputs (the heaviest scenarios), not of host preemptions.
  op_ms_p50   median sample of the successful operations;
  op_ms_tail  the highest percentile with at least TAIL_BEYOND samples above
              it;
  ops_per_s   samples over their sum: operations per second.
"""
from __future__ import annotations

import gc
import resource
import statistics
from time import perf_counter_ns

import calibrate
import tracer
import workloads

TAIL_BEYOND = 10
# Spans reported as a mean time per operation; cli.main and solver.solve also
# get a self time (the span minus the spans it calls).
TIMED_SPANS = (
    "cli.main",
    "ingest.parse_branch_table",
    "ingest.renumber_sequential",
    "ingest.validate_radial",
    "solver.solve",
    "solver.find_leaf_nodes",
    "solver.compute_load_currents",
    "solver.backward_sweep",
    "solver.forward_sweep",
    "solver.check_convergence",
    "solver.compute_losses",
    "oracle.baseline_solve",
)
SELF_SPANS = ("cli.main", "solver.solve")
SOLVE_PHASES = tuple(s for s in TIMED_SPANS if s.startswith("solver.") and s != "solver.solve")
# Order of the counts each workload's check returns.
COUNTS = ("solver.iterations", "solver.steps_proposed", "oracle.steps_baseline", "solver.leaf_count")


def tail(samples: list[float]) -> tuple[float, float]:
    """The (TAIL_BEYOND + 1)-th largest sample and which percentile it is;
    the largest when there are too few samples (only when operations fail)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Clock:
    """Times stages and scales them by the calibration kernel, segment by
    segment; on_segment(scale) runs as each segment closes."""

    def __init__(self, cal: calibrate.Calibrator, on_segment=None):
        self.cal = cal
        self.on_segment = on_segment
        self.probes = [cal.probe()]
        self._pending: list[tuple[list[float], int]] = []
        self._next_probe = perf_counter_ns() + cal.every_ns

    def stage(self, fn, arg, acc: list[float]):
        """fn(arg), adding its scaled time to acc[0] once its segment closes."""
        start = perf_counter_ns()
        value = fn(arg)
        end = perf_counter_ns()
        self._pending.append((acc, end - start))
        if end >= self._next_probe:
            self.close()
        return value

    def close(self) -> None:
        self.probes.append(self.cal.probe())
        scale = self.cal.nominal_ns / ((self.probes[-2] + self.probes[-1]) / 2)
        for acc, ns in self._pending:
            acc[0] += ns * scale
        self._pending.clear()
        if self.on_segment:
            self.on_segment(scale)
        self._next_probe = perf_counter_ns() + self.cal.every_ns


class Loop:
    """Runs operations on a cyclic input pool and checks each result.

    Counts (iterations, steps, leaves and, when traced, span calls) are kept
    per input; a repeat that differs from the first is a count mismatch.
    """

    def __init__(self, wl, pool, clock: Clock):
        self.wl = wl
        self.pool = pool
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict[int, tuple] = {}
        self.count_mismatches: list[str] = []
        self.ops: list[tuple[int, list[float], bool]] = []

    def one(self, index: int, stages, extra_counts=None) -> None:
        """Run and check one operation on pool[index]. Counts are recorded
        only when extra_counts is given: it returns the counts to append to
        those the check extracted."""
        x = self.pool[index]
        if self.wl.collect_first:
            gc.collect()
        self.attempted += 1
        acc = [0.0]
        value = x.payload
        try:
            for fn in stages:
                value = self.clock.stage(fn, value, acc)
            bad, counts = self.wl.check(x, value)
        except Exception as exc:  # a raising op or check is a failed op, not a crash
            bad, counts = f"{type(exc).__name__}: {exc}", ()
        self.ops.append((index, acc, not bad))
        if bad:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{x.label}: {bad}")
            return
        if extra_counts is not None:
            counts = tuple(counts) + extra_counts()
            first = self.counts.setdefault(index, counts)
            if first != counts:
                self.count_mismatches.append(f"{x.label}: counts {counts} after {first}")

    def samples(self) -> list[float]:
        """Successful operations' times, or per-input medians of them."""
        if len(self.pool) <= 2 * TAIL_BEYOND:
            return [acc[0] for _, acc, ok in self.ops if ok]
        by_input: dict[int, list[float]] = {}
        for index, acc, ok in self.ops:
            if ok:
                by_input.setdefault(index, []).append(acc[0])
        return [statistics.median(v) for v in by_input.values()]


def describe(pool, loop: Loop) -> list[str]:
    """n, leaves, iterations r and v_min of the generated inputs."""
    rs = [loop.counts[i][0] for i in range(len(pool)) if i in loop.counts]
    if len(pool) <= 8:
        return [
            f"{x.label} r={loop.counts.get(i, (None,))[0]} v_min={x.v_min:.4f}"
            for i, x in enumerate(pool)
        ]
    hist = " ".join(f"{r}:{rs.count(r)}" for r in sorted(set(rs), key=str))
    vmins = [x.v_min for x in pool]
    return [
        f"{len(pool)} inputs of {len(pool[0].ref_vmag)} nodes: r {hist}; "
        f"v_min {min(vmins):.4f}..{max(vmins):.4f}"
    ]


def warm_up(wl, pool, stages) -> None:
    """Untimed operations first, so that lazy set-up and caches are done."""
    for i in range(wl.warmup):
        value = pool[i % len(pool)].payload
        for fn in stages:
            value = fn(value)


def run(name: str, seed: int, seconds: float, traced: bool, base) -> dict:
    wl = workloads.get(name)
    pool = wl.make_pool(seed, base)
    stages = wl.traced_stages if traced else wl.stages
    warm_up(wl, pool, stages)
    cal = calibrate.Calibrator(in_process=traced or not wl.spawns)
    tr = tracer.Tracer() if traced else None
    span_total = dict.fromkeys(tracer.SPANS, 0.0)
    span_self = dict.fromkeys(tracer.SPANS, 0.0)

    def scale_spans(scale: float) -> None:
        for s in tracer.SPANS:
            span_total[s] += tr.total_ns[s] * scale
            span_self[s] += tr.self_ns[s] * scale
            tr.total_ns[s] = tr.self_ns[s] = 0

    gc.collect()
    clock = Clock(cal, scale_spans if traced else None)
    loop = Loop(wl, pool, clock)
    spans = Loop(wl, pool, clock)
    # every input is counted at least twice (traced, when tracing), and a
    # run has enough samples for a tail
    min_ops = 4 * len(pool) if traced else max(2 * len(pool), 2 * TAIL_BEYOND)
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while i < min_ops or perf_counter_ns() < deadline:
        if not traced:
            loop.one(i % len(pool), stages, lambda: ())
        elif (i + i // 2) % 2 == 0:
            # traced and untraced ops come in pairs on one input, alternating
            # which of the two runs first
            before = dict(tr.calls)
            tr.install()
            try:
                spans.one(i // 2 % len(pool), stages,
                          lambda: tuple(tr.calls[s] - before[s] for s in tracer.SPANS))
            finally:
                tr.remove()
        else:
            loop.one(i // 2 % len(pool), stages)
        i += 1
    clock.close()

    done = spans if traced else loop
    out = {
        "attempted": loop.attempted + spans.attempted,
        "failed": loop.failed + spans.failed,
        "errors": loop.errors + spans.errors,
        "count_mismatches": done.count_mismatches,
        "inputs": describe(pool, done),
        "calibration": {"nominal_ns": cal.nominal_ns, "median_probe_ns": statistics.median(clock.probes)},
    }
    if traced:
        out["metrics"] = layer_metrics(span_total, span_self, spans, loop)
        out["absent"] = tr.absent
        phases = sum(span_total[s] for s in SOLVE_PHASES)
        out["inputs"].append(
            f"solver.solve {span_total['solver.solve']:.0f} ns = phases {phases:.0f} ns"
            f" + self {span_self['solver.solve']:.0f} ns over {spans.attempted} traced ops"
        )
        return out
    samples = loop.samples() or [float("nan")]
    tail_ns, tail_pct = tail(samples)
    who = resource.RUSAGE_CHILDREN if wl.spawns else resource.RUSAGE_SELF
    out["metrics"] = {
        "op_ms_p50": (statistics.median(samples) / 1e6, "ms"),
        "op_ms_tail": (tail_ns / 1e6, "ms"),
        "ops_per_s": (len(samples) / (sum(samples) / 1e9), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    over = "operations" if len(pool) <= 2 * TAIL_BEYOND else "input medians"
    out["tail"] = {"percentile": tail_pct, "samples": f"{len(samples)} {over}"}
    return out


def layer_metrics(span_total: dict, span_self: dict, traced: Loop, plain: Loop) -> dict:
    ops = traced.attempted
    m = {}
    for span in TIMED_SPANS:
        m[f"{span}_ms"] = (span_total[span] / ops / 1e6, "ms")
    for span in SELF_SPANS:
        m[f"{span}_self_ms"] = (span_self[span] / ops / 1e6, "ms")
    # counts: mean per op over the input pool, each input weighted once, so
    # they repeat exactly for a seed however many operations a run completes
    per_input = list(traced.counts.values())
    names = COUNTS + tuple(f"{s}.calls" for s in tracer.SPANS)
    for k, name in enumerate(names):
        values = [c[k] or 0 for c in per_input]
        m[name] = (sum(values) / len(values) if values else 0.0, "count/op")
    overhead = statistics.median(traced.samples()) / statistics.median(plain.samples())
    m["trace.overhead_frac"] = (overhead - 1.0, "1")
    return m
