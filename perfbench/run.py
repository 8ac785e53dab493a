"""Benchmark of the radialflow package, run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process (perfbench/worker.py) as one
client in a closed loop. Every operation's voltages are checked against an
independent reference sweep (perfbench/reference.py); an operation that
raises, exits non-zero or misses the check is a failed one. The command prints
each metric by name with its unit and, as its last line, one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of
a run that wraps the package's public functions (perfbench/tracer.py).
BENCHMARK.json lists the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter_ns

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("cli-bus69", "scenarios-bus69", "feeder-10k")
# set-up samples taken before and after the timed run, besides its own
SETUP_PROBES = 20
LAYER_PROBES = 11
WORKER_TIMEOUT_S = 170
IMPORT_TIMER = (
    "from time import perf_counter_ns as t; a = t(); import radialflow; print(t() - a)"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Spawn a worker and wait for its ``ready`` line; returns the process and
    the spawn-to-ready wall time in ns (one set-up time sample)."""
    start = perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds), mode],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = perf_counter_ns()
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, ready - start


def finish(proc) -> str:
    """Wait for a worker to end and return the rest of its output."""
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return out


def wall_ns(argv: list[str]) -> int:
    start = perf_counter_ns()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return perf_counter_ns() - start


def process_layers() -> dict:
    """interp and import layers, each the median of fresh-process probes."""
    interp = [wall_ns([sys.executable, "-c", "pass"]) / 1e6 for _ in range(LAYER_PROBES)]
    imports = []
    for _ in range(LAYER_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=child_env(),
            check=True, capture_output=True, text=True,
        ).stdout
        imports.append(int(out) / 1e6)
    return {
        "interp.start_ms": (statistics.median(interp), "ms"),
        "import.radialflow_ms": (statistics.median(imports), "ms"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # an untimed first start compiles the package's bytecode
    finish(start_worker(workload, seed, seconds, "probe")[0])
    if trace:
        layers = process_layers()
        proc, _ = start_worker(workload, seed, seconds, "trace")
        result = json.loads(finish(proc).splitlines()[-1])
        result["metrics"].update(layers)
        return result

    # each set-up sample is scaled by a bare interpreter start taken just
    # before it, like the operations of a run (calibrate.py)
    def setup_sample(mode: str):
        kernel_ns = wall_ns([sys.executable, "-c", "pass"])
        proc, ns = start_worker(workload, seed, seconds, mode)
        return proc, ns * calibrate.SPAWN_NOMINAL_NS / kernel_ns

    def probe() -> float:
        proc, scaled = setup_sample("probe")
        finish(proc)
        return scaled

    setup_ns = [probe() for _ in range(SETUP_PROBES // 2)]
    proc, scaled = setup_sample("run")
    result = json.loads(finish(proc).splitlines()[-1])
    setup_ns += [scaled] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    result["metrics"]["setup_s"] = (statistics.median(setup_ns) / 1e9, "s")
    return result


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload: str, result: dict, trace: bool) -> None:
    print(f"workload {workload} (trace {int(trace)})")
    for line in result["inputs"]:
        print(f"  input {line}")
    cal = result["calibration"]
    print(f"  calibration kernel median {cal['median_probe_ns'] / 1e6:.4g} ms, "
          f"nominal {cal['nominal_ns'] / 1e6:.4g} ms (times below are scaled to nominal)")
    for name, (value, unit) in result["metrics"].items():
        extra = ""
        if name == "op_ms_tail":
            t = result["tail"]
            extra = f" (p{t['percentile']:.2f} of {t['samples']})"
        print(f"  {name} {value:.6g} {unit}{extra}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for span in result.get("absent", []):
        print(f"  absent {span}: no such function, reported as 0")
    for line in result["errors"] + result["count_mismatches"]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/radialflow/__init__.py", "src/radialflow/data/bus69.branch"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run from the root of a radialflow checkout: {needed} not found", file=sys.stderr)
            return 2

    print(
        f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"platform={platform.platform()} commit={git_commit()} seed={args.seed} "
        f"seconds={args.seconds:g}"
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(name, result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["failed"] and not result["count_mismatches"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
