"""One workload in a fresh process: set up, then run the timed closed loop.

Usage: worker.py WORKLOAD SEED SECONDS MODE, with MODE one of
  probe  set up, print ``ready`` and exit (a set-up time sample);
  run    set up, print ``ready``, then time operations with tracing off;
  trace  the same, alternating traced and untraced operations.
The last line of a run or trace prints the result as JSON.

Only the package's one-time work happens before ``ready``; the benchmark's
input generation and reference solves come after it, so the parent's
spawn-to-``ready`` time is the program's set-up time.
"""
import sys

from reference import BUS69


def setup(workload: str):
    """The program work a user of the workload pays once, before any operation."""
    if workload == "cli-bus69":
        import radialflow.cli  # noqa: F401  (what every invocation imports)

        return None
    if workload == "scenarios-bus69":
        from radialflow import ingest

        with open(BUS69) as f:
            table = ingest.parse_branch_table(f.read(), "delimited", source_name=BUS69)
        ingest.validate_radial(table)
        return table
    import radialflow  # noqa: F401

    return None


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    base = setup(workload)
    print("ready", flush=True)
    if mode == "probe":
        return 0

    import json

    import measure

    result = measure.run(workload, seed, seconds, traced=(mode == "trace"), base=base)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
