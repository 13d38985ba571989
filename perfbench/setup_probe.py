"""Set up one in-process workload in a fresh process and report when ready.

    python perfbench/setup_probe.py WORKLOAD SEED

Prints "ready" once the workload's import, input generation and warm-up are
done; the parent times from process start to that line.  src/ must be on
PYTHONPATH.
"""

import sys

import run


if __name__ == "__main__":
    run.make_workload(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
