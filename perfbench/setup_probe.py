"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints the seconds from the start of this script to the end of set-up:
importing ``repro``, validating the parameters and building the first
model (or, for ``regen``, the spec list).  Set-up ends before the first
simulation event is dispatched.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main(argv):
    name, seed, workdir = argv
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from workloads import WORKLOADS

    WORKLOADS[name].prepare(int(seed), workdir)
    print(repr(time.perf_counter() - _STARTED))


if __name__ == "__main__":
    main(sys.argv[1:])
