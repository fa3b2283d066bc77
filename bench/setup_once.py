"""Time one cold set-up in a fresh interpreter and print the seconds taken.

The set-up is what a user pays before any work starts: ``import switchdiff``
(numpy and scipy included), building the model and, for the CLI workloads,
parsing the config.

Usage: python3 bench/setup_once.py WORKLOAD SEED
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (standard library only)


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.WORKLOADS[name].inputs(seed, os.path.join(HERE, "_out", "work"))
    t0 = time.perf_counter()
    workloads.setup(name, inputs)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
