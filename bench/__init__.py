"""End-to-end and per-layer benchmark of the M-Machine simulator.

``python -m bench`` runs every workload, each in its own cold worker
process, prints every metric with its unit and checks every result;
``python -m bench.compare`` judges two sets of result files against the
bounds in ``BENCHMARK.json``.  See ``bench/README.md``.

This package holds no simulator code.  It measures the ``repro`` package in
this checkout's ``src/`` directory from the outside, through public APIs
only.
"""

import os

#: The checkout the benchmark measures (the directory holding ``bench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where the measured ``repro`` package lives.
SRC = os.path.join(ROOT, "src")

#: Workload names, in the order a full run executes them.
WORKLOAD_NAMES = ("busy-8x8", "remote-gather-8x8", "coherent-share-4x4", "paper-figures")
