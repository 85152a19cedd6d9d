"""Set-up probe: what a fresh interpreter pays before its first operation.

Imports zenochain and its CLI, then generates one workload. ``run.py`` times
whole runs of this script:  python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import bootstrap

bootstrap.prepare()

import zenochain.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), bootstrap.WORK)
