"""Holds only the name the benchmark's traced mode patches.

The program does not import this module: every task set is analysed by
the per-sample loop of :func:`repro.campaign.executor.execute_unit`.
"""

# perfbench/layers.py install() patches compile_taskset on this module.
from .tables import compile_taskset  # noqa: F401
