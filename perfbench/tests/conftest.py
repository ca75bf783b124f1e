"""Make the benchmark's modules importable the way ``run.py`` imports them."""

import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
