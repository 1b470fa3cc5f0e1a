"""Put the benchmark's modules and the program's sources on the import path.

Run from the root of a checkout: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
