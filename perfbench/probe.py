"""Time ``import arctic.cli`` in a fresh interpreter.

    python3 perfbench/probe.py SRC

Prints the raw and the scaled seconds the import took (see ``speed.py``).
Only ``speed`` and what it needs are imported first, so the figure is close
to what a CLI call pays for the import.
"""

import sys
import time

from speed import SpeedMeter

SAMPLE_PERIOD_S = 0.02  # an import takes about 0.4 s; this gives ~20 samples

src = sys.argv[1]
sys.path.insert(0, src)
with SpeedMeter(SAMPLE_PERIOD_S) as meter:
    start = time.perf_counter()
    import arctic.cli  # noqa: E402

    end = time.perf_counter()
if not arctic.cli.__file__.startswith(src):
    sys.exit(f"arctic.cli imported from {arctic.cli.__file__}, not from {src}")
print(end - start, (end - start) * meter.scale(start, end))
