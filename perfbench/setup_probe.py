"""Set-up probe: import the CLI and resolve one scenario in a fresh process.

Usage: python3 setup_probe.py SRC_DIR SCENARIO

Prints one JSON object: ``ready`` (CLOCK_MONOTONIC when the scenario was
resolved, comparable with the parent's clock on Linux), ``import_s`` and
``resolve_s``.
"""

import json
import sys
import time

t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
sys.path.insert(0, sys.argv[1])
import swipt_plsec.cli  # noqa: E402,F401  (the import is what is timed)
from swipt_plsec.scenario import resolve_scenario  # noqa: E402

t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
resolve_scenario(sys.argv[2])
t2 = time.clock_gettime(time.CLOCK_MONOTONIC)
print(json.dumps({"ready": t2, "import_s": t1 - t0, "resolve_s": t2 - t1}))
