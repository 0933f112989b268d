"""Set-up of one workload in a fresh interpreter: the unit that setup_s times.

    python3 bench/setup_probe.py <workload>

Imports the package, parses the config or builds the model and prints
"ready"; ``run.py`` times it from process start to that line.  Then, outside
the timed part, it runs the reference work of speed.py in the same process
and prints the slowdown it saw as "speed <slowdown>": the host's speed
at the set-up, measured where the set-up ran.
"""

import sys

from common import OUT_DIR, import_tailshift
from speed import SETUP_PYTHON_SHARE, Speed
from workloads import WORKLOADS

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]](import_tailshift(), OUT_DIR)
    print("ready", flush=True)
    workload.close()
    speed = Speed(SETUP_PYTHON_SHARE)
    speed.measure()                     # the first pass warms caches
    print(f"speed {speed.measure()!r}", flush=True)
