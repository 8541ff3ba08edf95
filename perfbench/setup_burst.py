"""Time the making of one workload's inputs in a process of its own.

    PYTHONPATH=PACKAGE_ROOT python3 perfbench/setup_burst.py WORKLOAD INPUT_SEED DIR MIN_S

Makes the inputs into DIR, afresh each time, for at least MIN_S seconds
(at least once), and prints the set-up times as a JSON list.  run.py
starts it once with the package under test and once with the reference
copy, so both are timed the same way.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import set_up
from workloads import WORKLOADS


def main(name, input_seed, d, min_s):
    workload, times = WORKLOADS[name], []
    start = time.monotonic()
    while not times or time.monotonic() - start < min_s:
        times.append(set_up(workload, Path(d), input_seed)[1])
    print(json.dumps(times))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4]))
