"""Set-up probe: one fresh process that imports resamplekit, generates a
workload's inputs, stamps the time, then times one pass over the cases.

``run.py`` starts it several times.  Set-up time is from just before launch
until the ``done`` stamp; ``time.monotonic`` reads CLOCK_MONOTONIC on
Linux, which all processes share.  ``kernel`` is the speed kernel's time
measured right after, which ``run.py`` scales set-up time by.
``first_pass`` is the summed latency of the first call of every case,
checks not included, each scaled to the reference machine speed
(``speed.py``).  ``threads`` is the most threads alive when a kernel ran.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import json
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import resamplekit  # noqa: E402
import resamplekit.cli  # noqa: E402,F401

import cases  # noqa: E402
import speed  # noqa: E402

inputs = cases.make_inputs(sys.argv[1], int(sys.argv[2]))
digest = cases.inputs_digest(inputs)
done = time.monotonic()

speed.calibrate()  # its own first run is cold
threads = threading.active_count()
kernel = speed.calibrate()

workdir = Path(sys.argv[3])
try:
    first_pass = 0.0
    for case in cases.build_cases(resamplekit, sys.argv[1], inputs, workdir):
        threads = max(threads, threading.active_count())
        case_kernel = speed.calibrate()
        t0 = time.perf_counter()
        case.op()
        first_pass += speed.scaled(time.perf_counter() - t0, case_kernel)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(json.dumps({"done": done, "kernel": kernel, "digest": digest,
                  "first_pass": first_pass, "threads": threads,
                  "module": resamplekit.__file__}))
