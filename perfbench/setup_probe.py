"""Set-up cost of one fresh interpreter: import thermosim, build the inputs.

Run by run.py as a child process with thermosim's ``src`` on PYTHONPATH:

    python perfbench/setup_probe.py WORKLOAD SEED SIZE

Prints {"import_s": ..., "build_s": ...} and exits.
"""

import time

start = time.perf_counter()
import thermosim  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "build_s": built - imported, "thermosim": thermosim.__file__}))
