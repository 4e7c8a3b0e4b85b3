"""Run one spinlat CLI command the way `python -m spinlat.cli` does, timed.

    python3 child.py TIMING_JSON CLI_ARG...

Times the import of `spinlat.cli` and the call to `main`, then writes
those, the process's own peak RSS and the imported module path to
TIMING_JSON, and exits with the command's exit code.
"""

import json
import resource
import sys
import time

_start = time.perf_counter()
import spinlat.cli  # noqa: E402

_imported = time.perf_counter()
code = spinlat.cli.main(sys.argv[2:])
_done = time.perf_counter()
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump({
        "import_s": _imported - _start,
        "main_s": _done - _imported,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": spinlat.cli.__file__,
    }, fh)
sys.exit(code)
