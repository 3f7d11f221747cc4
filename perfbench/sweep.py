"""One sweep of a workload in a fresh process (started by ``run.py``).

Usage: ``python3 perfbench/sweep.py '<json>'`` with keys ``workload``,
``seed``, ``index``, and optionally ``spans`` (a directory: trace the
sweep and store its spans there).
Prints the sweep's result as one JSON line on standard output.
"""

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import Tracer  # noqa: E402
from workloads import run_sweep  # noqa: E402


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = Tracer() if job.get("spans") else None
    result = run_sweep(job["workload"], job["seed"], job["index"],
                       tracer=tracer)
    if tracer is not None:
        result["ledger"] = tracer.ledger(result["fuzz_s"])
        tracer.write(job["spans"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
