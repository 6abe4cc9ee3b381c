"""Record the output digests of the default seed's first jobs.

    python3 bench/record_golden.py

writes bench/golden_seed<DEFAULT_SEED>.json: for each workload, the digest of
every job's report text/JSON or sweep CSV, in job order. A run with the
default seed fails any job whose digest differs. Re-record only when an
output byte change is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src")]

import workloads  # noqa: E402

#: jobs recorded per workload: more than one 20-second run completes
JOBS = {"point": 2048, "map": 256, "search": 256}


def main() -> int:
    workdir = BENCH.parent / ".bench_work" / "golden"
    digests = {}
    try:
        for name, count in JOBS.items():
            workload = workloads.BY_NAME[name](workloads.DEFAULT_SEED, workdir)
            digests[name] = []
            for _ in range(count):
                job = workload.next_job()
                digests[name].append(workload.check(job, workload.run(job))[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = BENCH / f"golden_seed{workloads.DEFAULT_SEED}.json"
    path.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
