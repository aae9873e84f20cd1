"""Record the reference outputs that run.py checks every command against.

Usage (from the repository root, at a commit whose verdicts are trusted):

    python3 perfbench/record_reference.py

Runs every command any workload seed can produce once and writes its exit
code and checked output (see check.py) to perfbench/reference.json.  Also
prints each command's wall time, which is how the workload sizes were set.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import HERE, ROOT, SETUP_CMD, child_env
import check
from workloads import CATALOG, pool


def main() -> int:
    env = child_env()
    reference = {}
    for argv in [SETUP_CMD, *pool()]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qpartitions", *argv],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        wall = time.perf_counter() - t0
        output = check.canonical(argv, proc.stdout)
        if argv == CATALOG and check.catalog_problems(output):
            raise SystemExit("refusing to record: " + "; ".join(check.catalog_problems(output)))
        reference[check.key(argv)] = {"exit": proc.returncode, "output": output}
        print(f"{wall:8.3f} s  exit {proc.returncode}  {check.key(argv)}", flush=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} references to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
