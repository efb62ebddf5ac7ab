"""Fresh-process set-up probe for one workload.

Usage: python3 perfbench/probe.py <workload>

Times `import spinorlab.cli` and the workload's warm-up (its lazy caches and
the first call per op kind and signature), and prints them as one JSON line.
The benchmark's own code (its imports, building the warm-up inputs) is not
counted.
"""

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    t0 = time.perf_counter()
    import spinorlab.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    ops = WORKLOADS[sys.argv[1]].warm_ops()
    t1 = time.perf_counter()
    for op in ops:
        op.run()
    warm_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "setup_s": import_s + warm_s}))


if __name__ == "__main__":
    main()
