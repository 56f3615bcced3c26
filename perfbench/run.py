"""Entry point of the wealthca benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ga-n6 --seed 1 --seconds 38 --trace 0

It measures the package in ./src (never an installed copy), pins numpy's
thread pools to one thread before numpy is imported, and exits non-zero
without a result when the sources are missing.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import wealthca
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import wealthca from {src}: {exc}")
    if not Path(wealthca.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: wealthca was imported from {wealthca.__file__}, "
                 f"not from {src}")
    import bench
    sys.exit(bench.main())
