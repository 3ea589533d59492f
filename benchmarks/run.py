"""Benchmark entry point, run from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

Imports ``sincfft`` from the ``src/`` directory next to this one and from
nowhere else; without it the command exits with status 2 and prints no
result.  BLAS/OpenMP thread counts default to the number of CPUs.
"""

import os
import pathlib
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if not (src / "sincfft" / "__init__.py").is_file():
        print(f"benchmark: no sincfft sources in {src}", file=sys.stderr)
        return 2
    nproc = str(os.cpu_count() or 1)
    for var in _THREAD_VARS:
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(src))
    import bench_runner
    return bench_runner.main(sys.argv[1:], src)


if __name__ == "__main__":
    sys.exit(main())
