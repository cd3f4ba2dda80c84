"""End-to-end benchmark of the DS-GL stack (``python3 perfbench/run.py``).

See ``perfbench/README.md`` for the workloads, metrics and how to run it.
"""

#: Environment variables that size the BLAS and OpenMP thread pools.  The
#: benchmark pins each to one thread before numpy loads, on every commit
#: it measures, so workers x BLAS threads stays within two CPUs and a
#: small solve never waits on a second BLAS thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
