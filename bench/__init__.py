"""The repository's benchmark: drift-corrected timings over four workloads.

``python3 -m bench run --workload <name> --seed <int> [--trace]`` runs one
workload in a fresh child interpreter and prints every metric by name;
``python3 -m bench all`` runs the four of them; ``python3 -m bench repeat``
checks that two sets of runs of one commit agree.  See ``bench/README.md``.
"""

import os

# Pinned before anything imports NumPy: unpinned, one serial op burns two
# CPU-seconds per wall-second on a 2-core box and ``pool:2`` oversubscribes
# both cores.  Children inherit the pins through the environment.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"
