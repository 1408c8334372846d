"""Goldfish: An Efficient Federated Unlearning Framework — reproduction.

A from-scratch Python implementation of the DSN 2024 paper, including its
entire dependency stack:

* :mod:`repro.nn` — NumPy autograd deep-learning framework (PyTorch stand-in)
* :mod:`repro.data` — synthetic benchmark datasets, partitioning, backdoors
* :mod:`repro.federated` — clients, server, FedAvg / adaptive aggregation,
  synchronous rounds, round-history retention
* :mod:`repro.runtime` — pluggable execution backends (serial / pool /
  cluster) fanning independent training tasks across cores, and the
  lossless update codecs (raw, byte-plane XOR delta)
* :mod:`repro.training` — configs, supervised training loop, evaluation
* :mod:`repro.unlearning` — the Goldfish framework, the B1/B2/B3 baselines,
  FedEraser / FedRecovery, full SISA, deletion-request scheduling
* :mod:`repro.eval` — JSD / L2 / t-test validity metrics, threshold
  membership inference, (ε̂, δ) certification
* :mod:`repro.experiments` — one runner per paper table and figure, plus
  efficiency and certification extension experiments
"""

__version__ = "1.1.0"

from . import data, eval, federated, nn, runtime, training, unlearning

__all__ = [
    "data",
    "eval",
    "federated",
    "nn",
    "runtime",
    "training",
    "unlearning",
    "__version__",
]
