"""Baseline unlearning methods the paper compares against.

* **B1** — retrain from scratch on the remaining data
  (:func:`~repro.unlearning.protocols.federated_retrain`); the gold
  standard for forgetting, the slowest for wall-clock.
* **B2** — rapid retraining with a diagonal empirical Fisher information
  matrix preconditioner, after Liu et al., INFOCOM 2022
  (:mod:`~repro.unlearning.baselines.rapid`).
* **B3** — incompetent-teacher unlearning, after Chundawat et al.,
  AAAI 2023 (:mod:`~repro.unlearning.baselines.incompetent`).

Beyond the paper's three comparison points, the update-adjustment family
from its Related Work is implemented too (both are *client-level*
unlearning and need the server to retain round history):

* **FedEraser** — calibrated historical-update replay, after Liu et al.,
  IWQoS 2021 [24] (:mod:`~repro.unlearning.baselines.federaser`).
* **FedRecovery** — server-side gradient-residual subtraction, after
  Zhang et al., TIFS 2023 [23], released without its DP noise
  (:mod:`~repro.unlearning.baselines.fedrecovery`).

Each runs on a federation through its flow in
:mod:`repro.unlearning.protocols` (``federated_rapid_retrain``,
``federated_incompetent_teacher``, ``federated_federaser``,
``federated_fedrecovery``).
"""

from .federaser import FedEraser, FedEraserConfig, FedEraserReport
from .fedrecovery import FedRecovery, FedRecoveryReport
from .incompetent import IncompetentTeacherConfig, IncompetentTeacherUnlearner
from .rapid import DiagonalFIMSGD, RapidRetrainer

__all__ = [
    "RapidRetrainer",
    "DiagonalFIMSGD",
    "IncompetentTeacherUnlearner",
    "IncompetentTeacherConfig",
    "FedEraser",
    "FedEraserConfig",
    "FedEraserReport",
    "FedRecovery",
    "FedRecoveryReport",
]
