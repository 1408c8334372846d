"""Wire pricing of a model state.

:func:`state_bytes` prices a model state the way the wire would see it
(float32).  Round traffic itself is on
:class:`~repro.federated.simulation.RoundRecord` (``bytes_down`` /
``bytes_up``) and in ``FederatedSimulation.transport_report()``.
"""

from __future__ import annotations

from .state_math import StateDict

_WIRE_FLOAT_BYTES = 4


def state_bytes(state: StateDict) -> int:
    """Wire size of a dense float32 encoding of ``state``."""
    return sum(value.size * _WIRE_FLOAT_BYTES for value in state.values())
