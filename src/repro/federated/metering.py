"""A fixed price for a model state: four bytes per element.

:func:`state_bytes` is what the efficiency artifact's ``comm_mb`` and
bench's serial ``io_bytes`` charge per state sent.  It is not what the
wire carries: every model trains and travels float64, so the transports
move eight bytes per element (LeNet-5: 276 976 B against this price's
138 488 B).  The price stays as it is because both figures read it.
Round traffic as the wire carries it is on
:class:`~repro.federated.simulation.RoundRecord` (``bytes_down`` /
``bytes_up``) and in ``FederatedSimulation.transport_report()``.
"""

from __future__ import annotations

from .state_math import StateDict

_PRICE_BYTES_PER_ELEMENT = 4


def state_bytes(state: StateDict) -> int:
    """Four bytes per element of ``state``: the size of a dense float32
    encoding, half what its float64 arrays occupy on the wire."""
    return sum(value.size * _PRICE_BYTES_PER_ELEMENT for value in state.values())
