"""Adaptive distillation temperature (paper Eq. 11, extension module).

``T = α · T0 · exp(−|D_r| / (|D_r| + |D_f|))``

The intuition: the amount of information the student can decouple from the
teacher's soft labels grows with the temperature. A client whose removed
fraction is large (|D_f| relatively big) gets a *higher* temperature —
smoother teacher targets — because its retained data alone carries less
signal; a client deleting almost nothing trains at ≈ T0.

With the paper's default adjustment factor ``α = e`` the formula satisfies
``T → T0`` as ``|D_f| → 0`` (since the exponent tends to −1).
"""

from __future__ import annotations

import math

DEFAULT_ALPHA = math.e


def adaptive_temperature(
    base_temperature: float,
    num_retain: int,
    num_forget: int,
    alpha: float = DEFAULT_ALPHA,
    min_temperature: float = 1.0,
) -> float:
    """Compute the client's distillation temperature per Eq. 11.

    Parameters
    ----------
    base_temperature:
        T0 — the federation-wide initial temperature.
    num_retain, num_forget:
        |D_r| and |D_f| for this client.
    alpha:
        Adjustment factor α. Defaults to *e* so that T(|D_f|=0) = T0.
    min_temperature:
        Floor — the paper notes that for T ≤ 1 soft labels degrade to hard
        labels, so we never go below this.

    Returns
    -------
    The temperature T to use in Eq. 3–5.
    """
    if not (math.isfinite(base_temperature) and base_temperature > 0):
        raise ValueError(f"base temperature must be positive and finite, got {base_temperature}")
    if num_retain < 0 or num_forget < 0:
        raise ValueError("dataset sizes must be non-negative")
    if num_retain + num_forget == 0:
        raise ValueError("client has no data")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    retain_fraction = num_retain / (num_retain + num_forget)
    temperature = alpha * base_temperature * math.exp(-retain_fraction)
    return max(min_temperature, temperature)
