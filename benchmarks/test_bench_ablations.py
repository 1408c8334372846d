"""Ablation benches for this reproduction's design choices (not in the paper).

* early-termination threshold δ (Eq. 7): epochs saved vs accuracy cost;
* adaptive distillation temperature (Eq. 11) on/off;
* composite-loss weights µc / µd sensitivity.
"""

import numpy as np
import pytest

from repro.experiments.common import (
    SimulationSnapshot,
    build_backdoor_federation,
    evaluate_model,
    goldfish_config,
    pretrain,
)
from repro.unlearning import EarlyStopConfig, federated_goldfish

from .conftest import run_once


@pytest.fixture(scope="module")
def pretrained(scale):
    setup = build_backdoor_federation("mnist", scale, deletion_rate=0.06, seed=0)
    pretrain(setup, scale)
    return setup, SimulationSnapshot.capture(setup.sim)


def _run_variant(setup, snapshot, scale, config):
    snapshot.restore(setup.sim)
    setup.register_deletion()
    outcome = federated_goldfish(setup.sim, config, scale.unlearn_rounds)
    metrics = evaluate_model(outcome.global_model, setup)
    metrics["local_epochs"] = outcome.local_epochs_total
    return metrics


def test_early_stop_delta_sweep(benchmark, scale, pretrained):
    """Larger δ stops local training sooner — epochs must fall monotonically
    (weakly) as δ grows, trading a little accuracy for time."""
    setup, snapshot = pretrained
    deltas = (0.01, 0.2, 1.0)

    def sweep():
        rows = {}
        for delta in deltas:
            config = goldfish_config(
                scale,
                early_stop=EarlyStopConfig(delta=delta, mode="last", enabled=True),
            )
            rows[delta] = _run_variant(setup, snapshot, scale, config)
        return rows

    rows = run_once(benchmark, sweep)
    for delta, metrics in rows.items():
        print(f"delta={delta}: acc {metrics['acc']:.1f} "
              f"backdoor {metrics['backdoor']:.1f} "
              f"epochs {metrics['local_epochs']}")
    assert rows[1.0]["local_epochs"] <= rows[0.01]["local_epochs"]


def test_adaptive_temperature_toggle(benchmark, scale, pretrained):
    """Eq. 11 on/off: both must unlearn; the adaptive run uses T != T0 for
    the deleting client but stays in the same quality band."""
    setup, snapshot = pretrained

    def compare():
        fixed = _run_variant(setup, snapshot, scale, goldfish_config(scale))
        adaptive = _run_variant(
            setup, snapshot, scale,
            goldfish_config(scale, adaptive_temperature=True),
        )
        return fixed, adaptive

    fixed, adaptive = run_once(benchmark, compare)
    print(f"fixed T: acc {fixed['acc']:.1f} bd {fixed['backdoor']:.1f}")
    print(f"adaptive T: acc {adaptive['acc']:.1f} bd {adaptive['backdoor']:.1f}")
    assert abs(fixed["acc"] - adaptive["acc"]) < 25.0


def test_loss_weight_sensitivity(benchmark, scale, pretrained):
    """µc / µd sweep around the paper's (0.25, 1.0) operating point."""
    setup, snapshot = pretrained
    grid = [(0.0, 1.0), (0.25, 1.0), (1.0, 1.0), (0.25, 0.0)]

    def sweep():
        rows = {}
        for mu_c, mu_d in grid:
            config = goldfish_config(scale, mu_c=mu_c, mu_d=mu_d)
            rows[(mu_c, mu_d)] = _run_variant(setup, snapshot, scale, config)
        return rows

    rows = run_once(benchmark, sweep)
    for (mu_c, mu_d), metrics in rows.items():
        print(f"mu_c={mu_c} mu_d={mu_d}: acc {metrics['acc']:.1f} "
              f"backdoor {metrics['backdoor']:.1f}")
    accs = [m["acc"] for m in rows.values()]
    assert all(np.isfinite(accs))
