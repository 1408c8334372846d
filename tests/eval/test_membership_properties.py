"""Properties of the confidence-threshold membership attack.

``test_membership.py`` checks the attack's verdicts on trained models;
these tests check its arithmetic: the rank AUC against the pairwise
definition on generated scores, and the report against quantities
computed straight from ``predict_proba``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.eval import membership_attack, unlearning_privacy_gain
from repro.eval.membership import ranking_auc
from repro.nn.models import MLP
from repro.training.evaluation import predict_proba

from ..conftest import generated, make_blobs

# Small integers so that generated score lists contain ties.
scores = st.lists(st.integers(0, 6), min_size=1, max_size=12).map(
    lambda values: np.array(values, dtype=np.float64)
)


def pairwise_auc(members, nonmembers):
    """P(member outranks non-member), ties counting one half."""
    wins = (members[:, None] > nonmembers[None, :]).sum()
    ties = (members[:, None] == nonmembers[None, :]).sum()
    return (wins + 0.5 * ties) / (len(members) * len(nonmembers))


@generated(60)
@given(members=scores, nonmembers=scores)
def test_rank_auc_is_the_pairwise_probability(members, nonmembers):
    assert ranking_auc(members, nonmembers) == pytest.approx(pairwise_auc(members, nonmembers))


@generated(60)
@given(members=scores, nonmembers=scores)
def test_swapping_the_sets_complements_the_auc(members, nonmembers):
    assert ranking_auc(members, nonmembers) + ranking_auc(nonmembers, members) == pytest.approx(1.0)


@generated(30)
@given(members=scores, nonmembers=scores)
def test_auc_ignores_a_monotone_rescaling(members, nonmembers):
    rescale = lambda x: np.exp(0.5 * x) - 3.0
    assert ranking_auc(rescale(members), rescale(nonmembers)) == pytest.approx(
        ranking_auc(members, nonmembers)
    )


def small_model_and_sets():
    members = make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4), seed=1)
    holdout = make_blobs(num_samples=18, num_classes=3, shape=(1, 4, 4), seed=2)
    return MLP(16, 3, np.random.default_rng(4)), members, holdout


def test_report_confidences_are_true_label_probabilities():
    model, members, holdout = small_model_and_sets()
    report = membership_attack(model, members, holdout)
    member_conf = predict_proba(model, members.images)[np.arange(len(members)), members.labels]
    holdout_conf = predict_proba(model, holdout.images)[np.arange(len(holdout)), holdout.labels]
    assert report.mean_member_confidence == pytest.approx(member_conf.mean())
    assert report.mean_nonmember_confidence == pytest.approx(holdout_conf.mean())
    assert report.auc == pytest.approx(pairwise_auc(member_conf, holdout_conf))


def test_a_set_against_itself_gives_no_advantage():
    model, members, _ = small_model_and_sets()
    report = membership_attack(model, members, members)
    assert report.advantage == 0.0
    assert report.auc == pytest.approx(0.5)


def test_sample_order_does_not_change_the_report():
    model, members, holdout = small_model_and_sets()
    rng = np.random.default_rng(0)
    shuffled = membership_attack(model, members.shuffled(rng), holdout.shuffled(rng))
    report = membership_attack(model, members, holdout)
    assert shuffled.advantage == pytest.approx(report.advantage)
    assert shuffled.auc == pytest.approx(report.auc)


def test_privacy_gain_of_an_unchanged_model_is_zero():
    model, members, holdout = small_model_and_sets()
    assert unlearning_privacy_gain(model, model, members, holdout) == 0.0
