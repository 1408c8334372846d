"""Loss function values, gradients and edge cases."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn import losses as L

from ..conftest import generated, numeric_grad


def manual_ce(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(labels)), labels]


class TestCrossEntropy:
    def test_value_matches_manual(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = L.cross_entropy(Tensor(logits), labels)
        np.testing.assert_allclose(loss.item(), manual_ce(logits, labels).mean())

    def test_sum_reduction(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = L.cross_entropy(Tensor(logits), labels, reduction="sum")
        np.testing.assert_allclose(loss.item(), manual_ce(logits, labels).sum())

    def test_none_reduction_shape(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = L.cross_entropy(Tensor(logits), labels, reduction="none")
        assert loss.shape == (6,)

    def test_unknown_reduction(self, rng):
        with pytest.raises(ValueError):
            L.cross_entropy(Tensor(rng.normal(size=(2, 3))), np.array([0, 1]),
                            reduction="bogus")

    def test_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = L.cross_entropy(Tensor(logits), np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_gradcheck(self, rng):
        logits_val = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        x = Tensor(logits_val.copy(), requires_grad=True)
        L.cross_entropy(x, labels).backward()
        expected = numeric_grad(lambda v: manual_ce(v, labels).mean(), logits_val.copy())
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)

    def test_label_validation(self, rng):
        logits = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            L.cross_entropy(logits, np.array([0, 5]))
        with pytest.raises(ValueError):
            L.cross_entropy(logits, np.array([0]))
        with pytest.raises(ValueError):
            L.cross_entropy(logits, np.array([[0], [1]]))

    def test_logits_must_be_2d(self, rng):
        with pytest.raises(ValueError):
            L.cross_entropy(Tensor(rng.normal(size=(2, 3, 4))), np.array([0, 1]))


class TestNLL:
    def test_nll_on_log_probs(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        log_probs = F.log_softmax(Tensor(logits), axis=1)
        loss = L.nll_loss(log_probs, labels)
        np.testing.assert_allclose(loss.item(), manual_ce(logits, labels).mean())

    def test_nll_from_logits_equals_ce(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        a = L.nll_from_logits(Tensor(logits), labels).item()
        b = L.cross_entropy(Tensor(logits), labels).item()
        np.testing.assert_allclose(a, b)


class TestFocal:
    def test_gamma_zero_equals_ce(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        focal = L.focal_loss(Tensor(logits), labels, gamma=0.0).item()
        ce = L.cross_entropy(Tensor(logits), labels).item()
        np.testing.assert_allclose(focal, ce)

    def test_downweights_easy_examples(self):
        easy = np.array([[10.0, 0.0]])
        hard = np.array([[0.5, 0.0]])
        labels = np.array([0])
        ratio_focal = (
            L.focal_loss(Tensor(hard), labels).item()
            / max(L.focal_loss(Tensor(easy), labels).item(), 1e-30)
        )
        ratio_ce = (
            L.cross_entropy(Tensor(hard), labels).item()
            / L.cross_entropy(Tensor(easy), labels).item()
        )
        assert ratio_focal > ratio_ce

    def test_negative_gamma_raises(self, rng):
        with pytest.raises(ValueError):
            L.focal_loss(Tensor(rng.normal(size=(2, 3))), np.array([0, 1]), gamma=-1)

    def test_gradients_flow(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        L.focal_loss(x, np.array([0, 1, 2])).backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestDistillation:
    def test_zero_when_identical(self, rng):
        logits = rng.normal(size=(4, 5))
        loss = L.distillation_loss(Tensor(logits), Tensor(logits.copy()), temperature=3.0)
        # Ld = cross-entropy of identical distributions = entropy > 0; check
        # it equals the teacher entropy exactly.
        probs = F.softmax(Tensor(logits), axis=1, temperature=3.0).data
        entropy = -(probs * np.log(probs)).sum(axis=1).mean()
        np.testing.assert_allclose(loss.item(), entropy, atol=1e-10)

    def test_increases_with_disagreement(self, rng):
        teacher = rng.normal(size=(4, 5))
        near = teacher + rng.normal(scale=0.01, size=(4, 5))
        far = teacher + rng.normal(scale=5.0, size=(4, 5))
        loss_near = L.distillation_loss(Tensor(teacher), Tensor(near)).item()
        loss_far = L.distillation_loss(Tensor(teacher), Tensor(far)).item()
        assert loss_far > loss_near

    def test_no_gradient_into_teacher(self, rng):
        teacher = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        student = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        L.distillation_loss(teacher, student).backward()
        assert teacher.grad is None
        assert student.grad is not None

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            L.distillation_loss(Tensor(rng.normal(size=(2, 3))),
                                Tensor(rng.normal(size=(2, 4))))

    def test_gradcheck(self, rng):
        teacher = rng.normal(size=(2, 3))
        student_val = rng.normal(size=(2, 3))
        s = Tensor(student_val.copy(), requires_grad=True)
        L.distillation_loss(Tensor(teacher), s, temperature=2.0).backward()

        def f(v):
            def logsm(z):
                sh = z - z.max(axis=1, keepdims=True)
                return sh - np.log(np.exp(sh).sum(axis=1, keepdims=True))
            t_probs = np.exp(logsm(teacher / 2.0))
            return -(t_probs * logsm(v / 2.0)).sum(axis=1).mean()

        expected = numeric_grad(f, student_val.copy())
        np.testing.assert_allclose(s.grad, expected, atol=1e-5)


class TestLabelSmoothing:
    def test_zero_smoothing_equals_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 4, size=6)
        smoothed = L.label_smoothing_loss(logits, labels, smoothing=0.0)
        plain = L.cross_entropy(Tensor(logits.data.copy()), labels)
        assert smoothed.item() == pytest.approx(plain.item(), rel=1e-10)

    def test_smoothing_penalises_overconfidence(self):
        """On a correctly-classified sample, a saturated prediction costs
        MORE than a moderately confident one once smoothing is on."""
        labels = np.array([0])
        saturated = Tensor(np.array([[30.0, 0.0, 0.0]]))
        moderate = Tensor(np.array([[3.0, 0.0, 0.0]]))
        loss_saturated = L.label_smoothing_loss(saturated, labels, smoothing=0.2)
        loss_moderate = L.label_smoothing_loss(moderate, labels, smoothing=0.2)
        assert loss_saturated.item() > loss_moderate.item()

    def test_gradient_matches_numeric(self, rng):
        logits_data = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])

        def fn(x):
            return L.label_smoothing_loss(Tensor(x.copy()), labels, 0.1).item()

        logits = Tensor(logits_data.copy(), requires_grad=True)
        L.label_smoothing_loss(logits, labels, 0.1).backward()
        from ..conftest import numeric_grad

        numeric = numeric_grad(fn, logits_data)
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-6)

    def test_invalid_smoothing(self, rng):
        logits = Tensor(rng.normal(size=(2, 3)))
        labels = np.array([0, 1])
        with pytest.raises(ValueError):
            L.label_smoothing_loss(logits, labels, smoothing=1.0)
        with pytest.raises(ValueError):
            L.label_smoothing_loss(logits, labels, smoothing=-0.1)


class TestLossesPreserveDtype:
    """Every loss is dtype-generic: float32 logits give a float32 loss and
    float32 gradients, with no scalar constant promoting them."""

    @pytest.mark.parametrize("name", [
        "cross_entropy", "nll_from_logits", "focal_loss", "label_smoothing_loss",
        "distillation_loss",
    ])
    def test_float32_logits(self, name):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        if name == "distillation_loss":
            teacher = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
            loss = L.distillation_loss(teacher, logits, temperature=2.0)
        else:
            loss = getattr(L, name)(logits, np.array([0, 1, 2, 1]))
        assert loss.dtype == np.float32
        loss.backward()
        assert logits.grad.dtype == np.float32


class TestHardLossRegistry:
    def test_contains_paper_variants_plus_delta(self):
        assert set(L.HARD_LOSSES) == {
            "cross_entropy", "focal", "nll", "label_smoothing"
        }

    def test_lookup(self):
        assert L.get_hard_loss("cross_entropy") is L.cross_entropy
        assert L.get_hard_loss("label_smoothing") is L.label_smoothing_loss

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            L.get_hard_loss("hinge")


class TestStackAxis:
    """The hard losses' shape contract: ``(..., N, C)`` logits with
    ``(..., N)`` labels, reduced over ``N`` only — so a stacked cohort's
    ``(K, N, C)`` logits go through the same function as one client's, and
    slice ``k`` is that client's loss bit for bit."""

    @generated(60)
    @given(
        name=st.sampled_from(sorted(L.HARD_LOSSES)),
        reduction=st.sampled_from(["mean", "sum", "none"]),
        k=st.integers(1, 4),
        n=st.integers(1, 9),
        classes=st.integers(2, 6),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 2**16),
    )
    def test_slice_equals_lone_batch_value_and_grad(
        self, name, reduction, k, n, classes, dtype, seed
    ):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, 2.0, size=(k, n, classes)).astype(dtype)
        labels = rng.integers(0, classes, size=(k, n))
        loss_fn = L.get_hard_loss(name)

        stacked_in = Tensor(logits.copy(), requires_grad=True)
        stacked = loss_fn(stacked_in, labels, reduction=reduction)
        assert stacked.shape == ((k, n) if reduction == "none" else (k,))
        stacked.sum().backward()
        for index in range(k):
            lone_in = Tensor(logits[index].copy(), requires_grad=True)
            lone = loss_fn(lone_in, labels[index], reduction=reduction)
            lone.sum().backward()
            assert stacked.data[index].tobytes() == lone.data.tobytes()
            assert stacked_in.grad[index].tobytes() == lone_in.grad.tobytes()

    @pytest.mark.parametrize("name", sorted(L.HARD_LOSSES))
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_labels_are_range_checked_under_a_stack_axis(self, name, bad):
        # numpy wraps -1 to the last class: a stacked loss without the
        # range check trains silently on data the per-client path rejects.
        logits = Tensor(np.random.default_rng(0).normal(size=(2, 4, 3)))
        labels = np.array([[0, 1, 2, bad], [2, 1, 0, 0]])
        with pytest.raises(ValueError, match="labels out of range"):
            L.get_hard_loss(name)(logits, labels)

    def test_labels_must_match_the_leading_axes(self):
        logits = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ValueError, match="batch mismatch"):
            L.cross_entropy(logits, np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="batch mismatch"):
            L.cross_entropy(logits, np.zeros((4, 2), dtype=int))
        with pytest.raises(ValueError, match="logits must be"):
            L.cross_entropy(Tensor(np.zeros(3)), np.zeros((), dtype=int))
