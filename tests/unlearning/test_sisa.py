"""SISA ensemble: shard/slice partitioning, checkpoints, deletion cost."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.models import MLP
from repro.runtime import get_backend
from repro.unlearning import SisaConfig, SisaEnsemble

from ..conftest import counterfactual_fit, generated, log_durability, make_blobs


def make_ensemble(num_samples=72, num_shards=3, num_slices=4, seed=0, **kwargs):
    dataset = make_blobs(
        num_samples=num_samples, num_classes=3, shape=(1, 4, 4), seed=seed
    )
    factory = lambda: MLP(16, 3, np.random.default_rng(13))
    config = SisaConfig(
        num_shards=num_shards,
        num_slices=num_slices,
        epochs_per_slice=2,
        batch_size=8,
        learning_rate=0.08,
        **kwargs,
    )
    return SisaEnsemble(factory, dataset, config, seed=seed), dataset


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"num_slices": 0},
            {"epochs_per_slice": 0},
            {"aggregation": "mean"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SisaConfig(**kwargs)

    def test_too_small_dataset_rejected(self):
        dataset = make_blobs(num_samples=5)
        factory = lambda: MLP(64, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="cannot fill"):
            SisaEnsemble(factory, dataset, SisaConfig(num_shards=3, num_slices=4))


class TestPartitioning:
    def test_shards_and_slices_are_a_disjoint_cover(self):
        ensemble, dataset = make_ensemble()
        seen = []
        for shard in ensemble._shards:
            assert len(shard.slice_indices) == 4
            for part in shard.slice_indices:
                seen.extend(part.tolist())
        assert sorted(seen) == list(range(len(dataset)))

    def test_shard_of_locates_every_index(self):
        ensemble, dataset = make_ensemble(num_samples=36, num_shards=2, num_slices=3)
        for index in range(len(dataset)):
            shard_index, slice_index = ensemble.shard_of(index)
            assert index in ensemble._shards[shard_index].slice_indices[slice_index]

    def test_shard_of_unknown_index(self):
        ensemble, _ = make_ensemble()
        with pytest.raises(KeyError):
            ensemble.shard_of(10_000)

    def test_shard_of_miss_is_an_out_of_range_index(self):
        # A deleted index keeps its location, so the only way to miss is
        # an index the dataset never had — and the error says that.
        ensemble, dataset = make_ensemble(num_samples=36, num_shards=2, num_slices=3)
        ensemble.fit()
        before = ensemble.shard_of(5)
        ensemble.delete([5])
        assert ensemble.shard_of(5) == before
        for bad in (-1, len(dataset)):
            with pytest.raises(KeyError, match="out of range for a dataset of 36"):
                ensemble.shard_of(bad)


class TestTraining:
    def test_fit_checkpoints_every_slice(self):
        ensemble, _ = make_ensemble(num_slices=3)
        ensemble.fit()
        for shard in ensemble._shards:
            assert sorted(shard.checkpoints) == [0, 1, 2]
            assert shard.model is not None

    def test_ensemble_learns(self):
        ensemble, dataset = make_ensemble()
        accuracy = ensemble.fit().evaluate(dataset)
        assert accuracy > 0.8  # well above 1/3 chance on blobs

    def test_predict_before_fit_rejected(self):
        ensemble, dataset = make_ensemble()
        with pytest.raises(RuntimeError):
            ensemble.predict(dataset.images)
        with pytest.raises(RuntimeError):
            ensemble.delete([0])

    def test_hard_vote_aggregation(self):
        ensemble, dataset = make_ensemble(aggregation="hard")
        probs = ensemble.fit().predict_proba(dataset.images[:5])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        # Votes are multiples of 1/num_shards.
        np.testing.assert_allclose(probs * 3, np.round(probs * 3), atol=1e-9)


class TestDeletion:
    def test_deletion_only_touches_affected_shard(self):
        ensemble, _ = make_ensemble()
        ensemble.fit()
        before = {
            shard.index: {k: {p: a.copy() for p, a in v.items()}
                          for k, v in shard.checkpoints.items()}
            for shard in ensemble._shards
        }
        target = int(ensemble._shards[1].slice_indices[2][0])
        report = ensemble.delete([target])
        assert report.shards_affected == [1]
        assert report.num_deleted == 1
        # Shards 0 and 2 keep their exact checkpoints.
        for shard_index in (0, 2):
            shard = ensemble._shards[shard_index]
            for slice_index, state in shard.checkpoints.items():
                for key, value in state.items():
                    np.testing.assert_array_equal(
                        value, before[shard_index][slice_index][key]
                    )

    def test_cost_depends_on_slice_position(self):
        """Deleting from the last slice is cheaper than from the first."""
        ensemble, _ = make_ensemble(num_shards=2, num_slices=4)
        ensemble.fit()
        late = int(ensemble._shards[0].slice_indices[3][0])
        early = int(ensemble._shards[1].slice_indices[0][0])
        late_report = ensemble.delete([late])
        early_report = ensemble.delete([early])
        assert late_report.slices_retrained == 1
        assert early_report.slices_retrained == 4
        assert late_report.fraction_retrained < early_report.fraction_retrained

    def test_accuracy_survives_deletion(self):
        ensemble, dataset = make_ensemble()
        ensemble.fit()
        report = ensemble.delete([0, 1, 2])
        remaining = dataset.remove([0, 1, 2])
        assert ensemble.evaluate(remaining) > 0.75
        assert report.slices_reused + report.slices_retrained <= report.slice_steps_total + 4

    def test_double_delete_rejected(self):
        ensemble, _ = make_ensemble()
        ensemble.fit()
        ensemble.delete([3])
        with pytest.raises(ValueError, match="already deleted"):
            ensemble.delete([3])

    def test_bad_requests_rejected(self):
        ensemble, _ = make_ensemble()
        ensemble.fit()
        with pytest.raises(ValueError, match="no indices"):
            ensemble.delete([])
        with pytest.raises(ValueError, match="out of range"):
            ensemble.delete([-1])
        with pytest.raises(ValueError, match="out of range"):
            ensemble.delete([len(ensemble.dataset)])

    @pytest.mark.parametrize("indices", [[2.5], [True], ["7"], [float("nan")]])
    def test_indices_that_are_not_whole_numbers_rejected(self, indices):
        """``2.5``, ``True`` and ``"7"`` used to delete samples 2, 1 and 7."""
        ensemble, _ = make_ensemble()
        ensemble.fit()
        with pytest.raises(ValueError, match="indices must be"):
            ensemble.delete(indices)
        assert ensemble.num_deleted == 0 and not ensemble.pending_shards


class TestPersistence:
    def test_save_load_roundtrip_preserves_predictions(self, tmp_path):
        ensemble, dataset = make_ensemble()
        ensemble.fit()
        ensemble.delete([5])
        expected = ensemble.predict_proba(dataset.images[:10])
        ensemble.save(str(tmp_path))

        factory = lambda: MLP(16, 3, np.random.default_rng(13))
        restored = SisaEnsemble.load(str(tmp_path), factory, dataset)
        np.testing.assert_allclose(
            restored.predict_proba(dataset.images[:10]), expected, atol=1e-12
        )
        assert restored.num_deleted == 1
        assert restored.config == ensemble.config

    def test_deletion_after_load_resumes_from_checkpoint(self, tmp_path):
        ensemble, dataset = make_ensemble(num_slices=4)
        ensemble.fit()
        ensemble.save(str(tmp_path))
        factory = lambda: MLP(16, 3, np.random.default_rng(13))
        restored = SisaEnsemble.load(str(tmp_path), factory, dataset)
        target = int(restored._shards[0].slice_indices[3][0])
        report = restored.delete([target])
        # Last-slice deletion: the restored checkpoints must let it
        # retrain exactly one slice step, not the whole shard.
        assert report.slices_retrained == 1

    def test_save_is_durable_before_its_manifest(self, tmp_path, monkeypatch):
        """Every checkpoint, the directory entries naming them and the
        temp manifest are fsynced before ``manifest.json`` is replaced
        into place, and the directory again after it: a manifest on disk
        never names checkpoint bytes that did not reach it."""
        ensemble, _ = make_ensemble()
        ensemble.fit()
        log = []
        log_durability(monkeypatch, log)
        ensemble.save(str(tmp_path))
        monkeypatch.undo()
        directory = os.path.realpath(str(tmp_path))
        manifest = os.path.join(directory, "manifest.json")
        replaced = log.index(("replace", manifest + ".tmp", manifest))
        before = [entry[1] for entry in log[:replaced] if entry[0] == "fsync"]
        checkpoints = [
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith(".ckpt")
        ]
        assert len(checkpoints) == 3 * 4
        assert set(checkpoints) <= set(before)
        # The directory is synced after the last checkpoint, and the temp
        # manifest before the replace.
        last_checkpoint = max(before.index(path) for path in checkpoints)
        assert directory in before[last_checkpoint:]
        assert before[-1] == manifest + ".tmp"
        assert ("fsync", directory) in log[replaced:]

    def test_save_before_fit_rejected(self, tmp_path):
        ensemble, _ = make_ensemble()
        with pytest.raises(RuntimeError):
            ensemble.save(str(tmp_path))

    def test_incomplete_save_rejected(self, tmp_path):
        ensemble, dataset = make_ensemble()
        ensemble.fit()
        ensemble.save(str(tmp_path))
        # Corrupt: remove one shard's final checkpoint file and its
        # manifest entry.
        import json, os
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        last = manifest["shards"][0]["checkpoints"].pop()
        os.remove(tmp_path / f"shard0_slice{last}.ckpt")
        manifest_path.write_text(json.dumps(manifest))
        factory = lambda: MLP(16, 3, np.random.default_rng(13))
        with pytest.raises(ValueError, match="missing its final checkpoint"):
            SisaEnsemble.load(str(tmp_path), factory, dataset)


    def test_a_manifest_without_a_seed_is_rejected(self, tmp_path):
        """The seed keys every slice's stream, so a save that does not
        record it (one from before it did) cannot be retrained from."""
        import json
        ensemble, dataset = make_ensemble(num_shards=2, num_slices=2, seed=4)
        ensemble.fit()
        ensemble.save(str(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == 4
        del manifest["seed"]
        manifest_path.write_text(json.dumps(manifest))
        factory = lambda: MLP(16, 3, np.random.default_rng(13))
        with pytest.raises(ValueError, match="without a seed"):
            SisaEnsemble.load(str(tmp_path), factory, dataset)

    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", float("nan")), ("momentum", 1.0), ("batch_size", 0)],
    )
    def test_a_manifest_that_cannot_train_is_rejected_at_load(
        self, tmp_path, field, value
    ):
        """A hand-edited or corrupt config fails when the ensemble is
        rebuilt, not at its first deletion."""
        import json
        ensemble, dataset = make_ensemble(num_shards=2, num_slices=2)
        ensemble.fit()
        ensemble.save(str(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][field] = value
        manifest_path.write_text(json.dumps(manifest))
        factory = lambda: MLP(16, 3, np.random.default_rng(13))
        with pytest.raises(ValueError, match=field):
            SisaEnsemble.load(str(tmp_path), factory, dataset)


class TestProperties:
    @given(
        num_shards=st.integers(1, 4),
        num_slices=st.integers(1, 4),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_partition_is_always_a_cover(self, num_shards, num_slices, seed):
        dataset = make_blobs(num_samples=40, num_classes=3, shape=(1, 4, 4))
        factory = lambda: MLP(16, 3, np.random.default_rng(0))
        config = SisaConfig(num_shards=num_shards, num_slices=num_slices)
        ensemble = SisaEnsemble(factory, dataset, config, seed=seed)
        seen = np.concatenate([
            part for shard in ensemble._shards for part in shard.slice_indices
        ])
        assert sorted(seen.tolist()) == list(range(40))

    @given(position=st.integers(0, 3))
    @settings(max_examples=8, deadline=None)
    def test_property_retrain_count_matches_slice_position(self, position):
        """Deleting one point from slice r retrains exactly R − r steps."""
        ensemble, _ = make_ensemble(num_shards=2, num_slices=4)
        ensemble.fit()
        target = int(ensemble._shards[0].slice_indices[position][0])
        report = ensemble.delete([target])
        assert report.slices_retrained == 4 - position

    @given(
        num_shards=st.integers(1, 4),
        num_slices=st.integers(1, 3),
        vectorize=st.booleans(),
        windows=st.lists(
            st.sets(st.integers(0, 35), min_size=1, max_size=8),
            min_size=1, max_size=4,
        ),
    )
    @generated(15)
    def test_property_deletion_is_complete(
        self, num_shards, num_slices, vectorize, windows
    ):
        """After any deletion windows, no stage of any retrain chain
        carries a forgotten index, and ``shard_sizes`` are the live counts."""
        dataset = make_blobs(num_samples=36, num_classes=3, shape=(1, 4, 4))
        factory = lambda: MLP(16, 3, np.random.default_rng(0))
        config = SisaConfig(num_shards=num_shards, num_slices=num_slices, batch_size=8)
        ensemble = SisaEnsemble(
            factory, dataset, config, seed=1, vectorize=vectorize
        ).fit()
        forgotten = set()
        for window in windows:
            window = window - forgotten  # re-deleting is rejected, by design
            if not window:
                continue
            pending = ensemble.delete_begin(sorted(window))
            forgotten |= window
            assert len(pending.tasks) == len({ensemble.shard_of(i)[0] for i in window})
            for task in pending.tasks:
                own = np.concatenate(ensemble._shards[task.task_id].slice_indices)
                for stage in task.stages:
                    assert not forgotten & set(stage.indices.tolist())
                    assert np.isin(stage.indices, own).all()  # shard isolation
            ensemble.delete_finish(pending, ensemble._run_chains(pending.tasks))
            assert not ensemble.pending_shards
        assert ensemble.deleted_indices == forgotten
        assert ensemble.shard_sizes() == [
            sum(
                int(index) not in forgotten
                for part in shard.slice_indices
                for index in part
            )
            for shard in ensemble._shards
        ]
        assert sum(ensemble.shard_sizes()) == 36 - len(forgotten)


def mlp_factory():  # module-level, so chains pickle to pool workers
    return MLP(16, 3, np.random.default_rng(0))


@st.composite
def deletion_windows(draw):
    """Sequential deletion windows: sets of indices, or a whole (shard,
    slice) cell resolved against the partition (so slices, prefixes and
    shards empty out)."""
    cell = st.tuples(st.just("cell"), st.integers(0, 3), st.integers(0, 2))
    loose = st.tuples(st.just("set"), st.sets(st.integers(0, 35), min_size=1, max_size=8))
    return draw(st.lists(st.lists(st.one_of(loose, cell), min_size=1, max_size=3),
                         min_size=1, max_size=4))


class TestDeletionIsTheCounterfactualFit:
    """After any sequence of deletion windows — over any shard and slice
    counts, with or without stacked chains, serially or on ``pool:2``,
    with a save and load anywhere in the sequence — every shard's model
    and checkpoints are bit for bit those of a fit that never held the
    deleted samples.  Each window keeps, as the very same objects, the
    checkpoints before its first affected slice and every untouched
    shard's; the live counts are the counterfactual's.

    CI runs the property a second time under ``--hypothesis-profile=soak``.
    """

    @pytest.fixture(scope="class")
    def pool(self):
        backend = get_backend("pool:2")
        yield backend
        backend.close()

    @given(
        num_shards=st.integers(1, 4),
        num_slices=st.integers(1, 3),
        seed=st.integers(0, 3),
        vectorize=st.booleans(),
        on_pool=st.booleans(),
        windows=deletion_windows(),
        reload_after=st.integers(0, 4),
    )
    @generated(15)
    def test_every_model_and_checkpoint_equals_the_counterfactual_fit(
        self, pool, num_shards, num_slices, seed, vectorize, on_pool, windows, reload_after
    ):
        dataset = make_blobs(num_samples=36, num_classes=3, shape=(1, 4, 4))
        config = SisaConfig(num_shards=num_shards, num_slices=num_slices, batch_size=8)
        backend = pool if on_pool else None
        ensemble = SisaEnsemble(
            mlp_factory, dataset, config, seed=seed, backend=backend, vectorize=vectorize
        ).fit()
        forgotten = set()
        for position, window in enumerate(windows):
            if position == reload_after:
                with tempfile.TemporaryDirectory() as directory:
                    ensemble.save(directory)
                    ensemble = SisaEnsemble.load(
                        directory, mlp_factory, dataset, backend=backend
                    )
                ensemble.vectorize = vectorize
            chosen = set()
            for kind, *what in window:
                if kind == "cell":
                    shard = ensemble._shards[what[0] % num_shards]
                    chosen.update(shard.slice_indices[what[1] % num_slices].tolist())
                else:
                    chosen.update(what[0])
            chosen -= ensemble.deleted_indices  # re-deleting is rejected, by design
            if not chosen:
                continue
            before = [dict(shard.checkpoints) for shard in ensemble._shards]
            report = ensemble.delete(sorted(chosen))
            forgotten |= chosen
            assert report.num_deleted == len(chosen)
            first = {}
            for index in chosen:
                shard_index, slice_index = ensemble.shard_of(index)
                first[shard_index] = min(slice_index, first.get(shard_index, slice_index))
            assert report.shards_affected == sorted(first)
            for shard, kept in zip(ensemble._shards, before):
                start = first.get(shard.index, num_slices)
                for slice_index in range(start):
                    assert shard.checkpoints[slice_index] is kept[slice_index]

        counterfactual = counterfactual_fit(ensemble, seed)
        for got, want in zip(ensemble._shards, counterfactual._shards):
            assert sorted(got.checkpoints) == list(range(num_slices))
            for slice_index in range(num_slices):
                assert_same_bytes(got.checkpoints[slice_index], want.checkpoints[slice_index])
            assert_same_bytes(got.model.state_dict(), want.model.state_dict())
        assert ensemble.deleted_indices == forgotten
        assert ensemble.num_deleted == len(forgotten)
        assert ensemble.shard_sizes() == [
            sum(len(part) for part in shard.slice_indices) for shard in counterfactual._shards
        ]
        assert sum(ensemble.shard_sizes()) == len(dataset) - ensemble.num_deleted


def assert_same_bytes(got, want):
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert (got[key].dtype, got[key].shape) == (value.dtype, value.shape), key
        assert got[key].tobytes() == value.tobytes(), key
