"""Deletion-service recovery against the sidecar-replaying reference.

``UnlearningService.recover`` reads each shard once, from the sidecar of
the newest certified window that touched it or from the base save.
``tests/reference_recovery.py`` keeps the recovery that reinstalled
every certified sidecar in order.  Over generated histories (windows
over one to four shards, immediate or batched flushing, re-requests of
forgotten indices, compaction anywhere, a journal cut at any record
boundary, torn or not) both must rebuild the same service bit for bit,
and every certified window's journaled plan must name the checkpoint
files its sidecar holds.  Recovery's reads are counted too: one
checkpoint file per (shard, slice), however many windows certified, and
no sidecar file besides them.

CI runs the property a second time under ``--hypothesis-profile=soak``.
"""

import builtins
import os
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.models import RegistryModelFactory
from repro.nn.serialization import load_state_dict
from repro.unlearning import (
    BatchSizePolicy,
    ImmediatePolicy,
    SisaConfig,
    SisaEnsemble,
    UnlearningService,
    replay_journal,
)

from ..conftest import generated, make_blobs, sidecar_files
from ..reference_recovery import ReferenceRecovery

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
SEED = 3


def policy_for(name):
    return ImmediatePolicy() if name == "immediate" else BatchSizePolicy(int(name))


def shard_layout(ensemble):
    """Each shard's dataset indices."""
    return [np.concatenate(shard.slice_indices).tolist() for shard in ensemble._shards]


def assert_bitwise(actual, expected, context):
    assert sorted(actual) == sorted(expected), context
    for key, want in expected.items():
        got = actual[key]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (context, key)
        assert got.tobytes() == want.tobytes(), (context, key)


def assert_same_recovery(actual, expected):
    """Two recovered services hold the same requests, plans and shards."""
    assert actual._certified_order == expected._certified_order
    assert actual.states() == expected.states()
    assert [r.request_id for r in actual.manager.pending] == [
        r.request_id for r in expected.manager.pending
    ]
    assert actual.ensemble.deleted_indices == expected.ensemble.deleted_indices
    for got, want in zip(actual.ensemble._shards, expected.ensemble._shards):
        assert sorted(got.checkpoints) == sorted(want.checkpoints), f"shard {want.index}"
        for slice_index, state in want.checkpoints.items():
            assert_bitwise(
                got.checkpoints[slice_index], state, f"shard {want.index} slice {slice_index}"
            )
        assert_bitwise(
            got.model.state_dict(), want.model.state_dict(), f"shard {want.index} model"
        )


def assert_plans_match_sidecars(service):
    """Each certified window's journaled plan names what its sidecar holds:
    its shards' checkpoints from their first slices on, and nothing else."""
    num_slices = service.ensemble.config.num_slices
    for window_id in service._certified_order:
        batch = service._windows[window_id]
        assert sorted(batch.first_slices) == list(batch.shards), window_id
        assert sorted(os.listdir(service._window_dir(window_id))) == sidecar_files(
            batch, num_slices
        ), window_id


def tree(directory):
    """Every file under ``directory`` and its bytes."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, directory)] = handle.read()
    return out


# -- generated histories ------------------------------------------------
SISA = SisaConfig(num_shards=4, num_slices=2, epochs_per_slice=1, batch_size=8)
DATASET = make_blobs(num_samples=64, num_classes=3, shape=(1, 4, 4), seed=2)
LAYOUT = shard_layout(SisaEnsemble(FACTORY, DATASET, SISA, seed=SEED))


@st.composite
def steps(draw):
    """One step of a served history: a request over one to four shards,
    a re-request of an earlier request's indices, or a compaction."""
    kind = draw(st.sampled_from(["request", "rerequest", "request", "rerequest", "compact"]))
    if kind == "request":
        shards = draw(
            st.lists(st.integers(0, SISA.num_shards - 1), min_size=1, max_size=4, unique=True)
        )
        return kind, [draw(st.sampled_from(LAYOUT[shard])) for shard in shards]
    return kind, draw(st.integers(0, 20))


@st.composite
def histories(draw):
    return {
        "policy": draw(st.sampled_from(["immediate", "2", "3"])),
        "steps": draw(st.lists(steps(), min_size=2, max_size=10)),
        # How many of the journal's last records the crash loses; whether
        # a partial next record is left behind; whether sidecars of windows
        # whose `certified` record was lost stay on disk.
        "lost": draw(st.integers(0, 10)),
        "torn": draw(st.booleans()),
        "keep_sidecars": draw(st.booleans()),
    }


def serve(directory, history):
    service = UnlearningService(
        SisaEnsemble(FACTORY, DATASET, SISA, seed=SEED).fit(),
        directory,
        policy=policy_for(history["policy"]),
    )
    issued = []
    with service:
        for round_index, (kind, payload) in enumerate(history["steps"]):
            if kind == "compact":
                service.compact()
                continue
            if kind == "rerequest" and issued:
                payload = issued[payload % len(issued)]
            elif kind == "rerequest":
                payload = [LAYOUT[0][payload % len(LAYOUT[0])]]
            issued.append(payload)
            service.submit(0, payload, round_index, request_id=f"h{round_index}")
            service.tick(round_index)


def crash(directory, history):
    """Cut the journal at a record boundary, maybe leaving a torn tail."""
    path = os.path.join(directory, "journal.jsonl")
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    keep = max(0, len(lines) - history["lost"])
    kept = b"".join(lines[:keep])
    if history["torn"] and keep < len(lines):
        kept += lines[keep][: len(lines[keep]) // 2]
    with open(path, "wb") as handle:
        handle.write(kept)
    if not history["keep_sidecars"]:
        certified = set()
        for record in replay_journal(path):
            if record["event"] == "certified":
                certified.add(record["window"])
            elif record["event"] == "snapshot":
                certified.update(record["certified_order"])
        windows = os.path.join(directory, "windows")
        for name in os.listdir(windows) if os.path.isdir(windows) else ():
            if int(name) not in certified:
                shutil.rmtree(os.path.join(windows, name))


class TestAgainstTheSidecarReplay:
    @given(history=histories())
    @generated(50)
    def test_recovery_equals_the_reference(self, tmp_path_factory, history):
        root = tmp_path_factory.mktemp("history")
        source, mine, theirs = (str(root / name) for name in ("source", "new", "reference"))
        serve(source, history)
        crash(source, history)
        shutil.copytree(source, mine)
        shutil.copytree(source, theirs)
        round_index = len(history["steps"])
        recovered = UnlearningService.recover(
            mine, FACTORY, DATASET, policy=policy_for(history["policy"]), round_index=round_index
        )
        reference = ReferenceRecovery.recover(
            theirs, FACTORY, DATASET, policy=policy_for(history["policy"]), round_index=round_index
        )
        with recovered, reference:
            assert_same_recovery(recovered, reference)
            assert_plans_match_sidecars(recovered)
        # Whatever recovery wrote (resubmitted windows, a cut torn tail)
        # it wrote the same way.
        assert tree(mine) == tree(theirs)
        shutil.rmtree(str(root))


def test_one_seed_and_one_stream_write_one_directory(tmp_path):
    """Checkpoint files hold nothing but the arrays, so two services run
    with one seed and one request stream write the same bytes."""
    history = {
        "policy": "2",
        "steps": [
            ("request", [LAYOUT[0][0], LAYOUT[2][0]]),
            ("request", [LAYOUT[1][0]]),
            ("rerequest", 0),
            ("compact", None),
            ("request", [LAYOUT[3][1]]),
            ("request", [LAYOUT[2][2]]),
        ],
    }
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    serve(first, history)
    serve(second, history)
    files = tree(first)
    assert any(key.startswith("windows") and key.endswith(".ckpt") for key in files)
    assert files == tree(second)


# -- counted reads ------------------------------------------------------
FLAT_SISA = SisaConfig(num_shards=3, num_slices=4, epochs_per_slice=1, batch_size=8)
FLAT_DATASET = make_blobs(num_samples=96, num_classes=3, shape=(1, 4, 4), seed=4)
HISTORY_LENGTHS = (1, 5, 20)


def spy_on(monkeypatch, original, calls):
    """Record the first argument of every call to ``original``, wherever
    a ``repro`` module bound it by name."""

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, spy)


class TestRecoveryReadsEachShardOnce:
    """A 3-shard x 4-slice ensemble recovers from 12 checkpoint files
    after 1, 5 or 20 certified windows, and opens no other file under
    ``windows/`` (a sidecar holds checkpoints only, no ``meta.json``)."""

    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("flat")
        ensemble = SisaEnsemble(FACTORY, FLAT_DATASET, FLAT_SISA, seed=SEED).fit()
        layout = shard_layout(ensemble)
        snapshots = {}
        with UnlearningService(ensemble, str(root / "live"), policy=ImmediatePolicy()) as service:
            for window in range(max(HISTORY_LENGTHS)):
                # Every third window spans two shards.
                shards = [window % 3] + ([(window + 1) % 3] if window % 3 == 2 else [])
                indices = [layout[shard][window // 3] for shard in shards]
                service.submit(0, indices, window, request_id=f"w{window}")
                service.tick(window)
                if window + 1 in HISTORY_LENGTHS:
                    assert len(service._certified_order) == window + 1
                    snapshots[window + 1] = str(root / f"after{window + 1:02d}")
                    shutil.copytree(str(root / "live"), snapshots[window + 1])
        return snapshots

    @pytest.mark.parametrize("windows", HISTORY_LENGTHS)
    def test_twelve_checkpoint_reads(self, snapshots, monkeypatch, windows):
        directory = snapshots[windows]
        records = replay_journal(os.path.join(directory, "journal.jsonl"))
        plans = {r["window"]: r["shards"] for r in records if r["event"] == "scheduled"}
        newest = {}  # shard -> the last certified window that touched it
        for record in records:
            if record["event"] == "certified":
                for shard in plans[record["window"]]:
                    newest[shard] = record["window"]
        superseded = set(plans) - set(newest.values())
        assert windows < 5 or superseded

        loads, opened = [], []
        spy_on(monkeypatch, load_state_dict, loads)
        real_open = builtins.open

        def watched_open(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)):
                opened.append(os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", watched_open)
        recovered = UnlearningService.recover(directory, FACTORY, FLAT_DATASET)
        monkeypatch.undo()
        with recovered:
            assert len(recovered._certified_order) == windows
        assert len(loads) == FLAT_SISA.num_shards * FLAT_SISA.num_slices
        assert len(set(loads)) == len(loads)
        assert not [path for path in opened if os.path.basename(path) == "meta.json"]
        windows_dir = os.path.join(directory, "windows")
        assert {
            path for path in opened if path.startswith(windows_dir)
        } <= set(loads)
