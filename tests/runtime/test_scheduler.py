"""The pull scheduler: leases, expiry, retry budgets, stale completions."""

import pytest

from repro.runtime.scheduler import PullScheduler


class _Task:
    def __init__(self, name):
        self.name = name

    def run(self):
        return self.name


def make_scheduler(**kwargs):
    kwargs.setdefault("lease_timeout", 10.0)
    return PullScheduler(**kwargs)


class TestBatches:
    def test_grants_in_submission_order_and_fills_results(self):
        sched = make_scheduler()
        ticket = sched.add_batch([_Task("a"), _Task("b")])
        first = sched.next_task("peer-1")
        second = sched.next_task("peer-2")
        assert first.item[1] == 0 and first.item[2].name == "a"
        assert second.item[1] == 1 and second.item[2].name == "b"
        assert sched.next_task("peer-1") is None  # queue empty → park
        assert sched.complete(second.lease_id, None, "B")
        assert not sched.batch_done(ticket)
        assert sched.complete(first.lease_id, None, "A")
        assert sched.batch_done(ticket)
        batch = sched.finish_batch(ticket)
        assert batch.results == ["A", "B"]
        assert batch.errors == []

    def test_interleaved_batches_keep_separate_bookkeeping(self):
        sched = make_scheduler()
        one = sched.add_batch([_Task("a")])
        two = sched.add_batch([_Task("b")])
        lease_a = sched.next_task("p")
        lease_b = sched.next_task("p")
        sched.complete(lease_b.lease_id, None, "B")
        assert sched.batch_done(two) and not sched.batch_done(one)
        sched.complete(lease_a.lease_id, None, "A")
        assert sched.finish_batch(one).results == ["A"]
        assert sched.finish_batch(two).results == ["B"]

    def test_unknown_ticket_raises(self):
        sched = make_scheduler()
        with pytest.raises(ValueError, match="unknown"):
            sched.batch(99)

    def test_error_completion_recorded_on_batch(self):
        sched = make_scheduler()
        ticket = sched.add_batch([_Task("a")])
        lease = sched.next_task("p")
        sched.complete(lease.lease_id, "ValueError: boom", None)
        batch = sched.finish_batch(ticket)
        assert batch.remaining == 0
        assert batch.errors == ["ValueError: boom"]


class TestLeaseLifecycle:
    def test_stale_completion_after_release_is_dropped(self):
        sched = make_scheduler()
        ticket = sched.add_batch([_Task("a")])
        lost = sched.next_task("dead-peer")
        assert sched.release_peer("dead-peer") == [lost.item]
        # The dead peer's result arrives late: recognised and ignored.
        assert not sched.complete(lost.lease_id, None, "stale")
        retry = sched.next_task("live-peer")
        assert retry.item == lost.item
        assert sched.complete(retry.lease_id, None, "fresh")
        assert sched.finish_batch(ticket).results == ["fresh"]

    def test_double_completion_is_dropped(self):
        sched = make_scheduler()
        sched.add_batch([_Task("a")])
        lease = sched.next_task("p")
        assert sched.complete(lease.lease_id, None, "once")
        assert not sched.complete(lease.lease_id, None, "twice")

    def test_expiry_requeues_at_front(self):
        sched = make_scheduler(lease_timeout=5.0)
        sched.add_batch([_Task("a"), _Task("b")])
        slow = sched.next_task("slow", now=100.0)
        assert sched.expire_leases(now=104.0) == []  # not yet due
        assert sched.expire_leases(now=105.0) == [slow.item]
        # Requeued ahead of the never-granted second task.
        regrant = sched.next_task("fast", now=106.0)
        assert regrant.item == slow.item

    def test_retry_budget_exhaustion_fails_the_batch(self):
        sched = make_scheduler(max_task_retries=1)
        ticket = sched.add_batch([_Task("a")])
        sched.next_task("p1")
        sched.release_peer("p1")  # loss 1: requeued
        sched.next_task("p2")
        assert sched.release_peer("p2") == []  # loss 2: over budget
        batch = sched.finish_batch(ticket)
        assert batch.remaining == 0
        assert "giving up" in batch.errors[0]

    def test_successful_retry_resets_the_death_counter(self):
        sched = make_scheduler(max_task_retries=1)
        one = sched.add_batch([_Task("a")])
        sched.next_task("p")
        sched.release_peer("p")
        lease = sched.next_task("p")
        sched.complete(lease.lease_id, None, "ok")
        assert sched.finish_batch(one).results == ["ok"]
        # A later batch's task at the same (ticket, index) shape starts
        # with a fresh budget.
        two = sched.add_batch([_Task("b")])
        sched.next_task("p")
        sched.release_peer("p")
        retry = sched.next_task("p")
        sched.complete(retry.lease_id, None, "ok2")
        assert sched.finish_batch(two).results == ["ok2"]

    def test_rescind_requeues_without_charging(self):
        sched = make_scheduler(max_task_retries=0)  # any charged loss fails
        ticket = sched.add_batch([_Task("a")])
        lease = sched.next_task("p")
        sched.rescind(lease.lease_id)  # dispatch failed before start
        retry = sched.next_task("p")
        assert retry.item == lease.item
        sched.complete(retry.lease_id, None, "ok")
        assert sched.finish_batch(ticket).results == ["ok"]

    def test_release_peer_only_touches_that_peer(self):
        sched = make_scheduler()
        sched.add_batch([_Task("a"), _Task("b")])
        mine = sched.next_task("keep")
        sched.next_task("drop")
        sched.release_peer("drop")
        assert sched.lease_for(mine.lease_id) is not None

    def test_fail_all_outstanding_marks_incomplete_batches(self):
        sched = make_scheduler()
        ticket = sched.add_batch([_Task("a")])
        sched.next_task("p")
        sched.fail_all_outstanding("coordinator closed")
        batch = sched.finish_batch(ticket)
        assert batch.remaining == 0
        assert batch.errors == ["coordinator closed"]


class TestChargeTaxonomy:
    def test_charge_free_release_never_burns_the_budget(self):
        """Transport faults (corrupt frames, failed dispatches) requeue
        without charging — only real losses count against the retries."""
        sched = make_scheduler(max_task_retries=0)  # any charged loss fails
        ticket = sched.add_batch([_Task("a")])
        for attempt in range(3):
            lease = sched.next_task(f"p{attempt}")
            assert sched.release_peer(f"p{attempt}", charge=False) == [lease.item]
        lease = sched.next_task("survivor")
        sched.complete(lease.lease_id, None, "ok")
        assert sched.finish_batch(ticket).results == ["ok"]

    def test_fault_counters_ledger(self):
        sched = make_scheduler(max_task_retries=10, lease_timeout=5.0)
        sched.add_batch([_Task("a"), _Task("b")])
        lost = sched.next_task("p1", now=100.0)
        sched.release_peer("p1")  # charged
        freed = sched.next_task("p2", now=100.0)
        sched.release_peer("p2", charge=False)  # charge-free
        expired = sched.next_task("p3", now=100.0)
        assert sched.expire_leases(now=106.0) == [expired.item]  # charged too
        stale = sched.next_task("p4", now=106.0)
        sched.release_peer("p4")  # charged
        assert not sched.complete(stale.lease_id, None, "late")  # stale
        counters = sched.fault_counters()
        assert counters["charged_retries"] == 3  # p1 loss + expiry + p4 loss
        assert counters["free_requeues"] == 1
        assert counters["lease_expiries"] == 1
        assert counters["stale_completions"] == 1
        assert counters["tasks_failed"] == 0
        assert lost.item == freed.item  # same task bounced through both

    def test_over_budget_loss_counts_tasks_failed(self):
        sched = make_scheduler(max_task_retries=0)
        ticket = sched.add_batch([_Task("a")])
        sched.next_task("p")
        sched.release_peer("p")
        assert sched.fault_counters()["tasks_failed"] == 1
        assert "giving up" in sched.finish_batch(ticket).errors[0]


class TestCapacityAccounting:
    def test_outstanding_tracks_grants_and_completions(self):
        sched = make_scheduler()
        sched.add_batch([_Task("a"), _Task("b"), _Task("c")])
        assert sched.outstanding_for("p") == 0
        first = sched.next_task("p")
        second = sched.next_task("p")
        assert sched.outstanding_for("p") == 2
        sched.complete(first.lease_id, None, "A")
        assert sched.outstanding_for("p") == 1
        sched.rescind(second.lease_id)
        assert sched.outstanding_for("p") == 0

    def test_outstanding_cleared_on_release_and_expiry(self):
        sched = make_scheduler(lease_timeout=5.0)
        sched.add_batch([_Task("a"), _Task("b")])
        sched.next_task("gone", now=100.0)
        sched.next_task("slow", now=100.0)
        sched.release_peer("gone")
        assert sched.outstanding_for("gone") == 0
        sched.expire_leases(now=106.0)
        assert sched.outstanding_for("slow") == 0


class TestValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            PullScheduler(lease_timeout=0)
        with pytest.raises(ValueError):
            PullScheduler(max_task_retries=-1)
