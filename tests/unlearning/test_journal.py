"""The deletion service's write-ahead journal, on its own.

``tests/unlearning/test_service.py`` drives the journal through the
service; these tests pin the primitive's contract directly: lazy open,
``seq`` stamping across reopen and compaction, canonical one-line JSON
records, atomic compaction, and which damage replay tolerates.
"""

import json
import os

import pytest

from repro.unlearning import Journal, JournalCorruption, replay_journal
from repro.unlearning.journal import iter_replay


def write_records(path, count):
    with Journal(path) as journal:
        return [journal.append({"event": "tick", "i": i}) for i in range(count)]


class TestAppend:
    def test_construction_touches_nothing(self, tmp_path):
        path = tmp_path / "nested" / "journal.jsonl"
        journal = Journal(str(path))
        journal.close()
        assert not (tmp_path / "nested").exists()

    def test_first_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "journal.jsonl"
        write_records(str(path), 1)
        assert path.is_file()

    def test_sequence_counts_from_zero(self, tmp_path):
        records = write_records(str(tmp_path / "journal.jsonl"), 4)
        assert [record["seq"] for record in records] == [0, 1, 2, 3]
        assert [record["i"] for record in records] == [0, 1, 2, 3]

    def test_caller_record_is_not_mutated(self, tmp_path):
        original = {"event": "submit", "request_id": "r1"}
        with Journal(str(tmp_path / "journal.jsonl")) as journal:
            stamped = journal.append(original)
        assert original == {"event": "submit", "request_id": "r1"}
        assert stamped == {"event": "submit", "request_id": "r1", "seq": 0}

    def test_records_are_canonical_json_lines(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"zeta": [1, 2], "alpha": {"y": 1, "x": 2}})
        with open(path) as handle:
            text = handle.read()
        assert text == '{"alpha":{"x":2,"y":1},"seq":0,"zeta":[1,2]}\n'

    def test_close_is_idempotent_and_append_reopens(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path)
        journal.append({"event": "a"})
        journal.close()
        journal.close()
        assert journal.append({"event": "b"})["seq"] == 1
        journal.close()
        assert [record["event"] for record in replay_journal(path)] == ["a", "b"]


class TestReplay:
    def test_missing_file_is_empty(self, tmp_path):
        assert replay_journal(str(tmp_path / "absent.jsonl")) == []

    def test_round_trips_what_was_appended(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        appended = write_records(path, 3)
        assert replay_journal(path) == appended

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 2)
        with open(path) as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(path, "w") as handle:
            handle.write(lines[0] + "\n   \n" + lines[1])
        assert [record["i"] for record in replay_journal(path)] == [0, 1]

    def test_truncation_at_a_record_boundary_keeps_the_prefix(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 3)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:2]))
        assert [record["i"] for record in replay_journal(path)] == [0, 1]

    def test_corrupt_last_line_with_nothing_after_is_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 2)
        with open(path, "a") as handle:
            handle.write('{"event": "ti\n')
        assert [record["i"] for record in replay_journal(path)] == [0, 1]

    def test_corruption_in_the_middle_names_its_line(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 3)
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b"\xff\xfe garbage\n"
        with open(path, "wb") as handle:
            handle.write(b"".join(lines))
        with pytest.raises(JournalCorruption, match="line 2"):
            replay_journal(path)

    def test_replay_leaves_a_torn_tail_on_disk(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 2)
        with open(path, "a") as handle:
            handle.write('{"event": "ti')
        with open(path, "rb") as handle:
            before = handle.read()
        assert [record["i"] for record in replay_journal(path)] == [0, 1]
        Journal(path).close()
        with open(path, "rb") as handle:
            assert handle.read() == before

    @pytest.mark.parametrize("tail", ['{"event": "ti', '{"event": "ti\n'])
    def test_append_after_a_torn_tail_starts_a_fresh_line(self, tmp_path, tail):
        """The first append cuts the tear off instead of gluing the new
        record onto it, so the journal replays again afterwards."""
        path = str(tmp_path / "journal.jsonl")
        written = write_records(path, 2)
        with open(path, "a") as handle:
            handle.write(tail)
        with Journal(path) as journal:
            written.append(journal.append({"event": "tick", "i": 2}))
        assert written[-1]["seq"] == 2
        assert replay_journal(path) == written
        with open(path) as handle:
            assert handle.read().count("\n") == 3

    def test_iter_replay_matches_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 3)
        assert list(iter_replay(path)) == replay_journal(path)


class TestCompaction:
    def test_history_collapses_to_one_snapshot(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            for i in range(3):
                journal.append({"event": "tick", "i": i})
            snapshot = journal.compact({"event": "snapshot", "live": [7]})
        assert snapshot == {"event": "snapshot", "live": [7], "seq": 3}
        assert replay_journal(path) == [snapshot]

    def test_appends_continue_the_sequence_after_compaction(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"event": "a"})
            journal.compact({"event": "snapshot"})
            journal.append({"event": "b"})
        assert [(r["event"], r["seq"]) for r in replay_journal(path)] == [
            ("snapshot", 1),
            ("b", 2),
        ]

    def test_compacting_an_unopened_journal_resumes_past_disk(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        write_records(path, 5)
        with Journal(path) as journal:
            snapshot = journal.compact({"event": "snapshot"})
        assert snapshot["seq"] == 5
        assert replay_journal(path) == [snapshot]

    def test_compaction_leaves_no_temp_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"event": "a"})
            journal.compact({"event": "snapshot"})
        assert sorted(os.listdir(tmp_path)) == ["journal.jsonl"]

    def test_orphan_temp_from_a_crashed_compaction_is_ignored(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        records = write_records(path, 2)
        with open(path + ".compact", "w") as handle:
            handle.write(json.dumps({"event": "snapshot", "seq": 2}) + "\n")
        assert replay_journal(path) == records
        with Journal(path) as journal:
            assert journal.compact({"event": "snapshot"})["seq"] == 2
        assert not os.path.exists(path + ".compact")
