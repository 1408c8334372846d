"""Append-only write-ahead journal for the deletion service.

The durability contract of :class:`~repro.unlearning.service.UnlearningService`
rests on one primitive: every state transition is appended to a journal
*before* the in-memory transition happens (write-ahead), each record on
its own line as canonical JSON, flushed and fsync'd.  Records that one
step of the service produces together — a request's ``received`` and its
verdict, a window's ``scheduled`` and ``retraining`` — are one *group*:
one ``write``, one flush, one fsync.  A process that dies at any instant
leaves a journal that is a valid prefix of the uncrashed run's journal
(a crash inside a group can keep any prefix of its lines) — except
possibly a torn final line, which replay detects and drops (the
transition it described never durably happened, exactly the WAL
semantics databases rely on).

Record shape is the service's business; the journal only guarantees:

* :meth:`Journal.append` — one record, or a group of them, appended as
  whole lines with one flush and one fsync; the first append through a
  journal object cuts a torn tail off, so a new record never lands on a
  partial line, and fsyncs the directory when it creates the file;
* :meth:`Journal.compact` — atomically replace the whole history with
  one snapshot record (temp file + fsync + ``os.replace``), bounding
  recovery cost without ever exposing a half-written journal;
* :func:`replay` — the records back, in order, tolerating a truncated
  tail; corruption *before* the tail (which a crash cannot produce)
  raises rather than silently dropping durable history.

:func:`fsync_path` and :func:`replace_durably` are how the service and
the SISA base save make files and directory entries durable.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple, Union


def fsync_path(path: str) -> None:
    """fsync a file or directory by path: a file's bytes, or a
    directory's entries (a file created or renamed in it)."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def replace_durably(path: str, text: str, tmp: str) -> None:
    """Write ``text`` to ``tmp`` and fsync it, :func:`os.replace` it over
    ``path`` and fsync the directory: at every instant ``path`` holds
    its old bytes or all of ``text``, and after the call the new bytes
    are durable."""
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_path(os.path.dirname(path) or ".")


class JournalCorruption(RuntimeError):
    """A non-tail journal line failed to parse — the log was damaged by
    something other than a crash mid-append (bit rot, concurrent writers,
    manual edits)."""


class Journal:
    """One append-only JSONL write-ahead log.

    The file is opened lazily on first :meth:`append` (so constructing a
    journal for replay-only use touches nothing) and kept open for the
    journal's lifetime — appends are a single ``write`` + ``flush`` +
    ``fsync``, no reopen per record.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self._sequence = 0

    def append(
        self, records: Union[Mapping[str, Any], Sequence[Mapping[str, Any]]]
    ) -> Union[Dict[str, Any], List[Dict[str, Any]]]:
        """Durably append one record, or a group of records with one
        ``write``, one flush and one fsync; returns what it was given,
        stamped with ``seq`` (a record for a record, a list for a group).

        ``seq`` is monotonically increasing across the journal's whole
        history (resuming past records already on disk), so replayed and
        live records interleave into one total order.
        """
        if self._handle is None:
            self._resume()
            created = not os.path.exists(self.path)
            self._handle = open(self.path, "a")
            if created:
                fsync_path(os.path.dirname(self.path) or ".")
        group = [records] if isinstance(records, Mapping) else records
        stamped = [self._stamp(record) for record in group]
        self._handle.write("".join(line for _, line in stamped))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        written = [record for record, _ in stamped]
        return written[0] if isinstance(records, Mapping) else written

    def _stamp(self, record: Mapping[str, Any]) -> Tuple[Dict[str, Any], str]:
        """A copy of ``record`` stamped with the next ``seq``, and its
        journal line (canonical JSON and a newline)."""
        record = dict(record)
        record["seq"] = self._sequence
        self._sequence += 1
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if "\n" in line:  # json.dumps never emits raw newlines, but be loud
            raise ValueError("journal record serialised with embedded newline")
        return record, line + "\n"

    def compact(self, snapshot_record: Dict[str, Any]) -> Dict[str, Any]:
        """Atomically collapse the journal's history into one snapshot.

        The snapshot record (stamped with the next ``seq``, so ordering
        survives compaction) is written to a sibling temp file — flushed
        and fsync'd — and then :func:`os.replace`'d over the journal, so
        at every instant the path holds either the full history or the
        complete snapshot, never a mix.  A crash before the replace
        leaves the original journal (the orphan temp file is ignored by
        :func:`replay` and overwritten by the next compaction); a crash
        after it leaves the snapshot.  Either way recovery sees a valid
        journal and rebuilds identical state.

        Appends after compaction continue on the new file: recovery cost
        becomes O(live state) + O(records since last compaction) instead
        of O(whole history).
        """
        if self._handle is None:
            self._resume()
        else:
            self._handle.close()
            self._handle = None
        record, line = self._stamp(snapshot_record)
        replace_durably(self.path, line, self.path + ".compact")
        self._handle = open(self.path, "a")
        return record

    def _resume(self) -> None:
        """First write through this journal: resume ``seq`` past the
        records on disk and cut off a torn tail.  Appending after a
        torn line would glue the new record onto it, and the fused line
        — no longer the tail — would make every later replay raise.
        The cut is fsync'd before anything is appended."""
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        records, durable = _scan(self.path)
        for existing in records:
            self._sequence = max(self._sequence, int(existing.get("seq", -1)) + 1)
        if os.path.exists(self.path) and os.path.getsize(self.path) > durable:
            with open(self.path, "r+b") as handle:
                handle.truncate(durable)
                os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay(path: str) -> List[Dict[str, Any]]:
    """Read a journal back; a torn final line (crash mid-append) is
    dropped, anything else malformed raises :class:`JournalCorruption`.
    Reading never writes: a torn tail stays on disk until the next
    append cuts it off."""
    return _scan(path)[0]


def _scan(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """The journal's records and the byte length of the prefix holding
    them; whatever follows that prefix is a torn tail."""
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as handle:
        raw = handle.read()
    records: List[Dict[str, Any]] = []
    lines = raw.split(b"\n")
    # A complete journal ends with a newline, so the final split element
    # is empty; anything non-empty there is a torn tail from a crash
    # mid-append and is discarded (its transition never durably happened).
    complete, tail = lines[:-1], lines[-1]
    durable = 0
    for number, line in enumerate(complete):
        if line.strip():
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if number == len(complete) - 1 and not tail:
                    # Torn tail that happened to end in a newline-boundary
                    # byte cannot occur (we write line+\n in one call), but a
                    # truncation fault injected *inside* the final line leaves
                    # a partial line followed by nothing — treat as tail.
                    break
                raise JournalCorruption(
                    f"journal {path!r} line {number + 1} is corrupt"
                ) from None
        durable += len(line) + 1
    return records, durable


def iter_replay(path: str) -> Iterator[Dict[str, Any]]:
    """Iterator form of :func:`replay` (records materialise eagerly —
    tail detection needs the whole file — but callers can stream)."""
    return iter(replay(path))
