"""Measurement core: calibration kernel, speed correction, the fixed
interleaved sequence, process bookkeeping and provenance.

Nothing here imports the repository under test; the workloads do.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import THREAD_PINS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: The calibration kernel's time on a quiet core of the box the bounds were
#: measured on.  Only a scale: it turns "kernel units" back into seconds.
CALIB_REF_S = 0.0155
CALIB_REPS = 3
TWIN_REPS = 3

#: Each sample times these three variants, in this order.
VARIANTS = ("op", "alt", "ref")

#: The harness never asks for more workers than this.
MAX_WORKERS = 2

RUN_ID_ENV = "BENCH_RUN_ID"


# ----------------------------------------------------------------------
# Calibration and speed correction
# ----------------------------------------------------------------------
class Calibrator:
    """A fixed ~20 ms pure-NumPy kernel timed around every measured call.

    Half BLAS (a 192x192 matmul+tanh chain), half Python dispatch over
    small arrays (a hand-written tiny-MLP SGD step) — the two regimes the
    repository's own training loops live in.  Everything is L2-resident
    on purpose: a memory-streaming kernel varied 90 % on the 2-core box
    this was tuned on and tracked nothing.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((192, 192)) / 14.0
        self._x0 = rng.standard_normal((192, 192))
        self._w1 = rng.standard_normal((64, 32)) * 0.1
        self._w2 = rng.standard_normal((32, 10)) * 0.1
        self._xb = rng.standard_normal((32, 64))
        self._yb = np.eye(10)[rng.integers(0, 10, 32)]

    def once(self) -> float:
        start = time.perf_counter()
        x = self._x0
        for _ in range(24):
            x = np.tanh(x @ self._a)
        w1, w2 = self._w1.copy(), self._w2.copy()
        xb, yb = self._xb, self._yb
        for _ in range(240):
            h = np.maximum(xb @ w1, 0.0)
            z = h @ w2
            z = z - z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - yb) / 32.0
            gh = g @ w2.T
            gh[h <= 0] = 0.0
            w2 -= 0.05 * (h.T @ g)
            w1 -= 0.05 * (xb.T @ gh)
        return time.perf_counter() - start

    def measure(self) -> float:
        return statistics.median(self.once() for _ in range(CALIB_REPS))

    # -- the two-core reading --------------------------------------------
    # This process's kernel time while a twin process runs the same kernel.
    # With two free cores it equals the solo reading; when the host leaves
    # the VM one core's worth (seen for tens of minutes at a time) it
    # doubles, and so does every pool/cluster variant.  Variants that use
    # workers are corrected by this reading instead of the solo one.
    _twin = None

    def start_twin(self) -> None:
        context = multiprocessing.get_context("spawn")
        self._pipe, far = context.Pipe()
        self._twin = context.Process(target=_twin_loop, args=(far,), daemon=True)
        self._twin.start()
        far.close()
        self.measure_with_twin()  # returns once the twin is up and warm

    @property
    def twin_pid(self) -> Optional[int]:
        return self._twin.pid if self._twin is not None else None

    def measure_with_twin(self) -> float:
        # One execution more over there, so that the twin is busy for the
        # whole of this side's timing.
        self._pipe.send(TWIN_REPS + 1)
        times = [self.once() for _ in range(TWIN_REPS)]
        self._pipe.recv()
        return statistics.median(times)

    def close(self) -> None:
        if self._twin is not None:
            self._pipe.send(None)
            self._twin.join(timeout=5.0)
            self._pipe.close()
            self._twin = None


def _twin_loop(pipe) -> None:
    calibrator = Calibrator()
    while True:
        executions = pipe.recv()
        if executions is None:
            return
        for _ in range(executions):
            calibrator.once()
        pipe.send(True)


def speed_corrected(raw: float, cal_before: float, cal_after: float,
                    ref: float = CALIB_REF_S) -> float:
    """``raw`` seconds rescaled to the reference box's speed.

    The machine's speed while the sample ran is taken as the mean of the
    calibration kernel's time just before and just after it.
    """
    return raw * ref / ((cal_before + cal_after) / 2.0)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the bounds are judged against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# The fixed sequence
# ----------------------------------------------------------------------
class Workload:
    """What a workload gives the sequence runner.

    ``setup`` builds everything up to ready-for-first-op from the seed.
    ``op``/``alt``/``ref`` are the timed calls; each returns the counters
    it moved (``io_bytes``, ``work_units``).  ``before`` runs untimed just
    ahead of a variant, ``check`` untimed after each triple and returns
    ``(checks_made, failure_messages)``.  ``finish`` runs once after the
    sequence and returns ``quality_pct`` plus any end-of-run checks.
    """

    #: Triples that fit the nominal 15 s measuring window on the reference box.
    samples_per_window = 10
    #: Variants that run on pool or cluster workers: corrected by the
    #: two-core calibration reading.
    parallel_variants: Tuple[str, ...] = ()
    #: layer -> (variant on workers, its serial counterpart): what the
    #: per-layer fan-out overheads are the difference of.
    fanout: Dict[str, Tuple[str, str]] = {}
    #: Requests one ``op`` serves, where a per-request overhead makes sense.
    requests_per_sample: Optional[int] = None

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def before(self, variant: str, index: int) -> None:
        pass

    def op(self, index: int) -> Dict[str, int]:
        raise NotImplementedError

    def alt(self, index: int) -> Dict[str, int]:
        raise NotImplementedError

    def ref(self, index: int) -> Dict[str, int]:
        raise NotImplementedError

    def check(self, index: int) -> Tuple[int, List[str]]:
        return 0, []

    def finish(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def check_run(cls, notes: Sequence[Dict[str, Any]]) -> Tuple[int, List[str]]:
        """Checks that only make sense over a whole run: called in the
        parent with every child's ``finish()["notes"]``; returns
        ``(checks_made, failure_messages)``."""
        return 0, []

    def layer_counters(self) -> Dict[str, float]:
        """Per-layer counts read from the program's own ledgers (traced runs)."""
        return {}

    def close(self) -> None:
        pass


NOMINAL_WINDOW_S = 15
#: Triples a child takes whatever the clock says.
MIN_SAMPLES = 2


def samples_for(samples_per_window: int, seconds: float) -> int:
    """Sample count for a ``--seconds`` window.

    Count-based on purpose: ``runner.run_method`` on a shared prepared
    scenario is call-order dependent, so only a fixed sequence repeats.
    """
    return max(3, round(samples_per_window * seconds / NOMINAL_WINDOW_S))


def run_sequence(
    workload: Workload,
    count: int,
    calibrator: Calibrator,
    tracer=None,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Time ``[cal, op, cal, alt, cal, ref, cal] x count``.

    Each ``cal`` is a solo reading plus, next to a variant that uses
    workers, a two-core reading (``cal2``).  With a tracer, odd samples
    run with the span wrappers installed and even samples without, so one
    run yields both the per-layer numbers and the cost of tracing.

    The sequence is ``count`` triples.  ``deadline`` (monotonic) only
    matters on a box much slower than the one the counts were sized on:
    past it no new triple starts once ``MIN_SAMPLES`` are in, so that a
    run keeps to the driver's time cap by measuring a prefix of the same
    sequence.
    """
    parallel = [variant in workload.parallel_variants for variant in VARIANTS]
    # Calibration point k sits between variant k-1 and variant k.
    wants_twin = [
        (k > 0 and parallel[k - 1]) or (k < len(VARIANTS) and parallel[k])
        for k in range(len(VARIANTS) + 1)
    ]
    # One reading serves as a sample's last point and the next one's first.
    wants_twin[0] = wants_twin[-1] = wants_twin[0] or wants_twin[-1]

    def calibrate(point: int) -> Tuple[float, Optional[float]]:
        solo = calibrator.measure()
        return solo, calibrator.measure_with_twin() if wants_twin[point] else None

    samples: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = 0
    cal, cal2 = calibrate(0)
    truncated = False
    for index in range(count):
        if deadline is not None and index >= MIN_SAMPLES and time.monotonic() > deadline:
            truncated = True
            break
        traced = tracer is not None and index % 2 == 1
        sample: Dict[str, Any] = {
            "i": index, "cal": [cal], "cal2": [cal2], "raw": {}, "traced": traced,
            "io_bytes": 0, "work_units": 0,
        }
        broken = False
        for slot, variant in enumerate(VARIANTS):
            workload.before(variant, index)
            call: Callable[[int], Dict[str, int]] = getattr(workload, variant)
            gc.collect()
            if traced:
                tracer.begin(variant, index)
            attempted += 1
            start = time.perf_counter()
            try:
                counters = call(index)
            except Exception as error:  # a failed op is counted, never hidden
                failures.append(f"{variant}[{index}] raised {type(error).__name__}: {error}")
                broken = True
                counters = {}
            raw = time.perf_counter() - start
            if traced:
                tracer.end()
            cal, cal2 = calibrate(slot + 1)
            sample["raw"][variant] = raw
            sample["cal"].append(cal)
            sample["cal2"].append(cal2)
            if variant != "ref":
                sample["io_bytes"] += int(counters.get("io_bytes", 0))
            if variant == "op":
                sample["work_units"] = int(counters.get("work_units", 0))
            if broken:
                break
        if broken:
            break
        made, messages = workload.check(index)
        attempted += made
        failures.extend(f"check[{index}]: {message}" for message in messages)
        samples.append(sample)
    return {
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "truncated": truncated,
        "parallel_variants": list(workload.parallel_variants),
    }


def corrected_time(sample: Dict[str, Any], variant: str, parallel: Sequence[str] = ()) -> float:
    """One variant's speed-corrected time: by the two-core readings around
    it when it uses workers, by the solo readings otherwise."""
    slot = VARIANTS.index(variant)
    readings = sample["cal2"] if variant in parallel else sample["cal"]
    return speed_corrected(sample["raw"][variant], readings[slot], readings[slot + 1])


def corrected_times(samples: Iterable[Dict[str, Any]], variant: str,
                    parallel: Sequence[str] = ()) -> List[float]:
    return [corrected_time(sample, variant, parallel) for sample in samples]


def paired_ratios(samples: Iterable[Dict[str, Any]], parallel: Sequence[str] = ()) -> List[float]:
    """``op_i / ref_i`` inside each triple.

    Raw when both run the same way — drift cancels without any model.
    When one uses workers and the other does not, raw would follow how
    many cores the host grants, so each side is corrected first.
    """
    if ("op" in parallel) == ("ref" in parallel):
        return [s["raw"]["op"] / s["raw"]["ref"] for s in samples]
    return [
        corrected_time(s, "op", parallel) / corrected_time(s, "ref", parallel)
        for s in samples
    ]


# ----------------------------------------------------------------------
# Processes, memory, leftovers
# ----------------------------------------------------------------------
def _proc_parents() -> Dict[int, int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces and parens.
        fields = stat[stat.rfind(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    return parents


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    parents = _proc_parents()
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [p for p, parent in parents.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb_with_workers(exclude: Sequence[Optional[int]] = ()) -> int:
    """Sum of the peak resident sets of this process and its live workers
    (``exclude``: the harness's own helper, which is not the program's)."""
    own = os.getpid()
    return _peak_rss_kb(own) + sum(
        _peak_rss_kb(pid) for pid in descendants(own) if pid not in exclude
    )


def processes_carrying(run_id: str) -> List[int]:
    """Live processes whose start-up environment names this run."""
    needle = f"{RUN_ID_ENV}={run_id}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


def shm_segments() -> set:
    try:
        uid = os.getuid()
        return {
            name for name in os.listdir("/dev/shm")
            if os.lstat(os.path.join("/dev/shm", name)).st_uid == uid
        }
    except OSError:
        return set()


def tree_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_commit() -> str:
    """HEAD's hash read from ``.git`` files; the driver's checkout has none."""
    git_dir = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # informational only; NumPy's config layout varies
        return "unknown"


def provenance(seed: Optional[int] = None) -> Dict[str, Any]:
    record = {
        "commit": _git_commit(),
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host_cores": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "calib_ref_s": CALIB_REF_S,
    }
    if seed is not None:
        record["seed"] = seed
    return record


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout without naming ``src``
    on the command line."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
