"""``tools/artifacts.py compare`` on hand-written records."""

import importlib.util
import json
import math
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "artifacts.py")
_spec = importlib.util.spec_from_file_location("artifacts_tool", _TOOL)
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def result(value=0.5):
    return {
        "experiment_id": "fig5",
        "title": "Fig 5",
        "columns": ["method", "acc"],
        "rows": [{"method": "ours", "acc": value}],
        "series": {},
        "notes": "",
    }


def write_record(directory, results, threads=PINNED):
    os.makedirs(directory)
    with open(os.path.join(directory, artifacts.RECORD), "w") as handle:
        json.dump(results, handle)
    if threads is not None:
        with open(os.path.join(directory, artifacts.THREADS), "w") as handle:
            json.dump(threads, handle)
    return str(directory)


def test_identical_records_compare_equal(tmp_path, capsys):
    a = write_record(tmp_path / "a", [result()])
    b = write_record(tmp_path / "b", [result()])
    assert artifacts.compare(a, b) == 0
    assert "1 artifacts identical" in capsys.readouterr().out


def test_a_moved_row_fails_naming_the_field(tmp_path, capsys):
    a = write_record(tmp_path / "a", [result(0.5)])
    b = write_record(tmp_path / "b", [result(0.5000000000000001)])
    assert artifacts.compare(a, b) == 1
    assert "#0 'fig5' / 'fig5': rows differ" in capsys.readouterr().out


def test_nan_equals_nan(tmp_path):
    a = write_record(tmp_path / "a", [result(math.nan)])
    b = write_record(tmp_path / "b", [result(math.nan)])
    assert artifacts.compare(a, b) == 0


@pytest.mark.parametrize(
    "threads",
    [{**PINNED, "OPENBLAS_NUM_THREADS": None}, {**PINNED, "OMP_NUM_THREADS": "2"}, None],
    ids=["unset", "two", "not-recorded"],
)
def test_other_thread_settings_exit_2_before_any_row(tmp_path, capsys, threads):
    a = write_record(tmp_path / "a", [result(0.5)])
    b = write_record(tmp_path / "b", [result(0.25)], threads=threads)
    assert artifacts.compare(a, b) == 2
    out = capsys.readouterr().out
    assert str(PINNED) in out and str(threads) in out
    assert "rows differ" not in out


def test_record_writes_the_thread_settings_it_ran_under(tmp_path, monkeypatch):
    from repro.experiments import cli
    from repro.experiments.results import ExperimentResult

    def run_experiment(name, scale, dataset, seed):
        ExperimentResult(
            experiment_id="fig5", title="Fig 5", columns=["method"],
            rows=[{"method": "ours", "wall_s": 1.0}],
        ).print()

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    for name, value in PINNED.items():
        monkeypatch.setenv(name, value)
    monkeypatch.delenv("MKL_NUM_THREADS")
    assert artifacts.record(str(tmp_path)) == 0
    with open(tmp_path / artifacts.THREADS) as handle:
        assert json.load(handle) == {**PINNED, "MKL_NUM_THREADS": None}
    with open(tmp_path / artifacts.RECORD) as handle:
        assert json.load(handle)[0]["rows"] == [{"method": "ours"}]
