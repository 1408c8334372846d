"""ExperimentResult table/series rendering."""

import pytest

from repro.experiments import ExperimentResult


class TestRows:
    def test_add_and_render(self):
        result = ExperimentResult("T1", "demo", columns=("a", "b"))
        result.add_row(a=1, b=2.5)
        text = result.render()
        assert "T1" in text and "demo" in text
        assert "2.50" in text

    def test_missing_column_rejected(self):
        result = ExperimentResult("T1", "demo", columns=("a", "b"))
        with pytest.raises(ValueError):
            result.add_row(a=1)

    def test_extra_keys_allowed(self):
        result = ExperimentResult("T1", "demo", columns=("a",))
        result.add_row(a=1, hidden="x")
        assert result.rows[0]["hidden"] == "x"


class TestSeries:
    def test_series_rendered(self):
        result = ExperimentResult("F1", "figure")
        result.add_series("ours", [0.1, 0.20001])
        text = result.render()
        assert "ours" in text
        assert "0.100" in text and "0.200" in text

    def test_series_coerced_to_float(self):
        result = ExperimentResult("F1", "figure")
        result.add_series("x", [1, 2])
        assert result.series["x"] == [1.0, 2.0]


class TestPersistence:
    def test_to_dict_keys(self):
        d = ExperimentResult("X", "y").to_dict()
        assert set(d) == {"experiment_id", "title", "columns", "rows",
                          "series", "notes"}


class TestNotes:
    def test_notes_rendered(self):
        result = ExperimentResult("F1", "figure", notes="reduced scale")
        assert "reduced scale" in result.render()

    def test_print_smoke(self, capsys):
        ExperimentResult("F1", "fig").print()
        assert "F1" in capsys.readouterr().out
