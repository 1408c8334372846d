"""Structured experiment results with paper-style table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """One reproduced table or figure.

    ``rows`` is a list of dicts keyed by ``columns``; ``series`` carries
    figure-style data (name → list of y values). ``render()`` prints the
    same rows/series the paper reports.
    """

    experiment_id: str
    title: str
    columns: Sequence[str] = ()
    rows: List[Dict[str, Any]] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""
    # Execution provenance: which backend ran the experiment, with how
    # many workers/CPUs, and how long it took.  Stamped by the CLI (see
    # repro.experiments.cli) so the wall-clock trajectory of full
    # experiments is machine-readable alongside the scientific rows.
    runtime: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        self.rows.append(values)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        self.series[name] = [float(v) for v in values]

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    def render(self) -> str:
        """Human-readable reproduction of the table/figure data."""
        lines = [f"=== {self.experiment_id}: {self.title} ==="]
        if self.rows:
            widths = {
                c: max(len(c), *(len(self._format(r[c])) for r in self.rows))
                for c in self.columns
            }
            header = "  ".join(c.ljust(widths[c]) for c in self.columns)
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append(
                    "  ".join(self._format(row[c]).ljust(widths[c]) for c in self.columns)
                )
        for name, values in self.series.items():
            rendered = ", ".join(f"{v:.3f}" for v in values)
            lines.append(f"{name}: [{rendered}]")
        if self.notes:
            lines.append(f"note: {self.notes}")
        if self.runtime:
            rendered = ", ".join(
                f"{key}={self._format(value)}" for key, value in self.runtime.items()
            )
            lines.append(f"runtime: {rendered}")
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": self.rows,
            "series": self.series,
            "notes": self.notes,
        }
        if self.runtime:
            payload["runtime"] = self.runtime
        return payload
