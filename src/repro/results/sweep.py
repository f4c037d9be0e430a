"""Tabular pivot of run records over one swept parameter.

:class:`SweepResult` groups :class:`~repro.results.record.RunRecord` objects
into *series* (usually one per protocol) and lines them up by the value of
the swept parameter.  Every record that reaches a sweep carries its grid
coordinates, so alignment reads ``record.axes[parameter]`` — a series with
holes (a quarantined job, a protocol that skipped a point) lands in the
right rows instead of shifting by position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.results.record import RunRecord


@dataclass
class SweepResult:
    """Run records of one swept parameter, grouped into series.

    A *series* is usually a protocol; matrices with secondary axes label
    series ``"spms[placement=random]"`` so every grid line stays visible.

    Attributes:
        parameter: Name of the swept parameter (e.g. ``"num_nodes"``).
        values: The swept values, in order.
        results: ``results[series]`` is that series' records in sweep order;
            each carries its swept value in ``axes[parameter]``.
    """

    parameter: str
    values: List[object] = field(default_factory=list)
    results: Dict[str, List[RunRecord]] = field(default_factory=dict)

    def add(self, series: str, value: object, record: RunRecord) -> None:
        """Record one run."""
        if value not in self.values:
            self.values.append(value)
        self.results.setdefault(series, []).append(record)

    def series(self, series: str, metric: str) -> List[float]:
        """Extract one metric across the sweep for one series."""
        return [getattr(r, metric) for r in self.results.get(series, [])]

    def by_value(self, series: str) -> Dict[object, RunRecord]:
        """One series' records keyed by swept value (the first run wins)."""
        aligned: Dict[object, RunRecord] = {}
        for record in self.results.get(series, []):
            aligned.setdefault(record.axes[self.parameter], record)
        return aligned

    def rows(self, metric: str) -> List[Dict[str, object]]:
        """Tabular view: one row per swept value, one column per series.

        Series with no run at a value (a protocol that skipped a point, a
        quarantined job) simply omit that cell — consumers must tolerate
        sparse rows, and :meth:`format_table` renders them as ``-``.
        Records lacking *metric* are likewise skipped rather than raising.
        """
        aligned = {series: self.by_value(series) for series in self.results}
        rows = []
        for value in self.values:
            row: Dict[str, object] = {self.parameter: value}
            for series, by_value in aligned.items():
                match = by_value.get(value)
                if match is None:
                    continue
                metric_value = getattr(match, metric, None)
                if metric_value is not None:
                    row[series] = metric_value
            rows.append(row)
        return rows

    def format_table(self, metric: str, precision: int = 3) -> str:
        """Readable fixed-width table; missing cells render as ``-``."""
        series_names = sorted(self.results)
        width = max([14] + [len(name) for name in series_names])
        header = f"{self.parameter:>20} " + " ".join(
            f"{name:>{width}}" for name in series_names
        )
        lines = [header, "-" * len(header)]
        for row in self.rows(metric):
            cells = [f"{str(row[self.parameter]):>20}"]
            for name in series_names:
                value = row.get(name)
                cells.append(
                    f"{value:>{width}.{precision}f}"
                    if isinstance(value, (int, float))
                    else f"{'-':>{width}}"
                )
            lines.append(" ".join(cells))
        return "\n".join(lines)
