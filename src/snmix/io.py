"""CSV and JSON persistence for datasets, labels, models, and run reports.

Point data travels as comma-separated numeric rows (optional single header
line); labels as one integer per line; models and reports as JSON. Floats
are written with their shortest exact decimal representation, so every
save/load round trip is bit-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mixture import EMReport, MixtureModel

__all__ = [
    "Dataset",
    "load_csv",
    "save_points",
    "save_labels",
    "load_labels",
    "save_model",
    "load_model",
    "save_report",
]

_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class Dataset:
    """An (N, p+1) matrix of unit rows plus a provenance string."""

    points: np.ndarray
    source: str = ""

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1] - 1


def load_csv(path, normalize: bool = False, has_header: bool = False) -> Dataset:
    """Read ambient coordinates from a CSV file.

    With ``normalize`` every row is scaled to unit length (zero rows are an
    error); without it every row must already be unit within 1e-8. Errors
    name the offending 1-based file rows.
    """
    path = Path(path)
    rows: list[list[float]] = []
    row_numbers: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        skipped_header = not has_header
        for line_no, raw in enumerate(reader, start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if not skipped_header:
                skipped_header = True
                continue
            try:
                rows.append([float(cell) for cell in raw])
            except ValueError:
                raise ValueError(f"non-numeric value at row {line_no} of {path}") from None
            row_numbers.append(line_no)
    if not rows:
        raise ValueError("no observations")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        bad = [row_numbers[i] for i, r in enumerate(rows) if len(r) != len(rows[0])]
        raise ValueError(f"ragged rows at {bad} of {path}")
    x = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(x)):
        bad = [row_numbers[i] for i in np.unique(np.nonzero(~np.isfinite(x))[0])]
        raise ValueError(f"non-finite values at rows {bad} of {path}")
    norms = np.linalg.norm(x, axis=1)
    if normalize:
        zero = norms < _UNIT_TOL
        if np.any(zero):
            bad = [row_numbers[i] for i in np.flatnonzero(zero)]
            raise ValueError(f"cannot normalize zero rows {bad} of {path}")
        x = x / norms[:, None]
    else:
        off = np.abs(norms - 1.0) > _UNIT_TOL
        if np.any(off):
            bad = [row_numbers[i] for i in np.flatnonzero(off)]
            raise ValueError(
                f"rows {bad} of {path} are not unit vectors; pass normalize=True to project them"
            )
    return Dataset(points=x, source=str(path))


def _write_points(fh, points) -> None:
    """Write point rows to the open text stream ``fh`` as CSV with exact float round-tripping."""
    writer = csv.writer(fh)
    for row in np.atleast_2d(np.asarray(points, dtype=float)):
        writer.writerow([repr(float(v)) for v in row])


def save_points(path, points) -> None:
    """Write point rows as CSV with exact float round-tripping."""
    with open(path, "w", newline="") as fh:
        _write_points(fh, points)


def save_labels(path, labels) -> None:
    """One integer label per line."""
    arr = np.asarray(labels)
    with open(path, "w") as fh:
        for value in arr:
            fh.write(f"{int(value)}\n")


def load_labels(path) -> np.ndarray:
    with open(path) as fh:
        return np.array([int(line.strip()) for line in fh if line.strip()], dtype=int)


def _write_json(path, doc) -> None:
    """Write ``doc`` as two-space indented JSON ending in a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_model(path, model: MixtureModel) -> None:
    _write_json(path, model.to_dict())


def load_model(path) -> MixtureModel:
    with open(path) as fh:
        return MixtureModel.from_dict(json.load(fh))


def save_report(
    path,
    report: EMReport,
    timing_seconds: float | None = None,
    criteria: dict | None = None,
    extra: dict | None = None,
) -> None:
    """Persist an EM run: trace, iteration counts, timings, and criteria."""
    doc = {
        "model": report.model.to_dict(),
        "loglik_trace": [float(v) for v in report.loglik_trace],
        "iterations": int(report.iterations),
        "converged": bool(report.converged),
        "reseeds": int(report.reseeds),
    }
    if timing_seconds is not None:
        doc["timing_seconds"] = float(timing_seconds)
    if criteria is not None:
        doc["criteria"] = criteria
    if extra:
        doc.update(extra)
    _write_json(path, doc)
