"""CSV and JSON persistence for point sets, labels, models, and run reports.

Point data travels as comma-separated numeric rows (optional single header
line); labels as one integer per line; models and reports as JSON. Floats
are written with their shortest exact decimal representation, so every
save/load round trip is bit-identical.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .mixture import EMReport, MixtureModel

__all__ = [
    "load_csv",
    "save_points",
    "save_labels",
    "load_labels",
    "save_model",
    "load_model",
    "save_report",
]

_UNIT_TOL = 1e-8


def load_csv(path, normalize: bool = False, has_header: bool = False) -> np.ndarray:
    """Read ambient coordinates from a CSV file as an (N, p+1) array.

    With ``normalize`` every row is scaled to unit length (zero rows are an
    error); without it every row must already be unit within 1e-8. Errors
    name the offending 1-based file rows. NumPy's C reader parses a file
    without a header; what it rejects, or what fails a check, the ``csv``
    module reads again, with the same values and errors that name the rows.
    """
    path = Path(path)
    if not has_header:
        try:
            with open(path) as fh, warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file warns
                x = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            return _checked(x, range(1, len(x) + 1), path, normalize)
        except (ValueError, UserWarning):
            pass
    rows, row_numbers = [], []
    with open(path, newline="") as fh:
        for line_no, raw in enumerate(csv.reader(fh), start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if has_header:  # the first non-blank row
                has_header = False
                continue
            try:
                rows.append([float(cell) for cell in raw])
            except ValueError:
                raise ValueError(f"non-numeric value at row {line_no} of {path}") from None
            row_numbers.append(line_no)
    if len({len(r) for r in rows}) > 1:
        bad = [row_numbers[i] for i, r in enumerate(rows) if len(r) != len(rows[0])]
        raise ValueError(f"ragged rows at {bad} of {path}")
    return _checked(np.asarray(rows, dtype=float), row_numbers, path, normalize)


def _checked(x: np.ndarray, row_numbers, path, normalize: bool) -> np.ndarray:
    """The checks of :func:`load_csv` on ``x``, whose rows are the file rows ``row_numbers``."""
    if not x.size:
        raise ValueError("no observations")
    if not np.all(np.isfinite(x)):
        bad = [row_numbers[i] for i in np.unique(np.nonzero(~np.isfinite(x))[0])]
        raise ValueError(f"non-finite values at rows {bad} of {path}")
    with np.errstate(over="ignore"):  # a coordinate above about 1e154 squares to inf
        norms = np.linalg.norm(x, axis=1)
    if normalize:
        huge = np.isinf(norms)
        if np.any(huge):
            # scaled by their largest |coordinate|, such rows have a finite norm
            x[huge] /= np.abs(x[huge]).max(axis=1)[:, None]
            norms[huge] = np.linalg.norm(x[huge], axis=1)
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
    return x


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
    text = "".join([f"{int(value)}\n" for value in np.asarray(labels).tolist()])
    with open(path, "w") as fh:
        fh.write(text)


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
        "frechet_iterations": int(report.frechet_iterations),
        "concentration_iterations": int(report.concentration_iterations),
        "unconverged_solves": int(report.unconverged_solves),
    }
    if timing_seconds is not None:
        doc["timing_seconds"] = float(timing_seconds)
    if criteria is not None:
        doc["criteria"] = criteria
    if extra:
        doc.update(extra)
    _write_json(path, doc)
