"""Point, label, model, and report persistence."""

import json
import warnings

import numpy as np
import pytest

from snmix import io as dataio
from snmix.distribution import SNParams, sample
from snmix.geometry import unitize
from snmix.mixture import EMConfig, MixtureModel, fit_em


class TestLoadCSV:
    def test_normalize_rows(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("3,4,0\n0,0,2\n")
        x = dataio.load_csv(path, normalize=True)
        np.testing.assert_allclose(x, [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)
        assert x.shape == (2, 3)

    def test_unit_rows_accepted_verbatim(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0\n0,1\n")
        np.testing.assert_array_equal(dataio.load_csv(path), np.eye(2))

    def test_non_unit_rows_rejected_without_normalize(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0\n3,4\n")
        with pytest.raises(ValueError, match=r"rows \[2\]"):
            dataio.load_csv(path)

    def test_zero_row_under_normalize_names_row(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0\n0,0\n")
        with pytest.raises(ValueError, match=r"\[2\]"):
            dataio.load_csv(path, normalize=True)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0,0\n0,1\n")
        with pytest.raises(ValueError, match="ragged"):
            dataio.load_csv(path)

    def test_non_numeric_rejected_with_row(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,0\nfoo,1\n")
        with pytest.raises(ValueError, match="row 2"):
            dataio.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no observations"):
            dataio.load_csv(path)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n1,0\n")
        assert dataio.load_csv(path, has_header=True).shape == (1, 2)


# inputs that NumPy's C reader rejects, or whose rows fail the checks, next to
# plain files that it parses; the csv reader must agree with it on every one
CSV_CORPUS = {
    "plain": b"0.6,0.8\n-0.8,0.6\n",
    "crlf": b"0.6,0.8\r\n0,1\r\n",
    "blank_lines": b"\n0.6,0.8\n\n0,1\n\n",
    "whitespace_lines": b"0.6,0.8\n   \n0,1\n \t \n",
    "blank_cells_line": b"0.6,0.8\n , \n0,1\n",
    "no_final_newline": b"0.6,0.8\n0,1",
    "spaces_around_values": b" 0.6 , 0.8 \n0 ,1\n",
    "quoted_fields": b'"0.6",0.8\n0,"1"\n',
    "underscore_digits": b"0.6,0.8\n1_0,0\n",
    "plus_sign": b"+0.6,0.8\n0,+1\n",
    "bom": b"\xef\xbb\xbf0.6,0.8\n0,1\n",
    "hash_line": b"# x,y\n0.6,0.8\n",
    "hash_after_value": b"0.6,0.8 # c\n0,1\n",
    "nan": b"0.6,0.8\nnan,1\n",
    "inf": b"inf,0\n0,1\n",
    "infinity": b"0,1\n-infinity,0\n",
    "trailing_comma": b"0.6,0.8,\n0,1,\n",
    "semicolons": b"0.6;0.8\n0;1\n",
    "unicode_digit": "\u0661,0\n0,1\n".encode(),
    "ragged": b"0.6,0.8\n0,1,0\n",
    "non_unit": b"3,4\n0,1\n0,2\n",
    "zero_row": b"0,0\n0,1\n",
    "one_column": b"1\n-1\n",
    "empty": b"",
    "only_blank_lines": b"\n\r\n\n",
}


def load_outcome(path, normalize):
    """The array's bytes and shape, or the ValueError's text."""
    try:
        x = dataio.load_csv(path, normalize=normalize)
    except ValueError as exc:
        return "error", str(exc)
    return "ok", x.tobytes(), x.shape, x.dtype.str


@pytest.mark.parametrize("normalize", [False, True], ids=["unit", "normalize"])
@pytest.mark.parametrize("name", sorted(CSV_CORPUS))
def test_csv_fast_path_matches_csv_reader(tmp_path, monkeypatch, name, normalize):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CSV_CORPUS[name])
    fast = load_outcome(path, normalize)

    def rejected(*args, **kwargs):
        raise ValueError("C reader off")

    monkeypatch.setattr(np, "loadtxt", rejected)
    assert fast == load_outcome(path, normalize)


def test_plain_csv_skips_the_csv_reader(tmp_path, monkeypatch):
    path = tmp_path / "pts.csv"
    path.write_text("0.6,0.8\n0,1\n")

    def unused(*args, **kwargs):
        raise AssertionError("the csv module parsed a plain file")

    monkeypatch.setattr(dataio.csv, "reader", unused)
    np.testing.assert_array_equal(dataio.load_csv(path), [[0.6, 0.8], [0.0, 1.0]])


class TestRoundTrips:
    def test_points_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = unitize(rng.standard_normal((50, 4)))
        path = tmp_path / "pts.csv"
        dataio.save_points(path, pts)
        np.testing.assert_array_equal(dataio.load_csv(path), pts)

    @pytest.mark.parametrize(
        "labels", [np.array([1, 2, 2, 3, 1]), [3, -1, 12], np.array([1.9, 2.0]), []],
        ids=["array", "list", "floats", "empty"],
    )
    def test_labels_file_bytes(self, tmp_path, labels):
        # one write of the joined lines, byte for byte the file of a write per label
        path = tmp_path / "labels.txt"
        dataio.save_labels(path, labels)
        assert path.read_text() == "".join(f"{int(v)}\n" for v in np.asarray(labels))

    def test_labels_round_trip(self, tmp_path):
        labels = np.array([1, 2, 2, 3, 1])
        path = tmp_path / "labels.txt"
        dataio.save_labels(path, labels)
        assert path.read_text().count("\n") == 5
        np.testing.assert_array_equal(dataio.load_labels(path), labels)

    def test_model_round_trip_exact(self, tmp_path):
        # locations are stored as given, so save/load keeps every bit of them
        rng = np.random.default_rng(17)
        path = tmp_path / "model.json"
        for i in range(200):
            mode = ("heterogeneous", "homogeneous")[i % 2]
            lams = rng.uniform(0.1, 500.0, 3)
            model = MixtureModel(
                unitize(rng.standard_normal((3, 4))),
                lams if mode == "heterogeneous" else np.full(3, lams[0]),
                rng.dirichlet(np.ones(3)),
                mode,
            )
            dataio.save_model(path, model)
            back = dataio.load_model(path)
            assert np.array_equal(back.mus, model.mus)
            assert np.array_equal(back.lams, model.lams)
            assert np.array_equal(back.weights, model.weights)
            assert back.concentration_mode == model.concentration_mode

    def test_model_location_must_be_unit(self, tmp_path):
        doc = MixtureModel([[0.0, 0.6, 0.8]], [3.0], [1.0]).to_dict()
        doc["components"][0]["mu"] = [0.0, 0.6, 0.8 + 2e-6]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="model locations: .*unit vectors"):
            dataio.load_model(path)

    def test_json_files_are_indented_with_trailing_newline(self, tmp_path):
        doc = {"a": [1.5, 2], "b": {"c": None, "d": True}}
        path = tmp_path / "doc.json"
        dataio._write_json(path, doc)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        assert "_write_json" not in dataio.__all__

    def test_report_contents(self, tmp_path):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 20.0), 60, 0)
        report = fit_em(pts, EMConfig(K=1, seed=0))
        path = tmp_path / "report.json"
        dataio.save_report(path, report, timing_seconds=0.5, criteria={"bic": 1.0})
        doc = json.loads(path.read_text())
        trace = doc["loglik_trace"]
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
        assert doc["timing_seconds"] == 0.5
        assert doc["criteria"] == {"bic": 1.0}
        assert doc["model"]["K"] == 1
        assert isinstance(doc["iterations"], int)
        # the inner solvers' iteration counts, at least one per M-step
        for key in ("frechet_iterations", "concentration_iterations"):
            assert doc[key] == getattr(report, key) >= doc["iterations"]
        assert doc["unconverged_solves"] == report.unconverged_solves == 0


def csv_module_only(monkeypatch):
    """Send every file through the csv-module path."""

    def rejected(*args, **kwargs):
        raise ValueError("C reader off")

    monkeypatch.setattr(np, "loadtxt", rejected)


@pytest.mark.parametrize("reader", ["c_reader", "csv_module"])
class TestHugeCoordinates:
    """Finite coordinates whose squares overflow: the norm of such a row is inf."""

    def test_normalized_not_zeroed(self, tmp_path, monkeypatch, reader):
        if reader == "csv_module":
            csv_module_only(monkeypatch)
        path = tmp_path / "pts.csv"
        path.write_text("1e200,1e200\n0,1\n-3e300,4e300\n0.6,0.8\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = dataio.load_csv(path, normalize=True)
        np.testing.assert_allclose(x[[0, 2]], [[0.5**0.5, 0.5**0.5], [-0.6, 0.8]], rtol=1e-15)
        # every other row is divided by its plain norm, as before
        assert x[1].tobytes() == np.array([0.0, 1.0]).tobytes()
        plain = np.array([0.6, 0.8])
        assert x[3].tobytes() == (plain / np.linalg.norm(plain)).tobytes()

    def test_rejected_without_normalize(self, tmp_path, monkeypatch, reader):
        if reader == "csv_module":
            csv_module_only(monkeypatch)
        path = tmp_path / "pts.csv"
        path.write_text("0,1\n1e200,1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"rows \[2\] .* are not unit vectors"):
                dataio.load_csv(path)
