"""Command-line surface: every subcommand, its outputs, and exit codes."""

import csv
import json

import numpy as np
import pytest

from snmix import io as dataio
from snmix.cli import main
from snmix.distribution import SNParams, sample
from snmix.estimation import fit_sn
from snmix.geometry import geodesic_distance
from snmix.metrics import rand_index


def run(argv):
    return main([str(a) for a in argv])


class TestFit:
    def test_recovers_synthetic_concentration(self, tmp_path, capsys):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 30.0), 400, 0)
        data = tmp_path / "pts.csv"
        dataio.save_points(data, pts)
        assert run(["fit", "--input", data]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] and doc["support_ok"]
        assert abs(doc["lambda"] - 30.0) / 30.0 < 0.25
        assert geodesic_distance(np.array(doc["mu"]), np.array([0.0, 0.0, 1.0])) < 0.1

    def test_newton_and_halley_agree(self, tmp_path, capsys):
        pts = sample(SNParams(np.array([0.0, 1.0, 0.0]), 8.0), 200, 1)
        data = tmp_path / "pts.csv"
        dataio.save_points(data, pts)
        run(["fit", "--input", data, "--method", "newton"])
        newton = json.loads(capsys.readouterr().out)["lambda"]
        run(["fit", "--input", data, "--method", "halley"])
        halley = json.loads(capsys.readouterr().out)["lambda"]
        assert abs(newton - halley) < 1e-6

    def test_defaults_match_fit_sn(self, tmp_path, capsys):
        # without the solver flags the command runs fit_sn's
        # defaults, so it returns the library fit bit for bit
        pts = sample(SNParams(np.array([0.0, 0.6, 0.8]), 12.0), 150, 3)
        data = tmp_path / "pts.csv"
        dataio.save_points(data, pts)
        assert run(["fit", "--input", data]) == 0
        doc = json.loads(capsys.readouterr().out)
        ref = fit_sn(dataio.load_csv(data))
        assert doc["mu"] == list(ref.params.mu.coords) and doc["lambda"] == ref.params.lam
        assert (doc["iterations_mu"], doc["iterations_lambda"]) == (ref.iterations_mu, ref.iterations_lambda)

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--eps", "nan"], ["fit", "--eps", "inf"], ["cluster", "-K", 2, "--eps", "nan"],
         ["cluster", "-K", 2, "--eps-gamma", "nan"]],
        ids=["fit_eps", "fit_eps_inf", "cluster_eps", "cluster_eps_gamma"],
    )
    def test_non_finite_tolerance_exits_2(self, tmp_path, capsys, argv):
        # a NaN tolerance never stops a solver, so it is refused before any fit runs
        data = tmp_path / "pts.csv"
        dataio.save_points(data, sample(SNParams(np.array([0.0, 0.0, 1.0]), 10.0), 30, 0))
        assert run(argv[:1] + ["--input", data] + argv[1:]) == 2
        assert "must be finite and positive" in capsys.readouterr().err

    def test_normalize_flag(self, tmp_path, capsys):
        data = tmp_path / "raw.csv"
        data.write_text("3,4,0\n6,8,0\n0,5,1\n1,2,3\n")
        assert run(["fit", "--input", data, "--normalize"]) == 0

    def test_empty_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert run(["fit", "--input", data]) == 2
        assert "no observations" in capsys.readouterr().err

    def test_writes_output_file(self, tmp_path, capsys):
        pts = sample(SNParams(np.array([1.0, 0.0]), 10.0), 50, 2)
        data = tmp_path / "pts.csv"
        dataio.save_points(data, pts)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--output", out]) == 0
        assert json.loads(out.read_text())["n"] == 50


class TestCluster:
    @pytest.fixture()
    def small_mix_file(self, tmp_path):
        from snmix.simulate import small_mix

        pts, truth = small_mix(seed=1)
        data = tmp_path / "sm.csv"
        dataio.save_points(data, pts)
        return data, truth

    def test_sn_soft_quality_and_outputs(self, tmp_path, small_mix_file, capsys):
        data, truth = small_mix_file
        prefix = tmp_path / "run"
        code = run(
            ["cluster", "--input", data, "-K", 2, "--algorithm", "sn-soft", "--seed", 1,
             "--output", prefix]
        )
        assert code == 0
        labels = dataio.load_labels(f"{prefix}.labels.txt")
        assert len(labels) == len(truth)
        assert rand_index(labels, truth) >= 0.95
        model = dataio.load_model(f"{prefix}.model.json")
        assert model.K == 2
        report = json.loads(open(f"{prefix}.report.json").read())
        assert set(report["criteria"]) == {"aic", "aicc", "bic", "hqic"}
        trace = report["loglik_trace"]
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))

    def test_k1_matches_fit(self, tmp_path, capsys):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 15.0), 120, 5)
        data = tmp_path / "pts.csv"
        dataio.save_points(data, pts)
        prefix = tmp_path / "k1"
        run(["cluster", "--input", data, "-K", 1, "--seed", 0, "--output", prefix])
        capsys.readouterr()
        run(["fit", "--input", data])
        fit_doc = json.loads(capsys.readouterr().out)
        model = dataio.load_model(f"{prefix}.model.json")
        assert np.allclose(model.mus[0], fit_doc["mu"], atol=1e-8)
        assert model.lams[0] == pytest.approx(fit_doc["lambda"], abs=1e-8)

    def test_hard_labels_are_argmax(self, tmp_path, small_mix_file):
        data, _ = small_mix_file
        prefix = tmp_path / "hard"
        run(["cluster", "--input", data, "-K", 2, "--algorithm", "sn-hard", "--seed", 3,
             "--output", prefix])
        labels = dataio.load_labels(f"{prefix}.labels.txt")
        assert set(labels) <= {1, 2}

    def test_baseline_algorithms(self, tmp_path, small_mix_file):
        data, truth = small_mix_file
        for algorithm in ("kmeans", "spkmeans"):
            prefix = tmp_path / algorithm
            assert run(
                ["cluster", "--input", data, "-K", 2, "--algorithm", algorithm,
                 "--seed", 1, "--output", prefix]
            ) == 0
            labels = dataio.load_labels(f"{prefix}.labels.txt")
            assert rand_index(labels, truth) >= 0.85


class TestSample:
    def test_concentrated_draws_near_mu(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run(["sample", "--mu", "0,0,1", "--lambda", "1e6", "-n", 100,
                    "--seed", 0, "--output", out]) == 0
        pts = dataio.load_csv(out)
        assert pts.shape == (100, 3)
        assert np.max(geodesic_distance(pts, np.array([0.0, 0.0, 1.0]))) < 0.01

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sample", "--mu", "1,0,0", "--lambda", "4", "-n", 64, "--seed", 9, "--output", a])
        run(["sample", "--mu", "1,0,0", "--lambda", "4", "-n", 64, "--seed", 9, "--output", b])
        assert a.read_text() == b.read_text()

    def test_mixture_with_degenerate_weights(self, tmp_path):
        model_doc = {
            "p": 2,
            "K": 2,
            "mode": "heterogeneous",
            "components": [
                {"mu": [0.0, 0.0, 1.0], "lambda": 100.0},
                {"mu": [1.0, 0.0, 0.0], "lambda": 100.0},
            ],
            "weights": [1.0, 0.0],
        }
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_doc))
        out = tmp_path / "draws.csv"
        run(["sample", "--model", model_path, "-n", 200, "--seed", 4, "--output", out])
        pts = dataio.load_csv(out)
        assert np.max(geodesic_distance(pts, np.array([0.0, 0.0, 1.0]))) < 0.5

    def test_missing_parameters_exit_2(self, capsys):
        assert run(["sample", "-n", 5]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": 2, "K": 1, "weights": [1.0]},
            {"p": 2, "K": 1, "components": [{"mu": [0.0, 0.0, 1.0]}], "weights": [1.0]},
            {"p": 2, "K": 1, "components": 5, "weights": [1.0]},
            [{"mu": [0.0, 0.0, 1.0], "lambda": 5.0}],
            {"p": 2, "K": 1, "components": [{"mu": [0.0, 0.0, 2.0], "lambda": 5.0}],
             "weights": [1.0]},
            {"p": 2, "K": 2, "weights": [0.5, 0.5],
             "components": [{"mu": [0.0, 0.0, 1.0], "lambda": 5.0}, {"mu": [0.0, 1.0], "lambda": 5.0}]},
        ],
        ids=["no_components", "no_lambda", "components_not_a_list", "top_level_list",
             "location_not_unit", "ragged_locations"],
    )
    def test_malformed_model_exits_2(self, tmp_path, capsys, doc):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        assert run(["sample", "--model", model_path, "-n", 5]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model" in err

    def test_stdout_bytes_equal_output_file(self, tmp_path, capsys):
        out = tmp_path / "draws.csv"
        argv = ["sample", "--mu", "0,1,1", "--lambda", "7", "-n", 40, "--seed", 3]
        assert run(argv + ["--output", out]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestSimulate:
    def test_small_mix_shapes(self, tmp_path):
        prefix = tmp_path / "sm"
        assert run(["simulate", "--scenario", "small-mix", "--seed", 2, "--output", prefix]) == 0
        pts = dataio.load_csv(f"{prefix}.data.csv")
        labels = dataio.load_labels(f"{prefix}.labels.txt")
        assert pts.shape == (200, 2)
        assert list(np.bincount(labels)[1:]) == [100, 100]

    def test_large_mix_proportions(self, tmp_path):
        prefix = tmp_path / "lm"
        assert run(["simulate", "--scenario", "large-mix", "--seed", 2, "--output", prefix]) == 0
        pts = dataio.load_csv(f"{prefix}.data.csv")
        labels = dataio.load_labels(f"{prefix}.labels.txt")
        assert pts.shape == (3000, 4)
        fractions = np.bincount(labels)[1:] / 3000.0
        assert np.all(fractions > 0.28) and np.all(fractions < 0.39)

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--scenario", "small-mix", "--seed", 5, "--output", a])
        run(["simulate", "--scenario", "small-mix", "--seed", 5, "--output", b])
        assert (tmp_path / "a.data.csv").read_text() == (tmp_path / "b.data.csv").read_text()

    def test_unknown_scenario_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--scenario", "giant-mix", "--output", "x"])
        assert exc.value.code == 2


class TestBench:
    def test_csv_structure_and_agreement(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            ["bench", "--dims", "5", "--lambdas", "10", "--sizes", "50,100,150,200",
             "--reps", 10, "--seed", 0, "--output", out]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [50, 100, 150, 200]
        for row in rows:
            newton = float(row["relerr_lambda_newton"])
            halley = float(row["relerr_lambda_halley"])
            assert abs(newton - halley) < 1e-6
        errs = [float(r["err_mu_fixed"]) for r in rows]
        assert errs[-1] < errs[0]

    def test_location_only_columns(self, tmp_path):
        out = tmp_path / "loc.csv"
        run(["bench", "--what", "location", "--dims", "5", "--lambdas", "10",
             "--sizes", "50", "--reps", 3, "--output", out])
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert "err_mu_fixed" in header and "relerr_lambda_newton" not in header


    @pytest.mark.parametrize(
        "flags",
        [["--lambdas", ","], ["--lambdas", ""], ["--lambdas", "0"], ["--reps", "0"]],
        ids=["comma_lambdas", "empty_lambdas", "zero_lambda", "zero_reps"],
    )
    def test_bad_grid_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        args = {"--dims": "2", "--lambdas": "5", "--sizes": "20", "--reps": "1"}
        args.update(zip(flags[::2], flags[1::2]))
        code = run(["bench", *[v for pair in args.items() for v in pair], "--output", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestParser:
    def test_help_available_for_every_subcommand(self, capsys):
        for cmd in ("fit", "cluster", "sample", "simulate", "bench"):
            with pytest.raises(SystemExit) as exc:
                run([cmd, "--help"])
            assert exc.value.code == 0
            assert "--" in capsys.readouterr().out

    def test_unknown_flag_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--input", "x.csv", "--nonsense"])
        assert exc.value.code == 2

    def test_bare_sn_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["cluster", "--input", "x.csv", "-K", "2", "--algorithm", "sn"])
        assert exc.value.code == 2
