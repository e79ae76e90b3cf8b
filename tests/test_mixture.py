"""EM mixture fitting: responsibilities, heuristics, M-step, and the driver."""

import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from snmix import simulate
from snmix.distribution import SNParams, sample
from snmix.estimation import (
    MAX_DISPERSION,
    ConcentrationConfig,
    FrechetConfig,
    concentration_mle,
    fit_sn,
    weighted_frechet_mean,
)
from snmix.distribution import _log_partition_many, _log_partition_moments
from snmix.geometry import (
    SpherePoint,
    _angles,
    batch_exp,
    batch_project,
    geodesic_distance,
    unitize,
)
from snmix.metrics import kmeans
from snmix.mixture import (
    EMConfig,
    EMReport,
    MixtureModel,
    _init_from_kmeans,
    _log_joint,
    _m_step,
    _posterior,
    _reseed_empty,
    e_step,
    fit_em,
    harden,
    information_criteria,
    log_likelihood,
    m_step,
    parameter_count,
    sample_mixture,
    stochasticize,
)


def two_component_model(lam1=5.0, lam2=5.0, w1=0.5, mode="heterogeneous"):
    return MixtureModel([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [lam1, lam2], [w1, 1.0 - w1], mode)


def separated_sample(rng, dims, lams, counts):
    mus = []
    while len(mus) < len(lams):
        cand = unitize(rng.standard_normal(dims + 1))
        if all(geodesic_distance(cand, m) > 1.0 for m in mus):
            mus.append(cand)
    pts = np.vstack([sample(SNParams(m, l), c, rng) for m, l, c in zip(mus, lams, counts)])
    labels = np.concatenate([np.full(c, k + 1) for k, c in enumerate(counts)])
    return pts, labels, mus


class TestMixtureModel:
    def test_validates_weights(self):
        for weights in ([0.7, 0.7], [np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite, non-negative and sum to 1"):
                MixtureModel(np.eye(3)[:2], [5.0, 5.0], np.array(weights))

    def test_homogeneous_requires_equal_concentrations(self):
        with pytest.raises(ValueError):
            two_component_model(lam1=5.0, lam2=6.0, mode="homogeneous")

    def test_serialization_round_trip(self):
        model = two_component_model(lam1=3.25, lam2=17.5, w1=0.37)
        doc = json.loads(json.dumps(model.to_dict()))
        back = MixtureModel.from_dict(doc)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.mus, model.mus)
        assert np.array_equal(back.lams, model.lams)

    def test_stores_arrays_read_only(self):
        model = two_component_model(lam1=3.0, lam2=8.0, w1=0.25)
        assert (model.K, model.p) == (2, 2)
        assert model.mus.shape == (2, 3) and model.lams.shape == (2,)
        for a in (model.mus, model.lams, model.weights):
            assert a.dtype == float and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5

    @pytest.mark.parametrize("mode", ["heterogeneous", "homogeneous"])
    def test_m_step_model_equals_checked_build(self, mode):
        # the M-step freezes the arrays it has just built instead of checking
        # and copying them; the checked constructor must give the same model
        x, _ = simulate.household_mix(seed=2)
        gamma = e_step(x, fit_em(x, EMConfig(K=3, seed=2, max_iter=3)).model).T
        model, angles = _m_step(x, np.ascontiguousarray(gamma), mode,
                                FrechetConfig(), ConcentrationConfig())
        assert angles is None  # a cold M-step takes its dispersions at the raw means
        checked = MixtureModel(model.mus, model.lams, model.weights, model.concentration_mode)
        assert model.to_dict() == checked.to_dict()
        for name in ("mus", "lams", "weights"):
            a, b = getattr(model, name), getattr(checked, name)
            assert a.tobytes() == b.tobytes() and (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.flags.c_contiguous and not a.flags.writeable

    def test_keeps_caller_arrays_apart(self):
        mus, lams = np.eye(3)[:2].copy(), np.array([3.0, 8.0])
        model = MixtureModel(mus, lams, [0.5, 0.5])
        mus[0], lams[0] = mus[1], 1.0
        np.testing.assert_array_equal(model.mus, np.eye(3)[:2])
        np.testing.assert_array_equal(model.lams, [3.0, 8.0])

    def test_locations_stored_as_given(self):
        # a unit row within the tolerance is kept bit for bit, not normalized again
        mus = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0 + 1e-9]])
        model = MixtureModel(mus, [2.0, 3.0], [0.5, 0.5])
        assert np.array_equal(model.mus, mus)

    @pytest.mark.parametrize(
        "mus, match",
        [
            ([[0.0, 0.0, 2.0]], "unit vectors"),
            ([[0.0, np.nan, 1.0]], "finite"),
            ([0.0, 0.0, 1.0], r"\(n, p\+1\) array"),
            ([[1.0]], r"\(n, p\+1\) array"),
        ],
        ids=["not_unit", "nan", "one_dimensional", "zero_sphere"],
    )
    def test_validates_locations(self, mus, match):
        with pytest.raises(ValueError, match=match):
            MixtureModel(mus, [5.0], [1.0])

    @pytest.mark.parametrize(
        "lams",
        [[np.nan, 1.0], [np.inf, 1.0], [-1.0, 1.0], [np.nextafter(1e8, np.inf), 1.0]],
        ids=["nan", "inf", "negative", "above_lambda_max"],
    )
    def test_validates_concentrations(self, lams):
        with pytest.raises(ValueError, match=r"concentration must be in \[0, 1e\+08\]"):
            MixtureModel(np.eye(3)[:2], lams, [0.5, 0.5])

    def test_concentrations_match_components(self):
        with pytest.raises(ValueError, match="concentrations must match"):
            MixtureModel(np.eye(3)[:2], [1.0, 2.0, 3.0], [0.5, 0.5])


class TestEStep:
    def test_single_component(self):
        model = MixtureModel([[0.0, 0.0, 1.0]], [4.0], [1.0])
        x = unitize(np.random.default_rng(0).standard_normal((25, 3)))
        np.testing.assert_array_equal(e_step(x, model), np.ones((25, 1)))

    def test_equidistant_point_splits_evenly(self):
        model = two_component_model()
        x = unitize(np.array([[1.0, 1.0, 0.0]]))  # equidistant from both centers
        np.testing.assert_allclose(e_step(x, model), [[0.5, 0.5]], atol=1e-14)

    def test_huge_concentration_snaps_to_nearest(self):
        model = two_component_model(lam1=1e6, lam2=1e6, mode="homogeneous")
        x = unitize(np.array([[0.1, 1.0, 0.0]]))  # strictly nearer component 2
        gamma = e_step(x, model)
        assert gamma[0, 0] < 1e-12
        assert gamma[0, 1] > 1.0 - 1e-12

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(3)
        model = two_component_model(lam1=2.0, lam2=30.0, w1=0.3)
        gamma = e_step(unitize(rng.standard_normal((100, 3))), model)
        assert np.all(gamma >= 0.0)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-10)


class TestPosterior:
    """The one-pass E-step kernel against SciPy's log-sum-exp."""

    @pytest.mark.parametrize(
        "model",
        [
            two_component_model(lam1=2.0, lam2=30.0, w1=0.3),
            MixtureModel(
                [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [5.0, 8.0, 3.0], [0.6, 0.0, 0.4]
            ),
            two_component_model(lam1=1e6, lam2=1e6, mode="homogeneous"),
        ],
        ids=["two_components", "zero_weight_component", "lambda_1e6"],
    )
    def test_matches_logsumexp(self, model):
        x = unitize(np.random.default_rng(5).standard_normal((200, 3)))
        # the kernel is component-major: gamma and the log joint are (K, N)
        gamma, row_loglik, _ = _posterior(x, model)
        assert gamma.shape == (model.K, len(x)) and row_loglik.shape == (len(x),)
        np.testing.assert_allclose(gamma.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        ref = logsumexp(_log_joint(x, model)[0], axis=0)
        np.testing.assert_allclose(row_loglik, ref, rtol=1e-12, atol=0.0)
        if model.weights.min() == 0.0:
            assert np.all(gamma[model.weights == 0.0] == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_reference_bit_for_bit(self, seed):
        # the expressions of the kernel before it worked in the angles' buffer
        rng = np.random.default_rng([59, seed])
        k, p = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        model = MixtureModel(unitize(rng.standard_normal((k, p + 1))),
                             rng.uniform(0.0, 300.0, k), rng.dirichlet(np.ones(k)))
        x = unitize(rng.standard_normal((int(rng.integers(1, 400)), p + 1)))
        d2 = np.square(_angles(model.mus, x)[1])
        log_joint = (np.log(model.weights)[:, None] - 0.5 * model.lams[:, None] * d2
                     - _log_partition_many(p, model.lams)[:, None])
        peak = log_joint.max(axis=0)
        joint = np.exp(log_joint - peak)
        total = joint.sum(axis=0)
        gamma, row_loglik, moments = _posterior(x, model)
        np.testing.assert_array_equal(gamma, joint / total)
        np.testing.assert_array_equal(row_loglik, peak + np.log(total))
        np.testing.assert_array_equal(_log_joint(x, model)[0], log_joint)
        # the same pass gives the moments where a solve updating the model starts
        for a, b in zip(moments, _log_partition_moments(p, model.lams)[1:]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("call", [e_step, log_likelihood], ids=["e_step", "log_likelihood"])
    def test_points_and_model_on_different_spheres(self, call):
        x = unitize(np.random.default_rng(6).standard_normal((10, 4)))  # S^3
        with pytest.raises(ValueError, match="same sphere"):
            call(x, two_component_model())  # S^2


class TestHarden:
    def test_picks_argmax(self):
        np.testing.assert_array_equal(harden([[0.2, 0.8]]), [[0.0, 1.0]])

    def test_tie_breaks_to_smallest_index(self):
        np.testing.assert_array_equal(harden([[0.5, 0.5]]), [[1.0, 0.0]])

    def test_idempotent_on_one_hot(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(harden(g), g)


class TestStochasticize:
    def test_certain_rows_stay_fixed(self):
        g = np.array([[1.0, 0.0]] * 10)
        np.testing.assert_array_equal(stochasticize(g, 0), g)

    def test_empirical_frequency(self):
        g = np.tile([0.3, 0.7], (100_000, 1))
        out = stochasticize(g, 12345)
        assert out[:, 1].mean() == pytest.approx(0.7, abs=0.01)

    def test_deterministic_given_seed(self):
        g = np.random.default_rng(0).dirichlet([1.0, 1.0, 1.0], size=50)
        np.testing.assert_array_equal(stochasticize(g, 9), stochasticize(g, 9))

    def test_same_draws_as_row_major_reference(self):
        # the (K, N) kernel behind the public (N, K) function draws the same
        # uniforms in the same order, so stochastic EM fits do not change
        def reference(gamma, rng):
            rng = np.random.default_rng(rng)
            cum = np.cumsum(gamma, axis=1)
            cum /= cum[:, -1:]
            idx = np.sum(rng.random((gamma.shape[0], 1)) >= cum, axis=1)
            out = np.zeros_like(gamma)
            out[np.arange(gamma.shape[0]), np.clip(idx, 0, gamma.shape[1] - 1)] = 1.0
            return out

        g = np.random.default_rng(1).dirichlet([0.5, 1.0, 2.0, 1.0], size=300)
        for seed in range(5):
            out = stochasticize(g, seed)
            assert out.shape == g.shape and out.flags.c_contiguous
            np.testing.assert_array_equal(out, reference(g, seed))


class TestMStep:
    def test_single_component_reduces_to_fit_sn(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 12.0), 80, 5)
        model = m_step(pts, np.ones((80, 1)))
        ref = fit_sn(pts)
        np.testing.assert_array_equal(model.mus[0], ref.params.mu.coords)
        assert model.lams[0] == pytest.approx(ref.params.lam, abs=1e-10)
        assert model.weights[0] == 1.0

    def test_hard_gamma_uses_members_only(self):
        rng = np.random.default_rng(7)
        pts, labels, _ = separated_sample(rng, 2, (25.0, 25.0), (40, 60))
        gamma = np.zeros((100, 2))
        gamma[np.arange(100), labels - 1] = 1.0
        model = m_step(pts, gamma)
        for k in (0, 1):
            members = pts[labels == k + 1]
            ref = fit_sn(members)
            np.testing.assert_allclose(model.mus[k], ref.params.mu.coords, atol=1e-12)
        np.testing.assert_allclose(model.weights, [0.4, 0.6], atol=1e-15)

    def test_homogeneous_on_identical_clusters(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 15.0), 120, 9)
        doubled = np.vstack([pts, pts])
        gamma = np.zeros((240, 2))
        gamma[:120, 0] = 1.0
        gamma[120:, 1] = 1.0
        shared = m_step(doubled, gamma, concentration_mode="homogeneous")
        single = fit_sn(pts)
        assert shared.lams[0] == shared.lams[1]
        assert shared.lams[0] == pytest.approx(single.params.lam, abs=1e-6)

    def test_empty_column_rejected(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 5.0), 30, 2)
        gamma = np.zeros((30, 2))
        gamma[:, 0] = 1.0
        with pytest.raises(ValueError, match="empty cluster"):
            m_step(pts, gamma)

    @pytest.mark.parametrize(
        "gamma", [np.ones(30), np.ones((29, 2))], ids=["one_dimensional", "row_mismatch"]
    )
    def test_gamma_must_be_n_by_k(self, gamma):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 5.0), 30, 2)
        with pytest.raises(ValueError, match=r"\(n, K\) matrix"):
            m_step(pts, gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
    def test_gamma_must_be_finite_and_non_negative(self, bad):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 5.0), 30, 2)
        gamma = np.full((30, 2), 0.5)
        gamma[4, 1] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            m_step(pts, gamma)

    def test_gamma_rows_must_sum_to_one(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 5.0), 30, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            m_step(pts, np.ones((30, 2)))

    def test_unknown_concentration_mode_rejected(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 5.0), 30, 2)
        with pytest.raises(ValueError, match="concentration_mode"):
            m_step(pts, np.full((30, 2), 0.5), concentration_mode="bogus")


class TestLogLikelihood:
    def test_single_component_matches_density_sum(self):
        from snmix.distribution import log_density

        pts = sample(SNParams(np.array([0.0, 1.0, 0.0]), 6.0), 50, 11)
        params = SNParams(np.array([0.0, 1.0, 0.0]), 6.0)
        model = MixtureModel([params.mu.coords], [params.lam], [1.0])
        assert log_likelihood(pts, model) == pytest.approx(
            float(np.sum(log_density(pts, params))), abs=1e-10
        )

    def test_duplicated_component_invariance(self):
        pts = unitize(np.random.default_rng(1).standard_normal((40, 3)))
        one = MixtureModel([[0.0, 0.0, 1.0]], [4.0], [1.0])
        split = MixtureModel([[0.0, 0.0, 1.0]] * 2, [4.0, 4.0], [0.5, 0.5])
        assert log_likelihood(pts, one) == pytest.approx(log_likelihood(pts, split), abs=1e-10)


class TestFitEM:
    def test_k1_equals_fit_sn(self):
        samples = [sample(SNParams(np.array([0.0, 0.0, 1.0]), 12.0), 150, 3)]
        # the one M-step of a K=1 fit is cold and takes fit_sn's dispersion at the
        # solver's location, also where unitize moves that location by an ulp
        for seed in range(8):
            rng = np.random.default_rng([41, seed])
            mu = unitize(rng.standard_normal(int(rng.integers(2, 6))))
            lam, n = float(rng.uniform(2.0, 40.0)), int(rng.integers(20, 200))
            samples.append(sample(SNParams(mu, lam), n, rng))
        for pts in samples:
            report = fit_em(pts, EMConfig(K=1, seed=0))
            ref = fit_sn(pts)
            # bit for bit: the first M-step is fit_sn's solve and gamma stays all ones
            np.testing.assert_array_equal(report.model.mus[0], ref.params.mu.coords)
            assert report.model.lams[0] == ref.params.lam
            assert report.iterations == 1 and report.converged
            assert (report.frechet_iterations, report.concentration_iterations) == (
                ref.iterations_mu, ref.iterations_lambda)

    def test_recovers_separated_clusters(self):
        from snmix.metrics import rand_index

        rng = np.random.default_rng(15)
        pts, labels, _ = separated_sample(rng, 3, (30.0, 40.0, 25.0), (80, 70, 90))
        report = fit_em(pts, EMConfig(K=3, seed=1))
        fitted = np.argmax(report.gamma, axis=1) + 1
        assert rand_index(labels, fitted) > 0.97
        assert report.converged

    def test_soft_trace_non_decreasing(self):
        rng = np.random.default_rng(19)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (90, 110))
        report = fit_em(pts, EMConfig(K=2, seed=4))
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)

    def test_soft_trace_non_decreasing_to_max_iter(self):
        # an overfit K that stops at max_iter; the last entry is the returned model's
        x, _ = simulate.household_mix(seed=6)
        report = fit_em(x, EMConfig(K=5, seed=6))
        assert not report.converged
        assert np.diff(report.loglik_trace).min() >= -1e-8
        assert report.loglik_trace[-1] == log_likelihood(x, report.model)

    def test_hard_assignment_gamma_one_hot(self):
        rng = np.random.default_rng(23)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (60, 60))
        report = fit_em(pts, EMConfig(K=2, assignment="hard", seed=4))
        assert np.all(np.sum(report.gamma == 1.0, axis=1) == 1)
        assert np.all(np.sum(report.gamma, axis=1) == 1.0)

    def test_hard_gamma_one_hot_at_every_iteration(self, monkeypatch):
        import snmix.mixture as mix

        seen = []
        original = mix._m_step

        def recording(x, gamma, *args, **kwargs):
            seen.append(np.asarray(gamma))
            return original(x, gamma, *args, **kwargs)

        monkeypatch.setattr(mix, "_m_step", recording)
        pts, _ = simulate.household_mix(seed=1)
        report = mix.fit_em(pts, EMConfig(K=2, assignment="hard", seed=1))
        assert len(seen) == report.iterations >= 2
        for gamma in seen:  # (K, N): one 1 per point
            assert np.all(np.sum(gamma == 1.0, axis=0) == 1)
            assert np.all((gamma == 0.0) | (gamma == 1.0))

    def test_stochastic_deterministic_by_seed(self):
        rng = np.random.default_rng(27)
        pts, _, _ = separated_sample(rng, 2, (20.0, 20.0), (50, 50))
        a = fit_em(pts, EMConfig(K=2, assignment="stochastic", seed=8))
        b = fit_em(pts, EMConfig(K=2, assignment="stochastic", seed=8))
        np.testing.assert_array_equal(a.gamma, b.gamma)
        assert a.loglik_trace == b.loglik_trace

    def test_needs_at_least_k_points(self):
        pts = unitize(np.random.default_rng(0).standard_normal((2, 3)))
        with pytest.raises(ValueError, match="at least K"):
            fit_em(pts, EMConfig(K=3))

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(35)
        pts, _, _ = separated_sample(rng, 2, (12.0, 28.0), (70, 80))
        cfg = EMConfig(K=2, seed=6)
        init = _init_from_kmeans(pts, cfg, np.random.SeedSequence(cfg.seed).spawn(2)[0])
        flipped = MixtureModel(
            init.mus[::-1], init.lams[::-1], init.weights[::-1], init.concentration_mode
        )
        a = fit_em(pts, cfg, init_model=init)
        b = fit_em(pts, cfg, init_model=flipped)
        np.testing.assert_array_equal(a.gamma, b.gamma[:, ::-1])
        np.testing.assert_array_equal(a.model.weights, b.model.weights[::-1])
        np.testing.assert_array_equal(a.model.mus, b.model.mus[::-1])

    def test_kmeans_limit_matches_nearest_center(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            p = int(rng.integers(1, 6))
            mus = unitize(rng.standard_normal((k, p + 1)))
            weights = rng.dirichlet(np.full(k, 3.0))
            model = MixtureModel(mus, np.full(k, 1e6), weights, "homogeneous")
            x = unitize(rng.standard_normal((200, p + 1)))
            gamma = e_step(x, model)
            nearest = np.argmin(geodesic_distance(x[:, None, :], mus[None]), axis=1)
            assert np.array_equal(np.argmax(gamma, axis=1), nearest)

    def test_one_posterior_pass_per_sweep(self, monkeypatch):
        import snmix.mixture as mix

        calls = []
        original = mix._log_joint

        def counting(x, model, *angles):
            calls.append(None)
            return original(x, model, *angles)

        monkeypatch.setattr(mix, "_log_joint", counting)
        rng = np.random.default_rng(19)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (90, 110))
        # one run to max_iter, one to the gamma stop rule
        for max_iter, converged in ((5, False), (200, True)):
            cfg = EMConfig(K=2, seed=4, max_iter=max_iter)
            calls.clear()
            report = fit_em(pts, cfg)
            assert (report.converged, report.reseeds) == (converged, 0)
            # the initial pass and one per M-step
            assert len(calls) == report.iterations + 1
            assert report.loglik_trace[-1] == log_likelihood(pts, report.model)
            np.testing.assert_array_equal(report.gamma, e_step(pts, report.model))

    def test_one_frechet_solve_per_m_step(self, monkeypatch):
        import snmix.mixture as mix

        calls = []
        original = mix._frechet_columns

        def counting(points, W, cfg, *offsets):
            calls.append(W.shape[0])  # W is (K, N)
            return original(points, W, cfg, *offsets)

        monkeypatch.setattr(mix, "_frechet_columns", counting)
        rng = np.random.default_rng(23)
        pts, labels, _ = separated_sample(rng, 3, (20.0, 12.0, 30.0, 16.0), (50, 60, 40, 70))
        m_step(pts, np.eye(4)[labels - 1])
        assert calls == [4]
        calls.clear()
        report = fit_em(pts, EMConfig(K=4, seed=1))
        # one per M-step
        assert calls == [4] * report.iterations

    def test_antipodal_data_rejected(self):
        pts = np.repeat([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], 10, axis=0)
        with pytest.raises(ValueError, match="antipod"):
            fit_em(pts, EMConfig(K=2))

    def test_reseeds_recover_dead_components(self):
        # a far-away initial component gets no mass and must be recovered
        rng = np.random.default_rng(43)
        pts, _, mus = separated_sample(rng, 2, (40.0, 40.0), (60, 60))
        dead = unitize(-(mus[0] + mus[1]))
        init = MixtureModel([mus[0], mus[1], dead], [40.0, 40.0, 1e6], [0.45, 0.45, 0.10])
        report = fit_em(pts, EMConfig(K=3, seed=0), init_model=init)
        assert report.reseeds >= 1
        assert np.all(report.gamma.sum(axis=0) > 0.0)


class TestWarmStartedEM:
    """Every M-step of a fit but the first starts where the last one ended."""

    @pytest.mark.parametrize("mode", ["heterogeneous", "homogeneous"])
    def test_first_m_step_is_the_public_m_step(self, mode):
        x, _ = simulate.household_mix(seed=3)
        init = fit_em(x, EMConfig(K=3, seed=3, max_iter=2, concentration_mode=mode)).model
        report = fit_em(x, EMConfig(K=3, seed=3, max_iter=1, concentration_mode=mode),
                        init_model=init)
        assert report.reseeds == 0
        assert report.model.to_dict() == m_step(x, e_step(x, init), mode).to_dict()

    def test_reseeded_component_restarts_cold(self):
        rng = np.random.default_rng(47)
        pts, _, mus = separated_sample(rng, 2, (40.0, 40.0), (60, 60))
        model = MixtureModel([mus[0], mus[1], unitize(-(mus[0] + mus[1]))],
                             [40.0, 30.0, 1e6], [0.45, 0.45, 0.10])
        gamma, row_loglik, moments = _posterior(pts, model)
        gamma[2] = 0.0  # component 2 carries no mass
        gamma /= gamma.sum(axis=0)
        offsets = rng.uniform(-1e-3, 1e-3, (3, 3))
        kept = offsets[:2].copy()
        new, gamma, moments, reseeds = _reseed_empty(pts, model, gamma, row_loglik, moments,
                                                     "soft", rng, offsets)
        assert reseeds == 1 and gamma[2].sum() > 0.0
        # the posterior returned is the patched model's, moments included
        want_gamma, _, want_moments = _posterior(pts, new)
        np.testing.assert_array_equal(gamma, want_gamma)
        for a, b in zip(moments, want_moments):
            np.testing.assert_array_equal(a, b)
        # its next Frechet solve starts at the extrinsic mean, its next
        # concentration solve at the median of the live components
        np.testing.assert_array_equal(offsets[2], 0.0)
        np.testing.assert_array_equal(offsets[:2], kept)
        assert new.lams[2] == 35.0
        np.testing.assert_array_equal(new.mus[2], unitize(pts[np.argmin(row_loglik)]))
        # the patched model is the one the checked constructor builds
        checked = MixtureModel(new.mus, new.lams, new.weights, new.concentration_mode)
        for name in ("mus", "lams", "weights"):
            assert getattr(new, name).tobytes() == getattr(checked, name).tobytes()
            assert not getattr(new, name).flags.writeable

    def test_large_mix_inner_iterations(self, monkeypatch):
        # overfit K=4 runs all 200 sweeps; cold M-steps took 1000 Frechet and
        # 800 concentration iterations here
        import snmix.distribution as dist

        passes = []
        original = dist._radial_nodes

        def counting(p, lams, order):
            passes.append(lams.size)
            return original(p, lams, order)

        monkeypatch.setattr(dist, "_radial_nodes", counting)
        x, _ = simulate.large_mix(seed=1)
        report = fit_em(x, EMConfig(K=4, seed=1))
        assert report.iterations == 200 and not report.converged
        assert report.frechet_iterations <= 600
        assert report.concentration_iterations <= 560
        # quadrature passes over the whole fit, initializer included: one per E-step,
        # plus the Halley iterations after the first, which reuses the E-step's pass;
        # Newton without the reuse made 3.3 per sweep here
        assert len(passes) <= 2.1 * report.iterations

    @pytest.mark.parametrize("case", ["heterogeneous", "homogeneous", "reseeded"])
    def test_reused_moments_change_no_bit(self, case, monkeypatch):
        import snmix.mixture as mix

        if case == "reseeded":
            # hard EM that loses a component after its tenth M-step
            x, _ = simulate.household_mix(seed=4)
            cfg = EMConfig(K=6, seed=4, assignment="hard")
        else:
            x, _ = simulate.household_mix(seed=3)
            cfg = EMConfig(K=4, seed=3, max_iter=60, concentration_mode=case)
        given = []
        original = mix._concentration_columns

        def spy(dispersions, p, conc_cfg, start=None, moments=None):
            given.append(moments is not None)
            return original(dispersions, p, conc_cfg, start, moments)

        monkeypatch.setattr(mix, "_concentration_columns", spy)
        reused = fit_em(x, cfg)
        # the initializer's and the first M-step's solves start cold; every other M-step
        # takes the moments of the last posterior, a reseed's included
        assert reused.reseeds == (case == "reseeded")
        assert len(given) == reused.iterations + 1
        assert given.count(False) == 2

        def recomputing(dispersions, p, conc_cfg, start=None, moments=None):
            return original(dispersions, p, conc_cfg, start)

        monkeypatch.setattr(mix, "_concentration_columns", recomputing)
        fresh = fit_em(x, cfg)
        assert reused.loglik_trace == fresh.loglik_trace
        for name in ("mus", "lams", "weights"):
            assert getattr(reused.model, name).tobytes() == getattr(fresh.model, name).tobytes()
        np.testing.assert_array_equal(reused.gamma, fresh.gamma)
        assert (reused.iterations, reused.converged, reused.reseeds,
                reused.concentration_iterations) == (fresh.iterations, fresh.converged,
                                                     fresh.reseeds, fresh.concentration_iterations)

    @pytest.mark.parametrize("mode", ["heterogeneous", "homogeneous"])
    def test_m_step_on_an_extrapolated_model(self, mode, monkeypatch):
        # an accelerated EM (SQUAREM) updates a model that no M-step produced; all the
        # M-step takes from outside that model is the Frechet offsets, so its start
        # from the model's own posterior must match a solve that recomputes the moments
        import snmix.distribution as dist
        import snmix.mixture as mix

        x, _ = simulate.household_mix(seed=5)
        cfg = EMConfig(K=3, seed=5, concentration_mode=mode)
        fitted = fit_em(x, cfg).model
        rng = np.random.default_rng(61)
        scale = 1.2 if mode == "homogeneous" else rng.uniform(0.8, 1.2, cfg.K)
        model = MixtureModel(unitize(fitted.mus + rng.normal(0.0, 0.05, fitted.mus.shape)),
                             fitted.lams * scale, fitted.weights, mode)
        gamma, _, moments = _posterior(x, model)
        offsets = rng.uniform(-1e-3, 1e-3, fitted.mus.shape)
        passes = []
        original_nodes = dist._radial_nodes

        def counting(p, lams, order):
            passes.append(None)
            return original_nodes(p, lams, order)

        monkeypatch.setattr(dist, "_radial_nodes", counting)

        def m_step_once():
            warm = mix._WarmStart(offsets.copy())
            passes.clear()
            new, angles = _m_step(x, gamma, mode, cfg.frechet, cfg.concentration, warm,
                                  (model.lams, moments))
            return new, angles, warm, len(passes)

        reused = m_step_once()
        original = mix._concentration_columns

        def recomputing(dispersions, p, conc_cfg, start=None, moments=None):
            return original(dispersions, p, conc_cfg, start)

        monkeypatch.setattr(mix, "_concentration_columns", recomputing)
        fresh = m_step_once()
        for name in ("mus", "lams", "weights"):
            assert getattr(reused[0], name).tobytes() == getattr(fresh[0], name).tobytes()
        for a, b in zip(reused[1], fresh[1]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(reused[2].offsets, fresh[2].offsets)
        counters = ("frechet_iterations", "concentration_iterations", "unconverged_solves")
        assert [getattr(reused[2], c) for c in counters] == [getattr(fresh[2], c) for c in counters]
        assert reused[3] == fresh[3] - 1  # the posterior's pass stands in for the first

    def test_unconverged_solves_counted(self, monkeypatch):
        import snmix.mixture as mix

        flags = []
        for name in ("_frechet_columns", "_concentration_columns"):
            original = getattr(mix, name)

            def spy(*args, _original=original):
                out = _original(*args)
                flags.append(bool(out[2].all()))
                return out

            monkeypatch.setattr(mix, name, spy)
        x, _ = simulate.household_mix(seed=2)
        capped = fit_em(x, EMConfig(K=3, seed=2, max_iter=20, frechet=FrechetConfig(max_iter=2)))
        # the k-means initializer's solve is not an M-step
        m_step_flags = flags[1:]
        assert len(m_step_flags) == 2 * capped.iterations
        assert capped.unconverged_solves == m_step_flags.count(False) > 0
        flags.clear()
        free = fit_em(x, EMConfig(K=3, seed=2))
        assert all(flags) and free.unconverged_solves == 0

    def test_e_step_reuses_the_m_step_angles(self, monkeypatch):
        import snmix.mixture as mix

        calls = []
        original = mix._angles

        def counting(a, b):
            calls.append(None)
            return original(a, b)

        monkeypatch.setattr(mix, "_angles", counting)
        rng = np.random.default_rng(19)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (90, 110))
        report = fit_em(pts, EMConfig(K=2, seed=4, max_iter=6))
        assert (report.iterations, report.reseeds) == (6, 0)
        # the initializer's dispersions, the initial E-step, and the first M-step
        # and its E-step; after that one set per sweep, shared by both steps
        assert len(calls) == 4 + (report.iterations - 1)
        assert report.loglik_trace[-1] == log_likelihood(pts, report.model)


def per_cluster_init(x, cfg, seed):
    """Reference: the k-means initializer written one cluster at a time.

    Returns (locations, concentrations, weights).
    """
    labels = kmeans(x, cfg.K, seed=seed)
    mus, dispersions, counts = [], [], []
    for j in range(1, cfg.K + 1):
        members = x[labels == j]
        centroid = members.mean(axis=0)
        if np.linalg.norm(centroid) < 1e-8:
            centroid = members[0]
        mu = unitize(centroid)
        mus.append(mu)
        d2 = np.square(geodesic_distance(members, mu))
        dispersions.append(0.5 * float(d2.mean()))
        counts.append(len(members))
    counts = np.asarray(counts, dtype=float)
    dispersions = np.clip(dispersions, 1e-10, MAX_DISPERSION - 1e-9)
    p = x.shape[1] - 1
    if cfg.concentration_mode == "homogeneous":
        pooled = float(np.sum(dispersions * counts) / len(x))
        pooled = min(max(pooled, 1e-10), MAX_DISPERSION - 1e-9)
        lams = np.full(cfg.K, concentration_mle(pooled, p, cfg.concentration))
    else:
        lams = np.array([concentration_mle(d, p, cfg.concentration) for d in dispersions])
    return np.array(mus), lams, counts / len(x)


class TestInitFromKmeans:
    """The one-hot initializer against the per-cluster reference: weights
    exactly, locations to 1e-11 absolute and concentrations to 1e-10 relative
    (the matrix products sum in a different order)."""

    def assert_matches_reference(self, x, cfg):
        seed = np.random.SeedSequence(cfg.seed).spawn(2)[0]
        model = _init_from_kmeans(x, cfg, seed)
        mus, lams, weights = per_cluster_init(x, cfg, seed)
        np.testing.assert_array_equal(model.weights, weights)
        np.testing.assert_allclose(model.mus, mus, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(model.lams, lams, rtol=1e-10, atol=0.0)
        assert model.concentration_mode == cfg.concentration_mode

    @pytest.mark.parametrize("mode", ["heterogeneous", "homogeneous"])
    def test_household_mix(self, mode):
        for seed in (1, 2, 3):
            x, _ = simulate.household_mix(seed=seed)
            for k in (2, 3, 4, 5):
                self.assert_matches_reference(x, EMConfig(K=k, seed=seed, concentration_mode=mode))

    def test_separated_clusters(self):
        rng = np.random.default_rng(47)
        x, _, _ = separated_sample(rng, 4, (8.0, 30.0, 200.0), (50, 40, 60))
        for k in (1, 2, 3, 4):
            self.assert_matches_reference(x, EMConfig(K=k, seed=k))

    def test_cancelling_mean_falls_back_to_first_member(self):
        x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        cfg = EMConfig(K=1)
        self.assert_matches_reference(x, cfg)
        model = _init_from_kmeans(x, cfg, np.random.SeedSequence(0).spawn(2)[0])
        np.testing.assert_array_equal(model.mus[0], x[0])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(fit_sn, id="fit_sn"),
        pytest.param(weighted_frechet_mean, id="weighted_frechet_mean"),
        pytest.param(lambda x: e_step(x, two_component_model()), id="e_step"),
        pytest.param(lambda x: log_likelihood(x, two_component_model()), id="log_likelihood"),
        pytest.param(lambda x: m_step(x, np.full((len(x), 2), 0.5)), id="m_step"),
        pytest.param(lambda x: fit_em(x, EMConfig(K=2)), id="fit_em"),
    ],
)
def test_non_finite_row_rejected(call):
    x = sample(SNParams(np.array([0.0, 0.0, 1.0]), 10.0), 20, 0)
    x[3] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        call(x)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: FrechetConfig(epsilon=math.nan), "epsilon must be finite"),
        (lambda: FrechetConfig(epsilon=math.inf), "epsilon must be finite"),
        (lambda: FrechetConfig(max_iter=2.5), "max_iter must be a positive integer"),
        (lambda: ConcentrationConfig(epsilon=math.nan), "epsilon must be finite"),
        (lambda: EMConfig(K=2, epsilon_gamma=math.nan), "epsilon_gamma must be finite"),
        (lambda: EMConfig(K=2.5), "K must be a positive integer"),
        (lambda: EMConfig(K=2, max_iter=2.5), "max_iter must be a positive integer"),
    ],
    ids=["frechet_nan", "frechet_inf", "frechet_max_iter", "conc_nan", "em_nan", "em_k",
         "em_max_iter"],
)
def test_config_rejects_bad_values(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_config_accepts_numpy_integers():
    cfg = EMConfig(K=np.int64(2), max_iter=np.int32(3), frechet=FrechetConfig(max_iter=np.int64(9)))
    assert (cfg.K, cfg.max_iter, cfg.frechet.max_iter) == (2, 3, 9)


class TestInformationCriteria:
    def make_report(self, model, loglik):
        gamma = np.ones((10, model.K)) / model.K
        return EMReport(model, gamma, (loglik,), 1, True)

    def test_heterogeneous_parameter_count(self):
        model = MixtureModel(np.eye(3), np.full(3, 5.0), [0.3, 0.3, 0.4])
        assert parameter_count(model) == 11  # (p + 2) K - 1 at p=2, K=3

    def test_k1_criteria_values(self):
        model = MixtureModel([[0.0, 0.0, 1.0]], [5.0], [1.0])
        assert parameter_count(model) == 3
        crit = information_criteria(self.make_report(model, -100.0), 50)
        assert crit["aic"] == pytest.approx(206.0)
        assert crit["bic"] == pytest.approx(200.0 + 3 * math.log(50))
        assert crit["hqic"] == pytest.approx(200.0 + 6 * math.log(math.log(50)))
        assert crit["aicc"] == pytest.approx(206.0 + 2 * 3 * 4 / (50 - 4))

    def test_homogeneous_parameter_count(self):
        model = MixtureModel(np.eye(3), np.full(3, 5.0), [0.3, 0.3, 0.4], "homogeneous")
        assert parameter_count(model) == 9  # (p + 1) K at p=2, K=3

    def test_aicc_undefined_for_tiny_samples(self):
        model = MixtureModel([[0.0, 0.0, 1.0]], [5.0], [1.0])
        assert information_criteria(self.make_report(model, -5.0), 4)["aicc"] is None

    def test_hqic_undefined_for_one_observation(self):
        # log log 1 is undefined; the other criteria stay finite
        model = MixtureModel([[0.0, 0.0, 1.0]], [5.0], [1.0])
        crit = information_criteria(self.make_report(model, -5.0), 1)
        assert crit["hqic"] is None and crit["aicc"] is None
        assert crit["aic"] == pytest.approx(16.0) and crit["bic"] == pytest.approx(10.0)
        assert information_criteria(self.make_report(model, -5.0), 2)["hqic"] is not None


class TestSampleMixture:
    def test_degenerate_weight_draws_single_component(self):
        model = two_component_model(w1=1.0)
        pts, labels = sample_mixture(model, 200, 3)
        assert np.all(labels == 1)
        assert np.max(geodesic_distance(pts, model.mus[0])) < math.pi

    def test_label_proportions(self):
        model = two_component_model(lam1=50.0, lam2=50.0, w1=0.25)
        _, labels = sample_mixture(model, 40_000, 11)
        assert np.mean(labels == 1) == pytest.approx(0.25, abs=0.01)
