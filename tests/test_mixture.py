"""EM mixture fitting: responsibilities, heuristics, M-step, and the driver."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from snmix import simulate
from snmix.distribution import SNParams, sample
from snmix.estimation import MAX_DISPERSION, concentration_mle, fit_sn, weighted_frechet_mean
from snmix.geometry import SpherePoint, batch_exp, batch_project, geodesic_distance, unitize
from snmix.metrics import kmeans
from snmix.mixture import (
    EMConfig,
    EMReport,
    MixtureModel,
    _init_from_kmeans,
    _log_joint,
    _posterior,
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
    mu1 = np.array([1.0, 0.0, 0.0])
    mu2 = np.array([0.0, 1.0, 0.0])
    return MixtureModel(
        (SNParams(mu1, lam1), SNParams(mu2, lam2)),
        np.array([w1, 1.0 - w1]),
        mode,
    )


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
        with pytest.raises(ValueError):
            two_component_model(w1=0.7).__class__(
                two_component_model().components, np.array([0.7, 0.7])
            )

    def test_homogeneous_requires_equal_concentrations(self):
        with pytest.raises(ValueError):
            two_component_model(lam1=5.0, lam2=6.0, mode="homogeneous")

    def test_serialization_round_trip(self):
        model = two_component_model(lam1=3.25, lam2=17.5, w1=0.37)
        doc = json.loads(json.dumps(model.to_dict()))
        back = MixtureModel.from_dict(doc)
        assert np.array_equal(back.weights, model.weights)
        for a, b in zip(back.components, model.components):
            assert np.array_equal(a.mu.coords, b.mu.coords)
            assert a.lam == b.lam


class TestEStep:
    def test_single_component(self):
        model = MixtureModel((SNParams(np.array([0.0, 0.0, 1.0]), 4.0),), np.array([1.0]))
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
                (
                    SNParams(np.array([1.0, 0.0, 0.0]), 5.0),
                    SNParams(np.array([0.0, 0.0, 1.0]), 8.0),
                    SNParams(np.array([0.0, 1.0, 0.0]), 3.0),
                ),
                np.array([0.6, 0.0, 0.4]),
            ),
            two_component_model(lam1=1e6, lam2=1e6, mode="homogeneous"),
        ],
        ids=["two_components", "zero_weight_component", "lambda_1e6"],
    )
    def test_matches_logsumexp(self, model):
        x = unitize(np.random.default_rng(5).standard_normal((200, 3)))
        gamma, row_loglik = _posterior(x, model)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        ref = logsumexp(_log_joint(x, model), axis=1)
        np.testing.assert_allclose(row_loglik, ref, rtol=1e-12, atol=0.0)
        if model.weights.min() == 0.0:
            assert np.all(gamma[:, model.weights == 0.0] == 0.0)

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


class TestMStep:
    def test_single_component_reduces_to_fit_sn(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 12.0), 80, 5)
        model = m_step(pts, np.ones((80, 1)))
        ref = fit_sn(pts)
        np.testing.assert_array_equal(model.components[0].mu.coords, ref.params.mu.coords)
        assert model.components[0].lam == pytest.approx(ref.params.lam, abs=1e-10)
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
            np.testing.assert_allclose(
                model.components[k].mu.coords, ref.params.mu.coords, atol=1e-12
            )
        np.testing.assert_allclose(model.weights, [0.4, 0.6], atol=1e-15)

    def test_homogeneous_on_identical_clusters(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 15.0), 120, 9)
        doubled = np.vstack([pts, pts])
        gamma = np.zeros((240, 2))
        gamma[:120, 0] = 1.0
        gamma[120:, 1] = 1.0
        shared = m_step(doubled, gamma, concentration_mode="homogeneous")
        single = fit_sn(pts)
        assert shared.components[0].lam == shared.components[1].lam
        assert shared.components[0].lam == pytest.approx(single.params.lam, abs=1e-6)

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


class TestLogLikelihood:
    def test_single_component_matches_density_sum(self):
        from snmix.distribution import log_density

        pts = sample(SNParams(np.array([0.0, 1.0, 0.0]), 6.0), 50, 11)
        params = SNParams(np.array([0.0, 1.0, 0.0]), 6.0)
        model = MixtureModel((params,), np.array([1.0]))
        assert log_likelihood(pts, model) == pytest.approx(
            float(np.sum(log_density(pts, params))), abs=1e-10
        )

    def test_duplicated_component_invariance(self):
        pts = unitize(np.random.default_rng(1).standard_normal((40, 3)))
        base = SNParams(np.array([0.0, 0.0, 1.0]), 4.0)
        one = MixtureModel((base,), np.array([1.0]))
        split = MixtureModel((base, base), np.array([0.5, 0.5]))
        assert log_likelihood(pts, one) == pytest.approx(log_likelihood(pts, split), abs=1e-10)


class TestFitEM:
    def test_k1_equals_fit_sn(self):
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 12.0), 150, 3)
        report = fit_em(pts, EMConfig(K=1, seed=0))
        ref = fit_sn(pts)
        assert np.max(np.abs(report.model.components[0].mu.coords - ref.params.mu.coords)) < 1e-8
        assert abs(report.model.components[0].lam - ref.params.lam) < 1e-8

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

    def test_hard_assignment_gamma_one_hot(self):
        rng = np.random.default_rng(23)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (60, 60))
        report = fit_em(pts, EMConfig(K=2, assignment="hard", seed=4))
        assert np.all(np.sum(report.gamma == 1.0, axis=1) == 1)
        assert np.all(np.sum(report.gamma, axis=1) == 1.0)

    def test_hard_gamma_one_hot_at_every_iteration(self, monkeypatch):
        import snmix.mixture as mix

        seen = []
        original = mix.m_step

        def recording(data, gamma, *args, **kwargs):
            seen.append(np.asarray(gamma))
            return original(data, gamma, *args, **kwargs)

        monkeypatch.setattr(mix, "m_step", recording)
        rng = np.random.default_rng(51)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (60, 60))
        mix.fit_em(pts, EMConfig(K=2, assignment="hard", seed=4))
        assert len(seen) >= 2
        for gamma in seen:
            assert np.all(np.sum(gamma == 1.0, axis=1) == 1)
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
            tuple(reversed(init.components)),
            init.weights[::-1].copy(),
            init.concentration_mode,
        )
        a = fit_em(pts, cfg, init_model=init)
        b = fit_em(pts, cfg, init_model=flipped)
        np.testing.assert_array_equal(a.gamma, b.gamma[:, ::-1])
        np.testing.assert_array_equal(a.model.weights, b.model.weights[::-1])
        for ca, cb in zip(a.model.components, reversed(b.model.components)):
            assert np.array_equal(ca.mu.coords, cb.mu.coords)

    def test_kmeans_limit_matches_nearest_center(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            p = int(rng.integers(1, 6))
            mus = unitize(rng.standard_normal((k, p + 1)))
            weights = rng.dirichlet(np.full(k, 3.0))
            model = MixtureModel(
                tuple(SNParams(m, 1e6) for m in mus), weights, "homogeneous"
            )
            x = unitize(rng.standard_normal((200, p + 1)))
            gamma = e_step(x, model)
            nearest = np.argmin(geodesic_distance(x[:, None, :], mus[None]), axis=1)
            assert np.array_equal(np.argmax(gamma, axis=1), nearest)

    def test_one_posterior_pass_per_sweep(self, monkeypatch):
        import snmix.mixture as mix

        calls = []
        original = mix._log_joint

        def counting(x, model):
            calls.append(None)
            return original(x, model)

        monkeypatch.setattr(mix, "_log_joint", counting)
        rng = np.random.default_rng(19)
        pts, _, _ = separated_sample(rng, 2, (18.0, 9.0), (90, 110))
        # one run to max_iter, one to the gamma stop rule
        for max_iter, converged in ((5, False), (200, True)):
            cfg = EMConfig(K=2, seed=4, max_iter=max_iter)
            calls.clear()
            report = fit_em(pts, cfg)
            assert (report.converged, report.reseeds) == (converged, 0)
            # the initial pass, one per M-step, and the polish
            assert len(calls) == report.iterations + 2
            assert report.loglik_trace[-1] == log_likelihood(pts, report.model)
            np.testing.assert_array_equal(report.gamma, e_step(pts, report.model))

    def test_one_frechet_solve_per_m_step(self, monkeypatch):
        import snmix.mixture as mix

        calls = []
        original = mix._frechet_columns

        def counting(points, W, cfg):
            calls.append(W.shape[1])
            return original(points, W, cfg)

        monkeypatch.setattr(mix, "_frechet_columns", counting)
        rng = np.random.default_rng(23)
        pts, labels, _ = separated_sample(rng, 3, (20.0, 12.0, 30.0, 16.0), (50, 60, 40, 70))
        m_step(pts, np.eye(4)[labels - 1])
        assert calls == [4]
        calls.clear()
        report = fit_em(pts, EMConfig(K=4, seed=1))
        # one per sweep and one for the polish
        assert calls == [4] * (report.iterations + 1)

    def test_antipodal_data_rejected(self):
        pts = np.repeat([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], 10, axis=0)
        with pytest.raises(ValueError, match="antipod"):
            fit_em(pts, EMConfig(K=2))

    def test_reseeds_recover_dead_components(self):
        # a far-away initial component gets no mass and must be recovered
        rng = np.random.default_rng(43)
        pts, _, mus = separated_sample(rng, 2, (40.0, 40.0), (60, 60))
        dead = SNParams(unitize(-(mus[0] + mus[1])), 1e6)
        init = MixtureModel(
            (SNParams(mus[0], 40.0), SNParams(mus[1], 40.0), dead),
            np.array([0.45, 0.45, 0.10]),
        )
        report = fit_em(pts, EMConfig(K=3, seed=0), init_model=init)
        assert report.reseeds >= 1
        assert np.all(report.gamma.sum(axis=0) > 0.0)


def per_cluster_init(x, cfg, seed):
    """Reference: the k-means initializer written one cluster at a time.

    Returns (locations, concentrations, weights).
    """
    labels = kmeans(x, cfg.K, seed=seed)
    conc = replace(cfg.concentration, epsilon=max(cfg.concentration.epsilon, 1e-6))
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
        lams = np.full(cfg.K, concentration_mle(pooled, p, conc))
    else:
        lams = np.array([concentration_mle(d, p, conc) for d in dispersions])
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
        np.testing.assert_allclose(model.locations(), mus, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(model.concentrations(), lams, rtol=1e-10, atol=0.0)
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
        np.testing.assert_array_equal(model.locations()[0], x[0])


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


class TestInformationCriteria:
    def make_report(self, model, loglik):
        gamma = np.ones((10, model.K)) / model.K
        return EMReport(model, gamma, (loglik,), 1, True)

    def test_heterogeneous_parameter_count(self):
        model = MixtureModel(
            tuple(SNParams(m, 5.0) for m in np.eye(3)),
            np.array([0.3, 0.3, 0.4]),
        )
        assert parameter_count(model) == 11  # (p + 2) K - 1 at p=2, K=3

    def test_k1_criteria_values(self):
        model = MixtureModel((SNParams(np.array([0.0, 0.0, 1.0]), 5.0),), np.array([1.0]))
        assert parameter_count(model) == 3
        crit = information_criteria(self.make_report(model, -100.0), 50)
        assert crit["aic"] == pytest.approx(206.0)
        assert crit["bic"] == pytest.approx(200.0 + 3 * math.log(50))
        assert crit["hqic"] == pytest.approx(200.0 + 6 * math.log(math.log(50)))
        assert crit["aicc"] == pytest.approx(206.0 + 2 * 3 * 4 / (50 - 4))

    def test_homogeneous_parameter_count(self):
        model = MixtureModel(
            tuple(SNParams(m, 5.0) for m in np.eye(3)),
            np.array([0.3, 0.3, 0.4]),
            "homogeneous",
        )
        assert parameter_count(model) == 9  # (p + 1) K at p=2, K=3

    def test_aicc_undefined_for_tiny_samples(self):
        model = MixtureModel((SNParams(np.array([0.0, 0.0, 1.0]), 5.0),), np.array([1.0]))
        assert information_criteria(self.make_report(model, -5.0), 4)["aicc"] is None


class TestSampleMixture:
    def test_degenerate_weight_draws_single_component(self):
        model = two_component_model(w1=1.0)
        pts, labels = sample_mixture(model, 200, 3)
        assert np.all(labels == 1)
        assert np.max(geodesic_distance(pts, model.components[0].mu)) < math.pi

    def test_label_proportions(self):
        model = two_component_model(lam1=50.0, lam2=50.0, w1=0.25)
        _, labels = sample_mixture(model, 40_000, 11)
        assert np.mean(labels == 1) == pytest.approx(0.25, abs=0.01)
