"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time

import numpy as np
from scipy.special import erf, gammaln

import snmix
from snmix import simulate
from snmix.distribution import SNParams, log_partition, sample
from snmix.estimation import ConcentrationConfig, FrechetConfig, concentration_mle, fit_sn
from snmix.geometry import (
    batch_exp,
    batch_log,
    batch_project,
    geodesic_distance,
    unitize,
)
from snmix.metrics import jaccard_index, nmi, rand_index
from snmix.mixture import EMConfig, MixtureModel, e_step, fit_em, information_criteria


def _report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {number:2d} ({name}): {status} — {detail} [{elapsed:.2f}s / {budget:.0f}s]"
    )
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_partition_oracle():
    t0 = time.perf_counter()
    worst_cf = 0.0
    for lam in (0.5, 1.0, 5.0, 10.0, 50.0):
        closed = math.log(math.sqrt(2.0 * math.pi / lam) * erf(math.pi * math.sqrt(lam / 2.0)))
        worst_cf = max(worst_cf, abs(log_partition(1, lam) - closed))
    worst_vol = 0.0
    for p in range(1, 7):
        volume = math.log(2.0) + ((p + 1) / 2.0) * math.log(math.pi) - float(gammaln((p + 1) / 2.0))
        worst_vol = max(worst_vol, abs(log_partition(p, 0.0) - volume))
    elapsed = time.perf_counter() - t0
    ok = worst_cf < 1e-8 and worst_vol < 1e-9
    _report(1, "partition oracle", ok,
            f"closed-form err {worst_cf:.2e} (tol 1e-8), hypervolume err {worst_vol:.2e} (tol 1e-9)",
            elapsed, 1.0)


def test_criterion_02_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_dist = worst_vec = worst_tan = worst_norm = 0.0
    for dim in (2, 3, 4, 6, 11):
        n = 2000
        x = unitize(rng.standard_normal((n, dim)))
        u = unitize(batch_project(x, rng.standard_normal((n, dim))))
        u = u * rng.uniform(0.0, np.pi - 0.01, size=(n, 1))
        y = batch_exp(x, u)
        worst_dist = max(worst_dist, float(np.max(np.abs(
            geodesic_distance(y, x) - np.linalg.norm(u, axis=1)))))
        worst_vec = max(worst_vec, float(np.max(np.abs(batch_log(x, y) - u))))
        z = unitize(rng.standard_normal((n, dim)))
        logs = batch_log(x, z)
        worst_tan = max(worst_tan, float(np.max(np.abs(np.sum(x * logs, axis=1)))))
        worst_norm = max(worst_norm, float(np.max(np.abs(
            np.linalg.norm(logs, axis=1) - geodesic_distance(x, z)))))
    elapsed = time.perf_counter() - t0
    ok = worst_dist < 1e-9 and worst_vec < 1e-8 and worst_tan < 1e-10 and worst_norm < 1e-12
    _report(2, "geometry suite", ok,
            f"1e4 instances: round-trip dist {worst_dist:.1e}, vec {worst_vec:.1e}, "
            f"tangency {worst_tan:.1e}, |Log|=d {worst_norm:.1e}",
            elapsed, 5.0)


def test_criterion_03_location_estimation():
    t0 = time.perf_counter()
    mu0 = np.zeros(6)
    mu0[-1] = 1.0
    medians = {}
    for n in (50, 200):
        errors = []
        for rep in range(20):
            rng = np.random.default_rng(100 + rep)
            x = sample(SNParams(mu0, 10.0), n, rng)
            mu_hat = snmix.weighted_frechet_mean(x)
            errors.append(float(np.linalg.norm(mu_hat.coords - mu0)))
        medians[n] = float(np.median(errors))
    elapsed = time.perf_counter() - t0
    ok = 0.017 <= medians[200] <= 0.068 and medians[200] < medians[50]
    _report(3, "location estimation", ok,
            f"median |mu_hat - mu0| at n=200: {medians[200]:.4f} in [0.017, 0.068]; "
            f"n=50: {medians[50]:.4f}",
            elapsed, 30.0)


def test_criterion_04_concentration_estimation():
    t0 = time.perf_counter()
    # Newton vs Halley across the benchmark grid
    worst_gap = 0.0
    for p, lam0, n in itertools.product((5, 10, 20), (1.0, 5.0, 10.0, 20.0), (50, 200)):
        for rep in range(5):
            rng = np.random.default_rng([7, p, int(lam0), n, rep])
            mu0 = np.zeros(p + 1)
            mu0[-1] = 1.0
            x = sample(SNParams(mu0, lam0), n, rng)
            mu_hat = snmix.weighted_frechet_mean(x)
            dispersion = 0.5 * float(np.mean(np.square(geodesic_distance(x, mu_hat.coords))))
            newton = concentration_mle(dispersion, p, ConcentrationConfig(method="newton"))
            halley = concentration_mle(dispersion, p, ConcentrationConfig(method="halley"))
            worst_gap = max(worst_gap, abs(newton - halley))
    # accuracy at p=5, lam=10, n=200
    mu0 = np.zeros(6)
    mu0[-1] = 1.0
    rel_errors = []
    for rep in range(20):
        rng = np.random.default_rng(300 + rep)
        x = sample(SNParams(mu0, 10.0), 200, rng)
        rel_errors.append(abs(fit_sn(x).params.lam - 10.0) / 10.0)
    median_rel = float(np.median(rel_errors))
    # stationarity oracle on the p=1 closed form
    lam = 10.0
    u = math.pi * math.sqrt(lam / 2.0)
    dispersion = 0.5 / lam - math.sqrt(math.pi / (2.0 * lam)) * math.exp(-u * u) / erf(u)
    oracle_err = abs(concentration_mle(dispersion, 1) - 10.0)
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and median_rel < 0.10 and oracle_err < 1e-6
    _report(4, "concentration estimation", ok,
            f"max Newton-Halley gap {worst_gap:.1e} (tol 1e-6); median rel err {median_rel:.4f} "
            f"(tol 0.10); oracle err {oracle_err:.1e} (tol 1e-6)",
            elapsed, 60.0)


def test_criterion_05_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(5, 40))
        center = unitize(rng.standard_normal(dim))
        pts = unitize(center + 0.7 * rng.standard_normal((n, dim)))
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        mu = unitize(center + 0.3 * rng.standard_normal(dim))
        grad = -2.0 * (w @ batch_log(mu, pts))

        def value(point):
            return float(np.sum(w * np.square(geodesic_distance(pts, point))))

        direction = unitize(batch_project(mu, rng.standard_normal(dim)))
        t = 1e-5
        fd = (value(batch_exp(mu, t * direction)) - value(batch_exp(mu, -t * direction))) / (2 * t)
        exact = float(grad @ direction)
        worst = max(worst, abs(fd - exact) / max(1e-8, abs(exact)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5
    _report(5, "gradient correctness", ok,
            f"max relative error vs central differences {worst:.2e} (tol 1e-5)",
            elapsed, 5.0)


def _random_soft_em_problem(rng, case):
    k = int(rng.integers(1, 5))
    p = int(rng.integers(2, 6))
    n = int(rng.integers(100, 501))
    mus = []
    while len(mus) < k:
        cand = unitize(rng.standard_normal(p + 1))
        if all(geodesic_distance(cand, m) > 0.8 for m in mus):
            mus.append(cand)
    lams = rng.uniform(8.0, 60.0, k)
    share = rng.dirichlet(np.full(k, 5.0))
    counts = np.maximum((share * n).astype(int), 8)
    pts = np.vstack([sample(SNParams(m, l), int(c), rng) for m, l, c in zip(mus, lams, counts)])
    mode = "heterogeneous" if case % 2 == 0 else "homogeneous"
    return pts, k, mode


def test_criterion_06_em_ascent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_dip = 0.0
    for case in range(50):
        pts, k, mode = _random_soft_em_problem(rng, case)
        report = fit_em(pts, EMConfig(K=k, assignment="soft", concentration_mode=mode, seed=case))
        worst_dip = min(worst_dip, float(np.min(np.diff(report.loglik_trace))))
    elapsed = time.perf_counter() - t0
    ok = worst_dip >= -1e-8
    _report(6, "EM ascent", ok,
            f"50 soft runs, worst log-likelihood decrease {worst_dip:.2e} (slack 1e-8)",
            elapsed, 120.0)


def test_criterion_07_small_mix_clustering():
    t0 = time.perf_counter()
    scores = []
    for seed in range(1, 11):
        x, truth = simulate.small_mix(seed=seed)
        report = fit_em(x, EMConfig(K=2, assignment="soft", seed=seed))
        labels = np.argmax(report.gamma, axis=1) + 1
        scores.append(
            (rand_index(truth, labels), jaccard_index(truth, labels), nmi(truth, labels))
        )
    means = np.asarray(scores).mean(axis=0)
    elapsed = time.perf_counter() - t0
    ok = means[0] >= 0.95 and means[1] >= 0.95 and means[2] >= 0.90
    _report(7, "small-mix clustering", ok,
            f"mean Rand {means[0]:.4f} (>=0.95), Jaccard {means[1]:.4f} (>=0.95), "
            f"NMI {means[2]:.4f} (>=0.90)",
            elapsed, 30.0)


def test_criterion_08_large_mix_clustering():
    t0 = time.perf_counter()
    means = {}
    for assignment in ("soft", "hard"):
        for k in (2, 3, 4):
            values = []
            for seed in range(1, 11):
                x, truth = simulate.large_mix(seed=seed)
                report = fit_em(x, EMConfig(K=k, assignment=assignment, seed=seed))
                labels = np.argmax(report.gamma, axis=1) + 1
                values.append(rand_index(truth, labels))
            means[(assignment, k)] = float(np.mean(values))
    elapsed = time.perf_counter() - t0
    ok = all(means[(a, 3)] >= 0.95 for a in ("soft", "hard")) and all(
        means[(a, 3)] > means[(a, 2)] and means[(a, 3)] > means[(a, 4)]
        for a in ("soft", "hard")
    )
    detail = ", ".join(f"{a}/K={k}: {v:.4f}" for (a, k), v in sorted(means.items()))
    _report(8, "large-mix clustering", ok, detail, elapsed, 180.0)


def test_criterion_09_kmeans_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    exact = True
    for _ in range(20):
        k = int(rng.integers(2, 6))
        p = int(rng.integers(1, 6))
        mus = unitize(rng.standard_normal((k, p + 1)))
        weights = rng.dirichlet(np.full(k, 3.0))
        model = MixtureModel(mus, np.full(k, 1e6), weights, "homogeneous")
        x = unitize(rng.standard_normal((250, p + 1)))
        gamma = e_step(x, model)
        nearest = np.argmin(geodesic_distance(x[:, None, :], mus[None]), axis=1)
        exact &= bool(np.array_equal(np.argmax(gamma, axis=1), nearest))
    elapsed = time.perf_counter() - t0
    _report(9, "k-means limit", exact,
            "E-step argmax equals geodesic nearest-center on 20 instances (exact)",
            elapsed, 30.0)


def test_criterion_10_index_correctness():
    t0 = time.perf_counter()
    from test_metrics import brute_force_jaccard, brute_force_rand

    rng = np.random.default_rng(10)
    worst = 0.0
    invariant = True
    for _ in range(200):
        n = int(rng.integers(2, 201))
        a = rng.integers(1, int(rng.integers(2, 7)) + 1, size=n)
        b = rng.integers(1, int(rng.integers(2, 7)) + 1, size=n)
        worst = max(worst, abs(rand_index(a, b) - brute_force_rand(a, b)))
        worst = max(worst, abs(jaccard_index(a, b) - brute_force_jaccard(a, b)))
        shift = int(rng.integers(1, 50))
        b2 = b + shift  # relabeling
        invariant &= rand_index(a, b) == rand_index(a, b2)
        invariant &= jaccard_index(a, b) == jaccard_index(a, b2)
        invariant &= nmi(a, b) == nmi(a, b2)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and invariant
    _report(10, "index correctness", ok,
            f"max deviation from brute-force oracle {worst:.1e} (tol 1e-12); "
            f"permutation invariance exact: {invariant}",
            elapsed, 60.0)


def test_criterion_11_model_selection_pattern():
    t0 = time.perf_counter()
    bic_hits = hqic_hits = 0
    for seed in range(1, 11):
        x, _ = simulate.household_mix(seed=seed)
        bic, hqic = {}, {}
        for k in range(2, 6):
            report = fit_em(x, EMConfig(K=k, assignment="soft", seed=seed))
            crit = information_criteria(report, len(x))
            bic[k] = crit["bic"]
            hqic[k] = crit["hqic"]
        bic_hits += min(bic, key=bic.get) == 3
        hqic_hits += min(hqic, key=hqic.get) == 3
    elapsed = time.perf_counter() - t0
    ok = bic_hits >= 8 and hqic_hits >= 8
    _report(11, "model-selection pattern", ok,
            f"BIC minimized at K=3 in {bic_hits}/10 seeds, HQIC in {hqic_hits}/10 (need >= 8)",
            elapsed, 120.0)
