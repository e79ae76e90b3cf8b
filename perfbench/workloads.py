"""The three benchmark workloads.

Each workload turns the run seed into its inputs (``generate``), runs one
timed pass through the package (``run_pass``), and checks a pass's outputs
outside the timed region (``check``). Every call into the package goes
through a module attribute (``mixture.fit_em``, ``cli.main``, ...), so the
tracer's wrappers see it when they are installed.

Checks come from the acceptance criteria's own invariants, never from
golden digests, because later changes may reorder floating-point work.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import statistics
import traceback
from time import perf_counter as _clock

import numpy as np

from snmix import cli, distribution, estimation, metrics, mixture, simulate
from snmix import io as dataio

from spans import polish_dip

ASCENT_SLACK = 1e-8      # criterion 6: soft-EM log-likelihood may not drop by more
MIN_RAND_K3 = 0.95       # criterion 8: Rand index of every K=3 large-mix fit
MIN_SELECTED = 0.8       # criterion 11: BIC and HQIC each pick K=3 in >= 8 of 10 datasets
LAMBDA_AGREE = 1e-6      # fit-sweep: the two solver configurations agree on lambda
UNIT_TOL = 1e-10         # fitted locations are unit vectors


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _em_record(pass_index, assignment, k, sweeps, converged, reseeds, trace, wall_s):
    return {
        "pass": pass_index,
        "K": k,
        "assignment": assignment,
        "sweeps": int(sweeps),
        "converged": bool(converged),
        "reseeds": int(reseeds),
        "loglik": float(trace[-1]),
        "polish_dip": assignment == "soft" and polish_dip(trace),
        "wall_s": wall_s,
        "ok": True,
        "problems": [],
    }


def _check_ascent(record, trace) -> None:
    """Soft EM may not lose log-likelihood across sweeps (the polish entry is excluded)."""
    if record["assignment"] == "soft":
        drops = np.diff(np.asarray(trace[:-1], dtype=float))
        if drops.size and float(drops.min()) < -ASCENT_SLACK:
            record["problems"].append(f"log-likelihood dropped by {-float(drops.min()):.3g}")


def _failed_record(pass_index, assignment, k, wall_s, problem):
    return {
        "pass": pass_index,
        "K": k,
        "assignment": assignment,
        "wall_s": wall_s,
        "ok": False,
        "problems": [problem],
    }


class LargeMixCli:
    """``snmix cluster`` on simulate.large_mix (N=3000 on S^3), in-process."""

    name = "large-mix-cli"
    CYCLE = 1
    CONFIGS = tuple((alg, k) for alg in ("sn-soft", "sn-hard") for k in (2, 3, 4))

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.csv = str(workdir / "large_mix.data.csv")

    def generate(self) -> None:
        self.points, self.truth = simulate.large_mix(seed=self.seed)
        dataio.save_points(self.csv, self.points)

    def _prefix(self, alg, k) -> str:
        return str(self.workdir / f"{alg}-K{k}")

    def run_pass(self, pass_index: int) -> list:
        out = []
        for alg, k in self.CONFIGS:
            argv = ["cluster", "--input", self.csv, "-K", str(k), "--algorithm", alg,
                    "--seed", str(self.seed), "--output", self._prefix(alg, k)]
            sink = stdio.StringIO()
            t0 = _clock()
            try:
                with contextlib.redirect_stdout(sink):
                    status = cli.main(argv)
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                status, error = None, _error(exc)
            out.append((alg, k, status, error, _clock() - t0))
        return out

    def check(self, pass_index: int, raw) -> list:
        records = []
        n = len(self.truth)
        for alg, k, status, error, wall_s in raw:
            assignment = alg[3:]
            if error is not None or status != 0:
                records.append(_failed_record(pass_index, assignment, k, wall_s,
                                              error or f"exit status {status}"))
                continue
            prefix = self._prefix(alg, k)
            with open(f"{prefix}.report.json") as fh:
                report = json.load(fh)
            trace = report["loglik_trace"]
            rec = _em_record(pass_index, assignment, k, report["iterations"], report["converged"],
                             report["reseeds"], trace, wall_s)
            rec["input"] = f"{alg} K={k}"
            labels = dataio.load_labels(f"{prefix}.labels.txt")
            if labels.shape != (n,) or labels.min() < 1 or labels.max() > k:
                rec["problems"].append(f"labels file is not {n} lines in 1..{k}")
            else:
                rec["rand"] = metrics.rand_index(self.truth, labels)
                if k == 3 and rec["rand"] < MIN_RAND_K3:
                    rec["problems"].append(f"K=3 Rand index {rec['rand']:.4f} < {MIN_RAND_K3}")
            try:
                if dataio.load_model(f"{prefix}.model.json").K != k:
                    rec["problems"].append("model JSON has the wrong K")
            except (ValueError, KeyError) as exc:
                rec["problems"].append(f"model JSON does not reload: {exc}")
            _check_ascent(rec, trace)
            rec["ok"] = not rec["problems"]
            records.append(rec)
        return records

    def summary(self, records) -> tuple:
        k3 = [r["rand"] for r in records if r["K"] == 3 and "rand" in r]
        quality = {"rand_k3": (statistics.fmean(k3) if k3 else math.nan, "index")}
        return quality, []


class HouseholdSelect:
    """Soft EM at K=2..5 on household_mix (N=260 on S^2), K picked by BIC and HQIC.

    Run seed s covers the ten datasets household_mix(seed=s .. s+9), so seed 1
    is the criterion-11 grid; pass i fits dataset i mod 10 with EM seeded by
    the data seed, as criterion 11 does.
    """

    name = "household-select"
    KS = (2, 3, 4, 5)
    DATASETS = 10
    CYCLE = DATASETS   # runs fit every dataset equally often

    def __init__(self, seed: int, workdir) -> None:
        self.data_seeds = [seed + j for j in range(self.DATASETS)]

    def generate(self) -> None:
        self.data = [simulate.household_mix(seed=s) for s in self.data_seeds]

    def run_pass(self, pass_index: int) -> list:
        d = pass_index % self.DATASETS
        x = self.data[d][0]
        out = []
        for k in self.KS:
            cfg = mixture.EMConfig(K=k, assignment="soft", seed=self.data_seeds[d])
            t0 = _clock()
            try:
                report = mixture.fit_em(x, cfg)
                result, error = (report, mixture.information_criteria(report, len(x))), None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, _error(exc)
            out.append((k, result, error, _clock() - t0))
        return out

    def check(self, pass_index: int, raw) -> list:
        d = pass_index % self.DATASETS
        truth = self.data[d][1]
        records = []
        for k, result, error, wall_s in raw:
            if error is not None:
                records.append(_failed_record(pass_index, "soft", k, wall_s, error))
                continue
            report, crit = result
            rec = _em_record(pass_index, "soft", k, report.iterations, report.converged,
                             report.reseeds, report.loglik_trace, wall_s)
            rec["data_seed"] = self.data_seeds[d]
            rec["input"] = f"household_mix({self.data_seeds[d]}) K={k}"
            rec["rand"] = metrics.rand_index(truth, np.argmax(report.gamma, axis=1) + 1)
            rec["bic"], rec["hqic"] = crit["bic"], crit["hqic"]
            _check_ascent(rec, report.loglik_trace)
            rec["ok"] = not rec["problems"]
            records.append(rec)
        return records

    def summary(self, records) -> tuple:
        by_pass: dict = {}
        for r in records:
            if "bic" in r:
                by_pass.setdefault((r["pass"], r["data_seed"]), {})[r["K"]] = r
        picks = {}  # data seed -> (K picked by BIC, K picked by HQIC), first complete pass
        for (_, data_seed), fits in sorted(by_pass.items()):
            if len(fits) == len(self.KS) and data_seed not in picks:
                picks[data_seed] = tuple(min(fits, key=lambda k: fits[k][c])
                                         for c in ("bic", "hqic"))
        picks = list(picks.values())
        k3 = [r["rand"] for r in records if r["K"] == 3 and "rand" in r]
        both = sum(b == 3 and h == 3 for b, h in picks)
        quality = {
            "rand_k3": (statistics.fmean(k3) if k3 else math.nan, "index"),
            "k3_selected_frac": (both / len(picks) if picks else math.nan, "fraction"),
        }
        checks = []
        for i, crit in enumerate(("BIC", "HQIC")):
            hits = sum(p[i] == 3 for p in picks)
            ok = bool(picks) and hits >= MIN_SELECTED * len(picks)
            checks.append((f"{crit} picks K=3 in {hits}/{len(picks)} datasets "
                           f"(need >= {MIN_SELECTED:.0%})", ok))
        return quality, checks


class FitSweep:
    """sample + fit_sn over the paper's grid of (p, lambda, n), two solver configurations."""

    name = "fit-sweep"
    CYCLE = 1
    DIMS = (5, 10, 20)
    LAMBDAS = (1.0, 5.0, 10.0, 20.0, 50.0)
    SIZES = (50, 200)

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.cells = [(p, lam, n) for p in self.DIMS for lam in self.LAMBDAS for n in self.SIZES]

    def generate(self) -> None:
        self.params = []
        for p, lam, _ in self.cells:
            mu = np.zeros(p + 1)
            mu[-1] = 1.0
            self.params.append(distribution.SNParams(mu, lam))
        self.alt = (estimation.FrechetConfig(step_rule="line_search"),
                    estimation.ConcentrationConfig(method="halley"))

    def run_pass(self, pass_index: int) -> list:
        out = []
        for c, (_, _, n) in enumerate(self.cells):
            rng = np.random.default_rng([self.seed, pass_index, c])
            t0 = _clock()
            try:
                x = distribution.sample(self.params[c], n, rng)
                t1 = _clock()
                default = estimation.fit_sn(x)
                t2 = _clock()
                alt = estimation.fit_sn(x, frechet_cfg=self.alt[0], conc_cfg=self.alt[1])
                t3 = _clock()
                out.append((c, (default, alt), None, (t1 - t0, t2 - t1, t3 - t2)))
            except Exception as exc:  # an operation that raises counts as failed
                out.append((c, None, _error(exc), (_clock() - t0, 0.0, 0.0)))
        return out

    def check(self, pass_index: int, raw) -> list:
        records = []
        for c, fits, error, (sample_s, *fit_s) in raw:
            p, lam0, n = self.cells[c]
            base = {"pass": pass_index, "p": p, "lambda": lam0, "n": n, "sample_s": sample_s}
            if error is not None:
                records += [dict(base, config=cfg, input=f"pass {pass_index} cell {c} {cfg}",
                                 ok=False, problems=[error]) for cfg in ("default", "alt")]
                continue
            problems = []
            lams = [f.params.lam for f in fits]
            if abs(lams[0] - lams[1]) > LAMBDA_AGREE * lams[0]:
                problems.append(f"lambda disagrees: {lams[0]!r} vs {lams[1]!r}")
            for cfg, fit, wall_s in zip(("default", "alt"), fits, fit_s):
                mine = list(problems)
                if abs(float(np.linalg.norm(fit.params.mu.coords)) - 1.0) > UNIT_TOL:
                    mine.append("location is not a unit vector")
                records.append(dict(base, config=cfg, input=f"pass {pass_index} cell {c} {cfg}",
                                    wall_s=wall_s, lam=fit.params.lam,
                                    sweeps=fit.iterations_mu, iterations_lambda=fit.iterations_lambda,
                                    converged=fit.converged, ok=not mine, problems=mine))
        return records

    def summary(self, records) -> tuple:
        relerr = [abs(r["lam"] - r["lambda"]) / r["lambda"]
                  for r in records if r["config"] == "default" and "lam" in r]
        value = statistics.median(relerr) if relerr else math.nan
        # A fit reporting converged=False is counted, not failed, when it still
        # agrees with the other configuration: the Armijo line search gives up
        # once rounding hides the decrease, with the gradient norm near 1e-8.
        stalls = sum(not r.get("converged", True) for r in records)
        return {"lambda_relerr_p50": (value, "fraction"), "unconverged_fits": (stalls, "count")}, []


WORKLOADS = {w.name: w for w in (LargeMixCli, HouseholdSelect, FitSweep)}
