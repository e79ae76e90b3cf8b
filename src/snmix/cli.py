"""Command-line interface: fit, cluster, sample, simulate, and bench."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import io as dataio
from . import simulate
from .distribution import SNParams, sample as sn_sample
from .estimation import ConcentrationConfig, FrechetConfig, fit_sn
from .metrics import kmeans, spherical_kmeans
from .mixture import EMConfig, fit_em, information_criteria, sample_mixture

_SN_ALGORITHMS = {
    "sn-soft": "soft",
    "sn-hard": "hard",
    "sn-stochastic": "stochastic",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snmix",
        description="Spherical normal distributions on the unit hypersphere: "
        "fitting, sampling, and mixture-model clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_input=True):
        if need_input:
            p.add_argument("--input", required=True, help="input CSV of ambient coordinates")
            p.add_argument(
                "--normalize", action="store_true", help="L2-normalize every input row"
            )
            p.add_argument(
                "--has-header", action="store_true", help="skip one header line in the input"
            )
        p.add_argument("--output", help="output path (or prefix for multi-file commands)")

    fit = sub.add_parser("fit", help="maximum likelihood fit of one component")
    add_io(fit)
    fit.add_argument("--step-rule", choices=["fixed", "line-search"], default="fixed")
    fit.add_argument("--method", choices=["newton", "halley"], default=ConcentrationConfig.method)
    fit.add_argument("--eps", type=float, default=1e-8, help="stopping tolerance")
    fit.add_argument("--max-iter", type=int, default=500)
    fit.set_defaults(func=_cmd_fit)

    cluster = sub.add_parser("cluster", help="mixture-model or baseline clustering")
    add_io(cluster)
    cluster.add_argument("-K", "--clusters", dest="K", type=int, required=True)
    cluster.add_argument(
        "--algorithm",
        choices=sorted(_SN_ALGORITHMS) + ["kmeans", "spkmeans"],
        default="sn-soft",
    )
    cluster.add_argument("--concentration", choices=["hetero", "homo"], default="hetero")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--eps", type=float, default=1e-8, help="inner solver tolerance")
    cluster.add_argument("--eps-gamma", type=float, default=1e-6, help="membership stall tolerance")
    cluster.add_argument("--max-iter", type=int, default=200)
    cluster.set_defaults(func=_cmd_cluster)

    samp = sub.add_parser("sample", help="draw observations from a component or a model")
    samp.add_argument("--model", help="mixture model JSON to sample from")
    samp.add_argument("--mu", help="comma-separated location, e.g. 0,0,1")
    samp.add_argument("--lambda", dest="lam", type=float, help="concentration")
    samp.add_argument("-n", "--count", dest="n", type=int, required=True)
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--output", help="output CSV (stdout when omitted)")
    samp.set_defaults(func=_cmd_sample)

    sim = sub.add_parser("simulate", help="generate a benchmark dataset with labels")
    sim.add_argument("--scenario", choices=["small-mix", "large-mix"], required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", required=True, help="prefix for .data.csv and .labels.txt")
    sim.set_defaults(func=_cmd_simulate)

    bench = sub.add_parser("bench", help="estimation accuracy/timing sweep")
    bench.add_argument("--what", choices=["location", "concentration", "both"], default="both")
    bench.add_argument("--dims", default="5,10,20", help="comma-separated sphere dimensions")
    bench.add_argument("--lambdas", help="comma-separated concentrations (defaults per --what)")
    bench.add_argument("--sizes", default="50,100,150,200", help="comma-separated sample sizes")
    bench.add_argument("--reps", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--eps", type=float, default=1e-8)
    bench.add_argument("--output", help="output CSV (stdout when omitted)")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _cmd_fit(args) -> int:
    x = dataio.load_csv(args.input, normalize=args.normalize, has_header=args.has_header)
    frechet_cfg = FrechetConfig(
        step_rule=args.step_rule.replace("-", "_"), epsilon=args.eps, max_iter=args.max_iter
    )
    conc_cfg = ConcentrationConfig(method=args.method, epsilon=args.eps)
    t0 = time.perf_counter()
    result = fit_sn(x, frechet_cfg=frechet_cfg, conc_cfg=conc_cfg)
    elapsed = time.perf_counter() - t0
    doc = {
        "mu": [float(v) for v in result.params.mu.coords],
        "lambda": result.params.lam,
        "dispersion": result.dispersion,
        "iterations_mu": result.iterations_mu,
        "iterations_lambda": result.iterations_lambda,
        "converged": result.converged,
        "support_ok": result.support_ok,
        "n": len(x),
        "p": x.shape[1] - 1,
        "timing_seconds": elapsed,
    }
    print(json.dumps(doc, indent=2))
    if args.output:
        dataio._write_json(args.output, doc)
    return 0


def _cmd_cluster(args) -> int:
    x = dataio.load_csv(args.input, normalize=args.normalize, has_header=args.has_header)
    t0 = time.perf_counter()
    if args.algorithm in ("kmeans", "spkmeans"):
        cluster_fn = kmeans if args.algorithm == "kmeans" else spherical_kmeans
        labels = cluster_fn(x, args.K, seed=args.seed)
        elapsed = time.perf_counter() - t0
        print(f"{args.algorithm}: K={args.K} labels for {len(x)} observations")
        if args.output:
            dataio.save_labels(f"{args.output}.labels.txt", labels)
            doc = {"algorithm": args.algorithm, "K": args.K, "seed": args.seed, "n": len(x),
                   "timing_seconds": elapsed}
            dataio._write_json(f"{args.output}.report.json", doc)
        return 0

    assignment = _SN_ALGORITHMS[args.algorithm]
    cfg = EMConfig(
        K=args.K,
        assignment=assignment,
        concentration_mode="heterogeneous" if args.concentration == "hetero" else "homogeneous",
        epsilon_gamma=args.eps_gamma,
        max_iter=args.max_iter,
        seed=args.seed,
        frechet=FrechetConfig(epsilon=args.eps),
        concentration=ConcentrationConfig(epsilon=args.eps),
    )
    report = fit_em(x, cfg)
    elapsed = time.perf_counter() - t0
    labels = np.argmax(report.gamma, axis=1) + 1
    criteria = information_criteria(report, len(x))
    print(
        f"sn-{assignment}: K={args.K} loglik={report.loglik_trace[-1]:.6f} "
        f"iterations={report.iterations} converged={report.converged}"
    )
    if args.output:
        dataio.save_labels(f"{args.output}.labels.txt", labels)
        dataio.save_model(f"{args.output}.model.json", report.model)
        dataio.save_report(
            f"{args.output}.report.json",
            report,
            timing_seconds=elapsed,
            criteria=criteria,
            extra={"algorithm": f"sn-{assignment}", "seed": args.seed, "n": len(x)},
        )
    return 0


def _cmd_sample(args) -> int:
    if args.model:
        model = dataio.load_model(args.model)
        points, _ = sample_mixture(model, args.n, args.seed)
    else:
        if not args.mu or args.lam is None:
            raise ValueError("either --model or both --mu and --lambda are required")
        params = SNParams(np.asarray(_parse_floats(args.mu)), args.lam)
        points = sn_sample(params, args.n, args.seed)
    if args.output:
        dataio.save_points(args.output, points)
    else:
        dataio._write_points(sys.stdout, points)
    return 0


def _cmd_simulate(args) -> int:
    generator = simulate.small_mix if args.scenario == "small-mix" else simulate.large_mix
    points, labels = generator(seed=args.seed)
    dataio.save_points(f"{args.output}.data.csv", points)
    dataio.save_labels(f"{args.output}.labels.txt", labels)
    print(f"{args.scenario}: wrote {len(labels)} labeled observations to {args.output}.*")
    return 0


def _cmd_bench(args) -> int:
    if args.lambdas is not None:  # an empty list is the benchmark's error to report
        lambdas = _parse_floats(args.lambdas)
    else:
        lambdas = {
            "location": [5.0, 10.0, 50.0],
            "concentration": [1.0, 5.0, 10.0, 20.0],
            "both": [1.0, 5.0, 10.0, 20.0, 50.0],
        }[args.what]
    rows = simulate.estimation_benchmark(
        dims=[int(v) for v in args.dims.split(",")],
        lambdas=lambdas,
        sizes=[int(v) for v in args.sizes.split(",")],
        reps=args.reps,
        seed=args.seed,
        what=args.what,
        eps=args.eps,
    )
    fieldnames = list(rows[0].keys())
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    finally:
        if args.output:
            out.close()
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
