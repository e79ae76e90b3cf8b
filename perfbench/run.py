"""Benchmark runner for snmix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run times passes with nothing wrapped and
reports the end-to-end metrics. With ``--trace 1`` it alternates untraced
and traced passes on the same inputs and reports the per-layer metrics of
the traced ones. Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Per-fit records,
the environment and (traced) the spans go under ``.perfbench/results/``.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Closed loop on one core: pin BLAS before numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3   # set-up (generation and warm-up pass) is repeated and its median kept


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def import_package():
    """Import snmix from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import snmix

    if Path(snmix.__file__).resolve().parent != src / "snmix":
        raise ImportError(f"snmix was imported from {snmix.__file__}, not from {src}")
    return numpy, scipy


def environment(numpy, scipy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with ten passes
    beyond it, but never below the median, so runs of 20 or fewer passes give the median."""
    n = len(times)
    if n >= 21:
        return sorted(times)[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(times), 50.0, n // 2


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Run:
    """One benchmark run of one workload: set-up, the timed loop, results."""

    def __init__(self, args, workload_cls, workdir) -> None:
        self.args = args
        self.wl = workload_cls(args.seed, workdir)
        self.records: list = []
        self.checks: list = []

    def setup(self, import_s: float, tracer=None) -> dict:
        gen, warm = [], []
        for _ in range(SETUP_REPEATS):
            if tracer is None:
                gen.append(timed(self.wl.generate)[0])
            else:
                gen.append(tracer.timed("setup", self.wl.generate)[0])
            warm.append(timed(self.wl.run_pass, 0)[0])
        once = statistics.median(g + w for g, w in zip(gen, warm))
        return {"setup_s": import_s + once, "import_s": import_s,
                "generate_s": gen, "warmup_pass_s": warm}

    def one_pass(self, i: int, tracer=None) -> float:
        if tracer is None:
            seconds, raw = timed(self.wl.run_pass, i)
        else:
            seconds, raw = tracer.timed("pass", self.wl.run_pass, i)
        for rec in self.wl.check(i, raw):
            rec["traced"] = tracer is not None
            self.records.append(rec)
        return seconds

    def loop(self, tracer=None) -> tuple:
        """Whole cycles of passes until --seconds have elapsed, so every input of
        the workload is timed equally often; traced runs alternate the order of
        an untraced and a traced pass over the same inputs."""
        untraced, traced = [], []
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while i == 0 or i % self.wl.CYCLE or time.perf_counter() < deadline:
            if tracer is None:
                untraced.append(self.one_pass(i))
            else:
                for use in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                    (traced if use else untraced).append(self.one_pass(i, use))
            i += 1
        return untraced, traced

    def end_to_end(self, pass_times, setup) -> dict:
        busy = sum(pass_times)
        untraced = [r for r in self.records if not r["traced"]]
        fits = [r for r in untraced if r["ok"]]
        # repeated passes over one input repeat its fits, so each input counts once
        conv = list({r["input"]: r["converged"] for r in untraced if "converged" in r}.values())
        tail_s, tail_pct, beyond = tail(pass_times)
        return {
            "setup_s": (setup["setup_s"], "s"),
            "pass_s_p50": (statistics.median(pass_times), "s"),
            "pass_s_tail": (tail_s, "s"),
            "sweeps_per_s": (sum(r["sweeps"] for r in fits) / busy, "1/s"),
            "fits_per_s": (len(fits) / busy, "1/s"),
            "converged_frac": (sum(conv) / len(conv) if conv else float("nan"), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }, {"tail_percentile": tail_pct, "tail_beyond": beyond, "passes": len(pass_times)}

    def per_layer(self, tracer, untraced, traced, spec) -> dict:
        """Every per-layer metric of BENCHMARK.json, per traced pass. "x.calls" and
        "x.self_s" come from the spans named x, other names from the counters."""
        n = len(traced)
        passes = self.span_table = tracer.summary("pass")
        coverage = 1.0 - passes["pass"][1] / sum(traced)
        special = {
            # generation runs in set-up only, once per set-up repeat
            "simulate.generate.self_s":
                tracer.summary("setup").get("simulate.generate", (0, 0.0))[1] / SETUP_REPEATS,
            "trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "trace.coverage_frac": coverage,
        }
        out = {}
        for entry in spec["per_layer"]:
            name = entry["name"]
            span, _, kind = name.rpartition(".")
            if name in special:
                value = special[name]
            elif kind == "calls":
                value = passes.get(span, (0, 0.0))[0] / n
            elif kind == "self_s":
                value = passes.get(span, (0, 0.0))[1] / n
            else:
                value = tracer.count("pass", name) / n
            out[name] = (value, entry["unit"])
        direct = sum(bool(r.get("polish_dip")) for r in self.records if r["traced"])
        counted = tracer.count("pass", "mixture.polish_dips")
        self.checks += [
            (f"layer self times cover {coverage:.3f} of the traced pass time (need >= 0.9)",
             coverage >= 0.9),
            (f"mixture.polish_dips {counted:g} equals the direct count {direct} over traced passes",
             counted == direct),
        ]
        return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        numpy, scipy = import_package()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import snmix from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    workdir = base / f"work-{args.workload}-{os.getpid()}"
    results = base / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(args, WORKLOADS[args.workload], workdir)
    tracer = None
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        setup = run.setup(import_s, tracer)
        untraced, traced = run.loop(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, tail_info = run.end_to_end(untraced, setup)
    quality, run_checks = run.wl.summary(run.records)
    run.checks += run_checks
    attempted = len(run.records)
    failed = sum(not r["ok"] for r in run.records)
    extra = dict(quality, error_rate=(failed / attempted, "fraction"))
    dips = {r["input"]: r["polish_dip"] for r in run.records if "polish_dip" in r}
    if dips:
        extra["polish_dips"] = (sum(dips.values()), "count")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if set(e2e) != {m["name"] for m in spec["end_to_end"]}:
        raise RuntimeError("end-to-end metrics differ from BENCHMARK.json")
    reported = run.per_layer(tracer, untraced, traced, spec) if tracer else e2e
    correct = failed == 0 and all(ok for _, ok in run.checks)

    env = environment(numpy, scipy)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **extra, **reported}.items()},
        "setup": setup, "tail": tail_info, "checks": [{"check": c, "ok": ok} for c, ok in run.checks],
        "pass_s": untraced, "traced_pass_s": traced, "records": run.records,
    }
    if tracer:
        doc["spans_by_name"] = {name: {"calls": c, "self_s": s} for name, (c, s) in
                                sorted(run.span_table.items())}
        tracer.write(f"{stem}.spans.csv.gz")
    with open(f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
        fh.write("\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {attempted} operations, {failed} failed")
    shown = {**e2e, **extra, **(reported if tracer else {})}
    for name, (value, unit) in shown.items():
        note = ""
        if name == "pass_s_tail":
            note = (f"  (p{tail_info['tail_percentile']:.0f} of {tail_info['passes']} passes, "
                    f"{tail_info['tail_beyond']} beyond)")
        print(f"  {name:36s} {value:.6g} {unit}{note}")
    for text, ok in run.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {text}")
    for rec in run.records:
        if not rec["ok"]:
            print(f"  failed operation: {json.dumps(rec, default=float)[:300]}")
    print(f"  environment: {json.dumps(env)}")
    print(f"  results: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
