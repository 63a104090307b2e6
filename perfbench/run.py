"""The gdcscan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the root of a checkout. Each measured run is a fresh
``python3 perfbench/child.py`` process calling ``gdcscan.cli.main`` on
inputs generated from ``--seed``, so interpreter start, imports and input
parsing are paid as a user pays them. Runs repeat for ``--seconds``
and a median or quartile over them is reported. ``--trace 0`` prints the
end-to-end metrics, scaled by a reference job timed before each run;
``--trace 1`` alternates plain and traced runs and
prints the per-layer metrics plus the tracing overhead. The outputs of
every run are checked after timing; a failed check names itself, counts
the run's tests as failed and makes the command exit 1. The last line of
standard output is one JSON object; the result, with an environment
fingerprint, is also written under ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread here and in every child, so --threads is the only
# parallelism. Set in main() before NumPy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
# A whole invocation must end within 180 s: at most 70 s of launching,
# one run that may overrun, the other --threads digest run and the checks.
CHILD_TIMEOUT_S = 45
STOP_LAUNCHING_AFTER_S = 70

# The end-to-end metrics, the --trace 0 output: (name, unit, better, the
# per-process sample it is taken from, the statistic over a run's
# processes). The times are at the reference speed (see REFERENCE).
END_TO_END = [
    ("wall_p75_s", "s", "lower", "wall_ref_s", "p75"),
    ("setup_s", "s", "lower", "setup_ref_s", "median"),
    ("tests_per_s_p25", "1/s", "higher", "tests_per_ref_s", "p25"),
    ("peak_rss_mb", "MB", "lower", "peak_rss_mb", "median"),
]

# The host's speed moves by up to 40% over minutes as other tenants come
# and go, in set-up and scan alike, so raw times from runs minutes apart
# do not agree. Before each timed process a fixed reference job (a fresh
# interpreter importing what the program imports) is timed, and the
# process's times are scaled by REFERENCE_S / its time: seconds at the
# speed at which the reference job takes REFERENCE_S, its median on the
# 2-vCPU machine the bounds were set on. The job is the benchmark's own,
# so no change to the program moves it.
REFERENCE = ["-c", "import numpy; from scipy import integrate, special, stats; import time; print(time.monotonic())"]
REFERENCE_S = 1.6


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """One workload's inputs and how to launch, time and check a run."""

    def __init__(self, name: str, seed: int, work: str):
        from workloads import PANELS, WORKLOADS, panel_inputs, tests_per_run

        self.name, self.seed, self.work = name, seed, work
        self.spec = WORKLOADS[name]
        self.tests = tests_per_run(name)
        self.threads = self.spec.get("threads", 1)
        self.panel = PANELS.get(self.spec.get("panel"))
        self.inputs = panel_inputs(self.spec["panel"], seed) if self.panel else None
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.runs = 0

    def argv(self, out: str, threads: int | None = None) -> list:
        from workloads import scan_argv, simulate_argv

        if self.panel is None:
            return simulate_argv(self.seed, out)
        return scan_argv(self.name, self.inputs, out, threads or self.threads)

    def reference(self) -> float:
        """Seconds the reference job takes now, launch until its imports
        are done, by the job's own clock as for the program's runs."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable] + REFERENCE, env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        return float(proc.stdout) - t0

    def launch(self, mode: str, threads: int | None = None) -> dict:
        """Run the program once; returns the run's sample, with ``error``
        set when it did not exit 0."""
        self.runs += 1
        out = os.path.join(self.work, f"out-{self.runs}.tsv")
        report = os.path.join(self.work, f"report-{self.runs}.json")
        cmd = [sys.executable, CHILD, mode, report, "--"] + self.argv(out, threads)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not os.path.exists(report):
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return {"mode": mode, "error": f"exit {proc.returncode}: {' '.join(tail)}"}
        with open(report) as fh:
            rep = json.load(fh)
        os.remove(report)
        sample = {
            "mode": mode,
            "out": out,
            "digest": _sha256(out),
            "backend": rep["backend"],
            "wall_s": rep["t_done"] - t0,
            "peak_rss_mb": rep["peak_rss_kb"] * 1024 / 1e6,
        }
        if mode == "plain":
            sample["setup_s"] = rep["t_entry"] - t0
            sample["tests_per_s"] = self.tests / (rep["t_done"] - rep["t_entry"])
        else:
            sample["spans"] = rep["spans"]
            sample["counters"] = rep["counters"]
        return sample


def measure(wl: Workload, seconds: float, trace: bool) -> list:
    """Launch runs while the next one, as long as the median run so far,
    would end within ``seconds``, and until enough have finished. Without
    tracing each run is preceded by the reference job, and its times are
    also given at the reference speed."""
    start = time.monotonic()
    modes = ["plain", "trace"] if trace else ["plain"]
    need = {"plain": MIN_RUNS, "trace": MIN_TRACED_RUNS}
    samples, lengths = [], []
    while True:
        elapsed = time.monotonic() - start
        done = {m: sum(s["mode"] == m for s in samples) for m in modes}
        expected = statistics.median(lengths) if lengths else 0.0
        if elapsed + expected > seconds and all(done[m] >= need[m] for m in modes):
            break
        if elapsed >= STOP_LAUNCHING_AFTER_S and samples:
            break
        ref_s = None if trace else wl.reference()
        sample = wl.launch(modes[len(samples) % len(modes)])
        if ref_s is not None and "error" not in sample:
            scale = REFERENCE_S / ref_s
            sample.update(ref_s=ref_s, wall_ref_s=sample["wall_s"] * scale,
                          setup_ref_s=sample["setup_s"] * scale, tests_per_ref_s=sample["tests_per_s"] / scale)
        samples.append(sample)
        lengths.append(time.monotonic() - start - elapsed)
    return samples


def check(wl: Workload, samples: list) -> list:
    """Run every check on the finished runs; marks the failing runs and
    returns the names of failed checks."""
    from checks import CheckFailed, check_digests, check_reference, check_scan_output, check_simulation, read_columns

    failures = []

    def fail(exc: CheckFailed, runs) -> None:
        failures.append(str(exc))
        for s in runs:
            s.setdefault("error", f"check {exc.check}")

    if wl.panel is not None:
        with open(os.path.join(wl.inputs, "panel.geno.variants.tsv")) as fh:
            snp_ids = [line.split("\t")[0] for line in fh]
    ok = [s for s in samples if "error" not in s]
    for s in ok:
        try:
            if wl.panel is None:
                check_simulation(s["out"], wl.spec["simulate"])
            else:
                s["rows"] = check_scan_output(s["out"], snp_ids, wl.panel["n"])
        except CheckFailed as exc:
            fail(exc, [s])
    ok = [s for s in ok if "error" not in s]
    if not ok:
        return failures
    majority = statistics.mode(s["digest"] for s in ok)
    try:
        check_digests([s["digest"] for s in ok])
    except CheckFailed as exc:
        fail(exc, [s for s in ok if s["digest"] != majority])
    first = next(s for s in ok if s["digest"] == majority)
    if wl.panel is not None:
        try:
            columns = read_columns(os.path.join(wl.inputs, "pheno.tsv"))
            first["reference_rows"] = check_reference(
                first["out"], os.path.join(wl.inputs, "panel.geno"), columns,
                wl.panel["covariates"], wl.panel["n"], wl.seed,
            )
        except CheckFailed as exc:
            fail(exc, ok)
    threads = wl.spec.get("digest_threads")
    if threads:
        other = wl.launch("plain", threads=threads)
        try:
            if "error" in other:
                raise CheckFailed(f"threads{threads}_run", other["error"])
            os.remove(other["out"])
            check_digests([majority, other["digest"]], f"digest_vs_threads{threads}")
        except CheckFailed as exc:
            fail(exc, ok)
    return failures


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def statistic(values, which: str) -> float:
    """``median``, or the lower (``p25``) or upper (``p75``) quartile."""
    if which == "median" or len(values) < 2:
        return _median(values)
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": lower, "p75": upper}[which]


def report_metrics(wl: Workload, samples: list, trace: bool) -> tuple:
    """(metrics, table lines) for the finished, checked runs."""
    plain = [s for s in samples if s["mode"] == "plain" and "error" not in s]
    lines = []
    if not trace:
        metrics = {}
        for name, unit, _, sample, which in END_TO_END:
            values = [s[sample] for s in plain]
            metrics[name] = {"value": statistic(values, which), "unit": unit}
            lines.append(f"  {name:<16} {metrics[name]['value']:.6g} {unit}")
        for sample in ("wall_s", "wall_ref_s", "setup_s", "setup_ref_s", "tests_per_s", "tests_per_ref_s", "ref_s"):
            values = sorted(s[sample] for s in plain)
            if values:
                quartiles = " ".join(f"{q} {statistic(values, q):.6g}" for q in ("p25", "median", "p75"))
                lines.append(f"    {sample:<16} {quartiles} min {values[0]:.6g} max {values[-1]:.6g} (runs {len(values)})")
        return metrics, lines

    from layers import PER_LAYER, derive
    from spans import summarize

    traced = [s for s in samples if s["mode"] == "trace" and "error" not in s]
    per_run = [
        derive(summarize(s["spans"]), s["counters"], s.get("rows", {}), wl.tests, wl.threads)
        for s in traced
    ]
    traced_wall = _median([s["wall_s"] for s in traced])
    plain_wall = _median([s["wall_s"] for s in plain])
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_frac":
            value = traced_wall / plain_wall - 1.0
        else:
            value = _median([r[name] for r in per_run])
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<26} median {value:.6g} {unit}")
    lines.append(f"  (traced runs {len(traced)}, untraced runs {len(plain)}, untraced wall_s {plain_wall:.6g} s)")
    return metrics, lines


def fingerprint(samples: list) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "backend": next((s["backend"] for s in samples if "backend" in s), "unknown"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per metric; refuse when the environments differ
    in backend or thread settings."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("backend", "blas_threads"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(f"refusing to compare: {key} differs ({a['fingerprint'][key]} vs {b['fingerprint'][key]})", file=sys.stderr)
            return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print(f"refusing to compare: workload/trace differ ({a['workload']}/{a['trace']} vs {b['workload']}/{b['trace']})", file=sys.stderr)
        return 3
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        change = f"{vb / va - 1.0:+.2%}" if va else "n/a"
        print(f"{name:<26} {va:<14.6g} {vb:<14.6g} {change} {ma['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join("src", "gdcscan", "cli.py")):
        print("perfbench: src/gdcscan not found; run from the root of a gdcscan checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [HERE, os.path.abspath("src")]
    from workloads import WORK_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    # Importing the program here also compiles its bytecode and warms the
    # file cache before the first timed run.
    import checks  # noqa: F401

    work = os.path.join(WORK_DIR, "runs", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = Workload(args.workload, args.seed, work)
    samples = measure(wl, args.seconds, bool(args.trace))
    failures = check(wl, samples)
    shutil.rmtree(work)
    attempted = wl.tests * len(samples)
    failed = sum(wl.tests if "error" in s else s.get("rows", {}).get("failed", 0) for s in samples)
    metrics, lines = report_metrics(wl, samples, bool(args.trace))
    env = fingerprint(samples)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  environment {json.dumps(env)}")
    print("\n".join(lines))
    print(f"  {'failed_frac':<14} {failed / attempted:.6g} frac  ({failed} of {attempted} tests)")
    errors = sorted({s['error'] for s in samples if 'error' in s})
    for text in failures + errors:
        print(f"  FAILED {text}")
    refs = [s["reference_rows"] for s in samples if "reference_rows" in s]
    print(f"  checks {'passed' if not failures and not errors else 'FAILED'}"
          + (f" (reference recomputed on {refs[0]} rows)" if refs else ""))
    result = {"correct": not failures and not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "fingerprint": env, **result,
                   "samples": [{k: v for k, v in s.items() if k not in ("spans", "out")} for s in samples]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
