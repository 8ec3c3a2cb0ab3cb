"""ncsos benchmark: four workloads through the ``ncsos`` command line.

Usage (from the repository root):

    python3 bench/run.py --workload sos-certify --seed 1 --seconds 20 --trace 0

One process plays a single closed-loop client: it imports ``ncsos.cli``
from ``./src`` and calls ``ncsos.cli.main(argv)`` job after job, each
job's stdout parsed as its report.  Every verdict is checked against the
generator's expectation and every artifact is replayed.  ``--trace 0``
prints the end-to-end metrics, with every time at reference speed (see
``bench/speed.py``); ``--trace 1`` runs the same jobs once
untraced and once with spans recorded around each layer and prints the
per-layer metrics.  The last line of stdout is the result object; the
line before it holds the run's details (environment, input digests,
per-family times, span table).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# One BLAS thread: the client is single-threaded and the machine small,
# so a fixed count keeps runs comparable; recorded with every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import spans as tracing  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
EXIT_FOR = {"certified": 0, "refuted": 3, "undecided": 4, "separated": 0,
            "inside": 2, "gap": 0, "not-generating": 0}
DECIDED = {"certified", "refuted", "separated", "inside", "gap",
           "not-generating"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_version():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def _git_commit(root):
    """HEAD read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "ncsos")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(root, src):
    import ncsos.rcf
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        raise SystemExit(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": BLAS_THREADS,
        "NCSOS_TRUNCATION": os.environ.get("NCSOS_TRUNCATION"),
        "truncation_order": ncsos.rcf.default_order(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
    }


# ---------------------------------------------------------------------------
# running and checking one job
# ---------------------------------------------------------------------------

def _cli(cli, argv, rec):
    """Run one command in-process; returns (seconds, exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rec.call(tracing.ROOT, cli.main, argv) if rec else \
            cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def _replay_sos(cli, path, rec):
    dt, code, text, _ = _cli(cli, ["verify", path], rec)
    report = json.loads(text)
    if code != 0 or report.get("verdict") != "verified":
        return dt, f"ncsos verify rejected {os.path.basename(path)}"
    return dt, None


def _replay_separation(job, path):
    """The functional read back through ncsos.cones, then an independent
    exact sign check: negative at the point, nonnegative on generators."""
    from ncsos import cones

    t0 = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    f = cones.LexFunctional.from_json(text)
    at_point = cones.evaluate_lex(f, job.oracle["point"]).sign()
    on_gens = [cones.evaluate_lex(f, g).sign()
               for g in job.oracle["generators"]]
    dt = time.perf_counter() - t0
    stages = json.loads(text)["stages"]
    mine = (workloads.lex_sign(stages, job.oracle["point"]),
            [workloads.lex_sign(stages, g) for g in job.oracle["generators"]])
    if mine != (at_point, on_gens):
        return dt, "evaluate_lex disagrees with the independent sign check"
    if mine[0] >= 0 or min(mine[1]) < 0:
        return dt, "functional violates the separation sign contract"
    return dt, None


def _replay_membership(job):
    """The cone read back through ncsos.cones and the membership LP's
    coefficients checked exactly: nonnegative, reproducing the point."""
    from ncsos import cones

    t0 = time.perf_counter()
    with open(job.argv[1], encoding="utf-8") as fh:
        cone = cones.cone_from_json(fh.read())
    result = cones.membership(cone, job.oracle["point"])
    dt = time.perf_counter() - t0
    lam = result.coefficients if result.inside else None
    if lam is None or min(lam, default=0) < 0 or [
            sum(c * g[i] for c, g in zip(lam, job.oracle["generators"]))
            for i in range(len(job.oracle["point"]))] != job.oracle["point"]:
        return dt, "membership replay gives no exact nonnegative combination"
    return dt, None


def _replay_gap(job, report):
    """Enclosure against numpy.linalg.eigvalsh of the regular Laplacian."""
    t0 = time.perf_counter()
    ev = workloads.regular_gap(job.oracle["table"], job.oracle["gens"])
    dt = time.perf_counter() - t0
    diag = report["diagnostics"]
    if diag.get("exact"):
        lo = hi = Fraction(diag["gap"])
    else:
        lo, hi = (Fraction(v) for v in diag["enclosure"])
    if not lo - Fraction(1, 10 ** 9) <= Fraction(ev) <= hi + \
            Fraction(1, 10 ** 9):
        return dt, f"gap enclosure [{lo}, {hi}] misses eigenvalue {ev!r}"
    return dt, None


def run_job(cli, job, rec=None):
    """Time one job, then check its verdict and replay its artifact."""
    t0 = time.perf_counter()
    job_s, code, text, err = _cli(cli, job.argv, rec)
    record = {"family": job.family, "job_s": job_s, "verify_s": None,
              "verdict": None, "failure": None, "artifact_bytes": 0}
    try:
        if code == 70:
            raise ValueError(f"exit 70: {err.strip()[-200:]}")
        report = json.loads(text)
        verdict = record["verdict"] = report.get("verdict")
        if verdict not in job.expect:
            raise ValueError(f"verdict {verdict!r}, expected {job.expect}")
        if code != EXIT_FOR[verdict]:
            raise ValueError(f"exit {code} for verdict {verdict!r}")
        path = report.get("artifact")
        if path:
            record["artifact_bytes"] = tracing.file_size(path)
        if verdict in ("certified", "refuted", "separated") and not path:
            raise ValueError(f"verdict {verdict!r} wrote no artifact")
        failure = None
        if job.kind == "sos" and path:
            record["verify_s"], failure = _replay_sos(cli, path, rec)
        elif verdict == "separated":
            diag = report["diagnostics"]
            if not (diag.get("point_value_negative")
                    and diag.get("generators_nonnegative")):
                raise ValueError("separation report flags a sign failure")
            record["verify_s"], failure = _replay_separation(job, path)
        elif verdict == "inside":
            record["verify_s"], failure = _replay_membership(job)
        elif verdict == "gap":
            record["verify_s"], failure = _replay_gap(job, report)
        if failure:
            raise ValueError(failure)
    except (ValueError, KeyError, TypeError) as exc:
        record["failure"] = f"{job.family}: {exc}"
    record["span"] = (t0, time.perf_counter())
    return record


def run_pass(cli, jobs, rec=None, meter=None):
    """Run the jobs in order; with a meter, sample the host's speed
    between jobs and add each job's times at reference speed."""
    records = []
    for i, job in enumerate(jobs):
        if rec is not None:
            rec.job = i
        if meter is not None:
            meter.sample()
        records.append(run_job(cli, job, rec))
    if meter is not None:
        meter.sample(force=True)
        for r in records:
            f = meter.factor(*r["span"])
            r["job_ref_s"] = r["job_s"] * f
            r["verify_ref_s"] = None if r["verify_s"] is None else \
                r["verify_s"] * f
    return records


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def measure_setup(root, src, warm, meter):
    """Fresh interpreter to ``import ncsos.cli``, plus the warm-up job's
    first run minus its repeat, at reference speed; median of several
    fresh interpreters."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        meter.sample(force=True)
        start = time.perf_counter()
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, src, json.dumps(warm.argv)], cwd=root,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        end = time.perf_counter()
        meter.sample(force=True)
        samples.append({"import_s": out["ready"] - t0,
                        "first_job_surplus_s": out["first"] - out["repeat"],
                        "factor": meter.factor(start, end)})
    setup = statistics.median(
        (s["import_s"] + s["first_job_surplus_s"]) * s["factor"]
        for s in samples)
    return setup, samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """Highest order statistic with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(0, n - TAIL_BEYOND - 1)
    return ordered[i], {"percentile": 100.0 * (i + 1) / n, "samples": n,
                        "beyond": n - i - 1}


def end_to_end(records, setup_s):
    """Metrics from the times at reference speed."""
    job_s = [r["job_ref_s"] for r in records]
    verify_s = [r["verify_ref_s"] for r in records
                if r["verify_ref_s"] is not None]
    tail_s, tail_info = tail(job_s)
    decided = sum(1 for r in records if r["verdict"] in DECIDED)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(job_s) / sum(job_s), "1/s"),
        "job_s_p50": (statistics.median(job_s), "s"),
        "job_s_tail": (tail_s, "s"),
        "verify_s_p50": (statistics.median(verify_s) if verify_s else 0.0,
                         "s"),
        "decided_frac": (decided / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, \
        tail_info


def by_family(records):
    fams = {}
    for r in records:
        fams.setdefault(r["family"], []).append(r)
    return {f: {"jobs": len(rs),
                "job_s_p50": statistics.median(r["job_s"] for r in rs),
                "verdicts": sorted({str(r["verdict"]) for r in rs})}
            for f, rs in sorted(fams.items())}


def busy_s(records):
    return sum(r["job_s"] + (r["verify_s"] or 0.0) for r in records)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ncsos", "cli.py")):
        print(f"bench: no ncsos sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import ncsos.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"bench: ncsos imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    rounds = workloads.rounds_for(args.workload, args.seconds, args.trace)
    warm, job_rounds = workloads.build(args.workload, args.seed, rounds)
    jobs = [j for r in job_rounds for j in r]
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workloads.materialize([warm] + jobs, workdir)
        meter = speed.Meter()
        setup_s, probes = (None, []) if args.trace else \
            measure_setup(root, src, warm, meter)
        warm_record = run_job(cli, warm)

        untraced = run_pass(cli, jobs, meter=meter)
        records = list(untraced)
        detail = {}
        if args.trace:
            rec = tracing.Recorder()
            rec.install()
            try:
                traced = run_pass(cli, jobs, rec)
            finally:
                rec.uninstall()
            records += traced
            metrics = tracing.layer_metrics(
                rec.spans, len(traced),
                sum(r["artifact_bytes"] for r in traced))
            metrics["trace.overhead_frac"] = {
                "value": busy_s(traced) / busy_s(untraced) - 1,
                "unit": "ratio"}
            detail["spans"] = tracing.summarize(rec.spans)[0]
            detail["span_count"] = len(rec.spans)
        else:
            metrics, detail["job_s_tail"] = end_to_end(untraced, setup_s)
            detail["raw"] = {
                "job_s_p50": statistics.median(r["job_s"] for r in untraced),
                "jobs_per_s": len(untraced) / sum(r["job_s"]
                                                  for r in untraced)}
            detail["speed"] = meter.summary()
        records.append(warm_record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    failures = [r["failure"] for r in records if r["failure"]]
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "rounds": rounds, "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "excluded": workloads.EXCLUDED,
        "environment": environment(root, src),
        "setup_probes": probes,
        "fail_frac": len(failures) / len(records),
        "failures": failures[:20],
        "families": by_family(untraced),
        "inputs": {k: v for j in [warm] + jobs for k, v in j.inputs.items()},
        "inputs_sha256": hashlib.sha256(json.dumps(
            [j.inputs for j in [warm] + jobs], sort_keys=True
        ).encode()).hexdigest(),
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
