"""The defalg benchmark: one workload per process, every job through the CLI.

    python3 perfbench/run.py --workload kuranishi --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark imports ``defalg`` from
``src/``, writes the workload's seeded documents under
``.perfbench_run/``, checks the README examples once, then runs the
workload's job list round after round (a closed loop with one client)
until the jobs have taken ``--seconds`` reference seconds (see
PROBE_REF_S).  Each job is ``defalg.cli.main(argv)`` in this process.  After timing, every output is checked exactly by
``oracles.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced rounds for a third of the time, then traced rounds (``spans.py``)
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.  A results file with job
sizes, per-job latencies and the environment goes to ``.perfbench_out/``.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from structures import rank  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_BEFORE, SETUP_AFTER = 5, 6      # set-ups before and after the timed loop
RAW_CAP = 1.3                         # raw time limit of the loop, in --seconds
MIN_TRACED_ROUNDS = 2

# The README examples, run on docs/fixtures before timing.
SMOKE = [
    (["tangent", "--in", "docs/fixtures/sl2.dgla"], 0,
     "command: tangent\ndimensions:\n  0: 3\nexit: 0\n"),
    (["obstruction", "--in", "docs/fixtures/sl2.dgla",
      "--in", "docs/fixtures/counterexample.ext",
      "--in", "docs/fixtures/counterexample.mc"], 1,
     "command: obstruction\nstrictly small: no\nobstruction vanishes: no\n"
     "cokernel class:\n  -1\nexit: 1\n"),
]

# Reference-speed timing.  CPU speed on a shared machine drifts by tens of
# percent for minutes at a time, in CPU time as much as in wall time.  A
# speed probe, a fixed exact elimination, runs before and after every job,
# and the job's time is rescaled to the speed at which the probe takes
# PROBE_REF_S: the probe's median on the reference machine (Python 3.11.7,
# 2 vCPUs).  Raw seconds are printed and saved beside the results.
PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(10)]
                for i in range(10)]
PROBE_REF_S = 0.006


def probe():
    """Seconds the speed probe takes now."""
    start = perf_counter()
    for _ in range(2):
        rank(PROBE_MATRIX)
    return perf_counter() - start


END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "out_bits_max": "bits"}


class Result:
    __slots__ = ("exit", "stdout", "error", "seconds", "scale")

    def __init__(self, exit_, stdout, error, seconds):
        self.exit = exit_
        self.stdout = stdout
        self.error = error
        self.seconds = seconds
        self.scale = 1.0          # PROBE_REF_S / mean of the probes around the run


def run_job(cli, argv):
    """One CLI call in this process; an escaping exception is a failure."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        error = "SystemExit(%r): %s" % (exc.code, err.getvalue().strip())
    except Exception:      # the job boundary: record the traceback, keep going
        code = None
        error = "traceback:\n" + traceback.format_exc()
    seconds = perf_counter() - start
    if error is None and err.getvalue():
        error = "stderr: " + err.getvalue().strip()
    return Result(code, out.getvalue(), error, seconds)


def import_defalg():
    """Import defalg afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "defalg" or m.startswith("defalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("defalg")
    for layer in ("linalg", "graded", "algebras", "dgla", "linfty", "obstruction",
                  "models", "docio", "cli"):
        importlib.import_module("defalg." + layer)
    return package


def setup(workload, seed, workdir, repeats):
    """Import and generate ``repeats`` times, timing each set-up."""
    times, digests = [], []
    for _ in range(repeats):
        start = perf_counter()
        package = import_defalg()
        w = WORKLOADS[workload](seed)
        for name, text in w.docs.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        times.append(perf_counter() - start)
        h = hashlib.sha256()
        for name in sorted(w.docs):
            h.update(name.encode() + b"\0" + w.docs[name].encode() + b"\0")
        digests.append(h.hexdigest())
    return package, w, times, digests


def smoke(cli):
    """Failures of the README examples, as a list of messages."""
    bad = []
    for argv, code, text in SMOKE:
        r = run_job(cli, argv)
        if r.error or r.exit != code or r.stdout != text:
            bad.append("%s: exit %s, error %s, output %r" % (argv[0], r.exit, r.error,
                                                              r.stdout))
    return bad


def run_rounds(cli, jobs, workdir, seconds, min_rounds, tracer=None):
    """Closed loop over the job list, in whole rounds.

    Rounds go on until the jobs have taken ``seconds`` reference seconds,
    so that the number of rounds does not follow the machine's drift; after
    ``min_rounds`` no round starts that would end past RAW_CAP × ``seconds``
    of raw time.
    """
    argvs = [job.argv(workdir) for job in jobs]
    rounds = []
    start = perf_counter()
    reference = 0.0
    while True:
        if tracer is not None:
            tracer.reset()
        round_start = perf_counter()
        results = []
        before = probe()
        for k, argv in enumerate(argvs):
            if tracer is None:
                results.append(run_job(cli, argv))
            else:
                tracer.job = len(rounds) * len(argvs) + k
                with tracer.span("job"):
                    results.append(run_job(cli, argv))
            after = probe()
            results[-1].scale = 2 * PROBE_REF_S / (before + after)
            before = after
        elapsed = perf_counter() - round_start
        reference += sum(r.seconds * r.scale for r in results)
        layer = None
        if tracer is not None:
            layer = (dict(tracer.self_ns), tracer.totals(), dict(tracer.counters))
        rounds.append((elapsed, results, layer))
        if len(rounds) >= min_rounds and (
                reference >= seconds
                or perf_counter() - start + elapsed > RAW_CAP * seconds):
            return rounds


def verify(jobs, rounds, docio):
    """Check every output exactly; identical outputs are checked once."""
    cache = {}
    failures = []
    attempted = 0
    bits = 0
    for r, (_, results, _) in enumerate(rounds):
        for job, res in zip(jobs, results):
            attempted += 1
            key = (job.name, res.exit, res.error, res.stdout)
            if key not in cache:
                cache[key] = oracles.check(job, res, docio)
                bits = max(bits, oracles.max_bits(res.stdout))
            if cache[key] is not None:
                failures.append("round %d %s: %s" % (r, job.name, cache[key]))
    return attempted, failures, bits


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - 11, 0)
    return lat[k], 100.0 * (k + 1) / n, n


def commit_of(root):
    """The checkout's commit from .git, when there is one."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(root, ".git", ref[5:])
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "defalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    fixtures = os.path.join(root, "docs", "fixtures")
    if not os.path.isfile(os.path.join(src, "defalg", "cli.py")) or \
            not os.path.isdir(fixtures):
        sys.stderr.write("perfbench: run from a defalg checkout (no src/defalg or "
                         "docs/fixtures under %s)\n" % root)
        return 2
    sys.path.insert(0, src)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    workdir = os.path.join(root, ".perfbench_run", tag)
    outdir = os.path.join(root, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        return measure(args, root, src, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(args, root, src, workdir, outdir):
    package, w, setup_times, digests = setup(args.workload, args.seed, workdir, SETUP_BEFORE)
    if not os.path.dirname(package.__file__).startswith(src):
        sys.stderr.write("perfbench: imported defalg from %s, not %s\n"
                         % (package.__file__, src))
        return 2
    cli, docio = package.cli, package.docio
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "nproc": os.cpu_count(), "commit": commit_of(root),
           "src_sha256": src_digest(src), "documents_sha256": digests[0]}
    print("perfbench %s" % " ".join("%s=%s" % kv for kv in env.items()))
    problems = []
    smoke_bad = smoke(cli)
    problems += ["README example: " + s for s in smoke_bad]
    print("smoke: %s" % ("ok" if not smoke_bad else "FAILED"))

    jobs = w.jobs
    if args.trace:
        base = run_rounds(cli, jobs, workdir, args.seconds / 3, 1)
        tracer = Tracer()
        tracer.install(package)
        remaining = max(args.seconds - sum(r.seconds * r.scale for b in base for r in b[1]), 0)
        traced = run_rounds(cli, jobs, workdir, remaining, MIN_TRACED_ROUNDS, tracer)
        rounds = base + traced
    else:
        rounds = run_rounds(cli, jobs, workdir, args.seconds, 2)
    attempted, failures, bits = verify(jobs, rounds, docio)
    problems += failures
    # more set-ups after the loop, so that setup_s samples the whole run
    _, _, more_times, more_digests = setup(args.workload, args.seed, workdir, SETUP_AFTER)
    setup_times += more_times
    if len(set(digests + more_digests)) != 1:
        problems.append("documents differ between set-ups of the same seed")

    result = {"env": env, "setup_s_all": setup_times,
              "jobs": [{"name": j.name, "command": j.command, "sizes": j.sizes,
                        "latency_s": [r[1][k].seconds for r in rounds],
                        "speed_scale": [r[1][k].scale for r in rounds]}
                       for k, j in enumerate(jobs)],
              "round_s": [r[0] for r in rounds], "failures": failures}
    if args.trace:
        values, report, trace_problems = layers.summarize(
            args.workload, traced, statistics.median(r[0] for r in base))
        problems += trace_problems
        result["layers"] = {"values": values, "report": report}
        layers.print_report(args.workload, values, report)
        metrics = {k: {"value": values[k], "unit": layers.unit_of(k)}
                   for k in layers.REPORTED}
        tracer.write(os.path.join(outdir, "spans-%s-%d.tsv.gz" % (args.workload, args.seed)))
    else:
        metrics, result["job_tail"] = end_to_end(rounds, setup_times, bits)
        for name, m in metrics.items():
            print("metric %-12s %.6g %s" % (name, m["value"], m["unit"]))
    result["metrics"] = metrics
    print("rounds: %d of %d jobs; attempted %d, failed %d, fail_ratio %.4g"
          % (len(rounds), len(jobs), attempted, len(failures),
             len(failures) / attempted))
    for p in problems:
        print("FAILED " + p.replace("\n", "\n    "))
    with open(os.path.join(outdir, "%s-%d-trace%d.json" % (args.workload, args.seed,
                                                            args.trace)), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def end_to_end(rounds, setup_times, bits):
    """The end-to-end metrics, in reference seconds (see PROBE_REF_S).

    Each job's latency is the median over the rounds of its rescaled runs;
    ``wall_s`` sums them over the job list, and every execution counts at
    its job's latency for ``job_p50_s`` and ``job_tail_s``.
    """
    n_rounds = len(rounds)
    per_job = [statistics.median(r[1][k].seconds * r[1][k].scale for r in rounds)
               for k in range(len(rounds[0][1]))]
    executions = per_job * n_rounds
    tail_s, pct, n = tail(executions)
    raw = [res.seconds for _, results, _ in rounds for res in results]
    # a set-up is too short for its own probe; it takes the run's median speed
    scale = statistics.median(res.scale for _, results, _ in rounds for res in results)
    info = {"percentile": pct, "samples": n,
            "raw_round_median_s": statistics.median(r[0] for r in rounds),
            "raw_job_p50_s": statistics.median(raw), "raw_job_tail_s": tail(raw)[0],
            "raw_setup_s": statistics.median(setup_times), "speed_scale_median": scale}
    print("job_tail_s is p%.1f of %d job executions; raw: round median %.4g s, job p50 "
          "%.4g s, tail %.4g s, setup %.4g s; median speed scale %.3f" % (
              pct, n, info["raw_round_median_s"], info["raw_job_p50_s"],
              info["raw_job_tail_s"], info["raw_setup_s"], info["speed_scale_median"]))
    values = {"wall_s": sum(per_job),
              "job_p50_s": statistics.median(executions),
              "job_tail_s": tail_s,
              "setup_s": statistics.median(setup_times) * scale,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "out_bits_max": bits}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, info


if __name__ == "__main__":
    sys.exit(main())
