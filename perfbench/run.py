#!/usr/bin/env python3
"""The fticalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports fticalc from ./src. Each
workload is a closed loop with one client and no extra threads: the next
job starts when the previous one has finished and been checked. Jobs come
in rounds of a fixed class mix (workloads.ROUNDS, cli_jobs.ROUND) whose
inputs are drawn from --seed; the loop runs whole rounds until the jobs
have taken --seconds of measured time and at least 120 jobs have run.
Input generation for later rounds and result checks happen between jobs,
outside the measured time.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 rounds alternate untraced and traced, and the
object holds the per-layer metrics measured by tracer.py, plus the
tracing overhead. Lines before it are a readable report. See DESIGN.md.
"""

import argparse
import compileall
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
CLI_DIR = os.path.join(OUT, "cli")

WORKLOAD_NAMES = ("chord-rewrite", "surgery-invariants", "filtration-algebra", "cli-oneshot")
# set-up runs at least 5 times and for at least 2 s (at most 80 times), and
# setup_s is the median: a single 30 ms set-up is too noisy to compare, and
# on a shared machine a second of them can fall in one slow or fast spell
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 5, 2.0, 80
MIN_JOBS = 120
MAX_LOOP_S = 120.0  # stop early rather than pass the 180 s exit limit
CHILD_TIMEOUT_S = 60
IMPORT_PROBES = 5


class Fticalc:
    """The fticalc modules of one fresh import."""

    def __init__(self, layers):
        self.layers = layers
        self.chords = layers["chords"]
        self.links = layers["links"]
        self.la = layers["_intlinalg"]
        self.symplectic = layers["symplectic"]
        self.exterior = layers["exterior"]
        self.johnson = layers["johnson"]
        self.groupring = layers["groupring"]


def load_fticalc():
    """Import fticalc afresh, so module-level caches start empty."""
    for name in [n for n in sys.modules if n == "fticalc" or n.startswith("fticalc.")]:
        del sys.modules[name]
    importlib.import_module("fticalc.cli")
    return Fticalc(tracing.layer_modules())


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def timed_process(cmd, env):
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=env, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        out = (proc.returncode, proc.stdout, proc.stderr)
    except subprocess.TimeoutExpired:
        out = (-9, "", "timed out after %d s" % CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, out


def import_costs(env):
    """Median wall time of `python -c pass` and of importing fticalc.cli."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(timed_process([sys.executable, "-c", "pass"], env)[0])
        full.append(timed_process([sys.executable, "-c", "import fticalc.cli"], env)[0])
    interp = statistics.median(bare)
    return interp, statistics.median(full) - interp


def setup_more(times):
    if len(times) < SETUP_MIN_REPEATS:
        return True
    return sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS


class Loop:
    """Latencies, failures and per-class counts of one closed-loop run."""

    def __init__(self):
        self.latency = {False: [], True: []}  # keyed by traced
        self.classes = {}
        self.failures = []

    def record(self, cls, seconds, error, traced):
        self.latency[traced].append(seconds)
        self.classes.setdefault(cls, []).append(seconds)
        if error is not None:
            self.failures.append((cls, error))

    @property
    def attempted(self):
        return len(self.latency[False]) + len(self.latency[True])

    def busy(self, traced=None):
        if traced is None:
            return sum(self.latency[False]) + sum(self.latency[True])
        return sum(self.latency[traced])

    def done(self, seconds, rounds, trace, started):
        if trace and rounds % 2:
            return False  # a traced run ends after a traced round
        if time.perf_counter() - started > MAX_LOOP_S:
            return True
        return self.busy() >= seconds and self.attempted >= MIN_JOBS


def run_rounds(first, next_round, run_job, seconds, trace, tracer=None):
    """The closed loop: whole rounds until the measured time is reached."""
    loop = Loop()
    started = time.perf_counter()
    jobs, rounds, job_id = first, 0, 0
    while True:
        traced = trace and rounds % 2 == 1
        for job in jobs:
            job_id += 1
            if tracer is not None:
                tracer.job_id, tracer.enabled = job_id, traced
            seconds_taken, out, error = run_job(job, traced)
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    error = job.check(out)
                except Exception as exc:  # a malformed result is a failed job
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
            loop.record(job.cls, seconds_taken, error, traced)
        rounds += 1
        if loop.done(seconds, rounds, trace, started):
            return loop
        jobs = next_round()


def run_library_job(job, traced):
    t0 = time.perf_counter()
    try:
        out, error = job.run(), None
    except Exception as exc:  # counted as a failed job
        out, error = None, "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - t0, out, error


def run_library(name, seed, seconds, trace):
    import workloads

    setup_fn, warmup_fn, round_fn = workloads.WORKLOADS[name]

    def shuffled_round():
        jobs = round_fn(fx, rng, state)
        rng.shuffle(jobs)
        return jobs

    setup_times = []
    while setup_more(setup_times):
        gc.collect()
        warm_failures = []
        t0 = time.perf_counter()
        fx = load_fticalc()
        rng = random.Random(seed)
        state = setup_fn(fx, rng)
        for job in warmup_fn(fx, random.Random("warm-up"), state):
            out = job.run()
            error = job.check(out)
            if error:
                warm_failures.append((job.cls, error))
        first = shuffled_round()
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(fx.layers)
    loop = run_rounds(first, shuffled_round, run_library_job,
                      seconds, trace, tracer)
    loop.failures += warm_failures
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {}
    if trace:
        tracer.write(os.path.join(OUT, "spans-%s.bin" % name))
        interp, imp = import_costs(child_env())
        extra = {"reduced": tracer.reduce(), "cli": {"interp_s": interp, "import_s": imp,
                                                     "process_s": 0.0, "self_s": 0.0}}
    return loop, setup_times, peak, extra, workloads.ROUNDS[name]


def run_cli(seed, seconds, trace):
    import cli_jobs

    env = child_env()
    fticalc_cmd = [sys.executable, "-m", "fticalc"]
    traced_cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
    setup_times = []
    while setup_more(setup_times):
        t0 = time.perf_counter()
        shutil.rmtree(CLI_DIR, ignore_errors=True)
        os.makedirs(CLI_DIR)
        rng = random.Random(seed)
        first = cli_jobs.cli_round(rng, CLI_DIR, "r0")
        timed_process(fticalc_cmd + ["--version"], env)
        setup_times.append(time.perf_counter() - t0)

    counter = {"round": 0}
    reduced, traced_wall = [], []

    def next_round():
        counter["round"] += 1
        return cli_jobs.cli_round(rng, CLI_DIR, "r%d" % counter["round"])

    def run_job(job, traced):
        if not traced:
            wall, out = timed_process(fticalc_cmd + job.argv, env)
            return wall, out, None
        span_file = os.path.join(CLI_DIR, "spans.json")
        wall, out = timed_process(traced_cmd + [span_file] + job.argv, env)
        traced_wall.append(wall)
        try:
            with open(span_file, encoding="utf-8") as fh:
                reduced.append(json.load(fh))
            os.remove(span_file)
        except (OSError, ValueError) as exc:
            return wall, out, "traced child left no spans: %s" % exc
        return wall, out, None

    loop = run_rounds(first, next_round, run_job, seconds, trace)
    probes = []
    for what, argv, check in cli_jobs.defect_probes(CLI_DIR):
        _, out = timed_process(fticalc_cmd + argv, env)
        probes.append((what, check(out)))
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    extra = {"probes": probes}
    if trace:
        merged = tracing.merge_reduced(reduced)
        library_self = sum(s for _, s in merged["spans"].values())
        interp, imp = import_costs(env)
        extra.update(reduced=merged, cli={
            "interp_s": interp, "import_s": imp,
            "process_s": statistics.median(loop.latency[False]),
            "self_s": sum(traced_wall) - library_self})
    return loop, setup_times, peak, extra, cli_jobs.ROUND


def quantiles_ms(samples):
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return q[4] * 1000.0, q[8] * 1000.0


def end_to_end(loop, setup_times, peak):
    lat = loop.latency[False]
    p50, p90 = quantiles_ms(lat)
    return {
        "jobs_per_s": (len(lat) / sum(lat), "jobs/s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def metric_layer(layer):
    """Metric names start with a letter, so `_intlinalg` reports as `intlinalg`."""
    return layer.lstrip("_")


def per_layer(loop, extra):
    red = extra["reduced"]
    out = {}
    layer_self = {}
    for span in tracing.SPAN_NAMES:
        calls, self_s = red["spans"][span]
        layer, _, target = span.partition(".")
        name = "%s.%s" % (metric_layer(layer), target)
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
        layer_self[metric_layer(layer)] = layer_self.get(metric_layer(layer), 0.0) + self_s
    layer_self["cli"] = extra["cli"]["self_s"]
    total = sum(layer_self.values())
    for layer, self_s in layer_self.items():
        out[layer + ".self_s"] = (self_s, "s")
        out[layer + ".share"] = (self_s / total if total else 0.0, "ratio")
    for layer, (terms_in, terms_out) in red["merge"].items():
        ratio = terms_out / terms_in if terms_in else 0.0
        out["%s.%s.merge_ratio" % (layer, tracing.MERGED[layer])] = (ratio, "ratio")
    out["chords.tower_reduce.terms_out"] = (red["tower_terms_out"], "count")
    for key in ("import_s", "interp_s", "process_s"):
        out["cli." + key] = (extra["cli"][key], "s")
    untraced = len(loop.latency[False]) / loop.busy(False)
    traced = len(loop.latency[True]) / loop.busy(True)
    out["trace.overhead_frac"] = (1.0 - traced / untraced, "ratio")
    return out


def report(name, loop, metrics, setup_times, shares, extra, trace):
    n = len(loop.latency[False])
    counts = {
        "jobs_per_s": "n=%d jobs in %.2f s measured" % (n, loop.busy(False)),
        "job_p50_ms": "n=%d jobs" % n,
        "job_p90_ms": "n=%d jobs, %d beyond p90" % (n, n - int(0.9 * (n - 1)) - 1),
        "setup_s": "median of n=%d set-ups" % len(setup_times),
        "peak_rss_mib": "max over n=%s" % ("its child processes" if name == "cli-oneshot"
                                           else "1 process"),
    }
    print("== %s: closed loop, 1 client, %s" % (name, "traced" if trace else "untraced"))
    round_size = sum(shares.values())
    for cls, k in shares.items():
        lat = loop.classes.get(cls, [])
        med = statistics.median(lat) * 1000.0 if lat else float("nan")
        print("   class %-26s %2d/%d of each round  n=%-4d median %.2f ms"
              % (cls, k, round_size, len(lat), med))
    fails = len(loop.failures)
    print("%s fail_frac = %.4f ratio (%d failed of %d attempted)"
          % (name, fails / loop.attempted, fails, loop.attempted))
    for cls, error in loop.failures[:10]:
        print("   FAILED %s: %s" % (cls, error))
    for what, error in extra.get("probes", ()):
        print("   known defect %s: %s" % ("REPRODUCED" if error else "fixed", what))
    for key, (value, unit) in metrics.items():
        print("%s %s = %.6g %s (%s)" % (name, key, value, unit, counts.get(key, "traced rounds")))


def run_one(name, seed, seconds, trace):
    # bytecode for fticalc as an installed package would have it, even
    # where PYTHONDONTWRITEBYTECODE keeps imports from writing it
    compileall.compile_dir(os.path.join(SRC, "fticalc"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    if name == "cli-oneshot":
        loop, setup_times, peak, extra, shares = run_cli(seed, seconds, trace)
    else:
        loop, setup_times, peak, extra, shares = run_library(name, seed, seconds, trace)
    metrics = per_layer(loop, extra) if trace else end_to_end(loop, setup_times, peak)
    report(name, loop, metrics, setup_times, shares, extra, trace)
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print("%s exited with status %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, key)] = val
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fticalc", "__init__.py")):
        print("no fticalc sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
