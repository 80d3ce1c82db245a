"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line holds every end-to-end metric of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  See
``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

# Before numpy can load: one BLAS/OpenMP thread, so the spread is compute
# speed and not thread scheduling.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from mpmath import mp, mpf

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
COLD_SAMPLES = 6
#: wall time of one speed probe on the 2-CPU reference machine at its usual
#: speed (a round figure near its median probe); see Speed.  Changing the
#: probe's work changes every time metric.
PROBE_REF_S = 0.025


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, default=None, metavar="WORKDIR",
                    help="import the program, build the inputs into WORKDIR, exit")
    return ap.parse_args(argv)


def load_program():
    """Import heunfactor from this checkout's src/ (and from nowhere else)."""
    src = ROOT / "src"
    if not (src / "heunfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src / 'heunfactor'}")
    sys.path.insert(0, str(src))
    import heunfactor
    if Path(heunfactor.__file__).resolve().parent != (src / "heunfactor").resolve():
        raise SystemExit(f"error: heunfactor imported from {heunfactor.__file__}")


def timed_child(argv) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return dt


def _probe() -> float:
    """Wall time of the speed probe's fixed work."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def _probe_work():
    big, mod = 3 ** 1500 + 17, 2 ** 2048 - 159
    x, seen = big, {}
    with mp.workprec(300):
        y = mpf(1) / 3
        for i in range(1, 500):
            f = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, 3)
            seen[i % 97] = f.numerator % 1009
            x = x * big % mod
            y = y * y + mpf(i) / 7
            y = y / (y + 1)


class Speed:
    """The machine's speed over a run, sampled before every timed step by a
    fixed piece of pure-Python work that does not touch the program:
    rational, big-integer and 300-bit mpmath arithmetic, the mix the
    program runs.

    On a shared machine the speed of a core drifts by 20% and more over
    minutes, more than any bound, and every timing drifts with it.  Each
    time metric is therefore scaled by ``factor()``, PROBE_REF_S over the
    median sample of its phase of the run (set-up, passes), and reads in
    seconds at the reference machine's usual speed.  A change to the
    program moves a scaled figure by the same share as the raw one, since
    the probe runs none of its code.

    A sample has two parts.  ``here`` is timed where this process runs, the
    core that in-process work is about to use.  ``across`` is the mean of
    one probe pinned to each CPU the program's processes may use (at most
    two, as many as the sweep's workers): work in child processes runs on
    either core, and a probe on one core misses the other core's drift."""

    def __init__(self):
        self.here, self.across = [], []
        self.affinity = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        self.cpus = sorted(self.affinity)[:2] if self.affinity else []

    def sample(self):
        was_enabled = gc.isenabled()
        gc.disable()     # no collection of the program's heap inside a probe
        try:
            self.here.append(_probe())
            if self.cpus:
                pinned = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    pinned.append(_probe())
                self.across.append(statistics.fmean(pinned))
        finally:
            if self.affinity:
                os.sched_setaffinity(0, self.affinity)
            if was_enabled:
                gc.enable()

    def factor(self, across: bool) -> float:
        samples = self.across if across and self.across else self.here
        return PROBE_REF_S / statistics.median(samples)


def setup_seconds(args, workdir: Path, speed: Speed) -> float:
    """Median wall time of a fresh interpreter that imports heunfactor and
    builds the workload's inputs, unscaled.  One untimed start first
    compiles the bytecode caches."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        d = workdir / f"setup{i}"
        speed.sample()
        dt = timed_child(argv + [str(d)])
        shutil.rmtree(d, ignore_errors=True)
        if i:
            times.append(dt)
    speed.sample()
    return statistics.median(times)


class Tally:
    """Verdict accounting over whole passes."""

    def __init__(self, wl, speed: Speed):
        self.wl = wl
        self.speed = speed
        self.attempted = self.failed = 0
        self.correct = True
        self.outputs = None         # set to a list to keep the outputs

    def run(self, op) -> tuple:
        """Run, time and check one operation: (seconds, verdicts ok)."""
        self.speed.sample()
        gc.collect()
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as e:  # the program failed this operation
            out, err = None, e
        dt = time.perf_counter() - t0
        if err is not None:
            sys.stderr.write(f"{op.label}: {type(err).__name__}: {err}\n")
            statuses = ["error"] * op.verdicts
        else:
            statuses = self.wl.check(op, out)
            if self.outputs is not None:
                self.outputs.append((op, out))
        self.attempted += len(statuses)
        self.failed += sum(s != "ok" for s in statuses)
        if "wrong" in statuses:
            self.correct = False
            sys.stderr.write(f"{op.label}: wrong output {statuses}\n")
        return dt, statuses.count("ok")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_times(env) -> tuple:
    """(heunfactor.cli, scipy.special) cumulative import seconds from
    -X importtime in a fresh interpreter; medians of three starts."""
    cli, sp = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import heunfactor.cli"],
                              capture_output=True, text=True, env=env, timeout=170)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in ("heunfactor.cli", "scipy.special") and name not in found:
                    found[name] = int(parts[1]) / 1e6
        cli.append(found.get("heunfactor.cli", 0.0))
        sp.append(found.get("scipy.special", 0.0))
    return statistics.median(cli), statistics.median(sp)


def _spread(ops: list, op, k: int):
    n = len(ops)
    for j in reversed(range(k)):
        ops.insert(j * n // k, op)


def pass_order(wl, ops: list, seed: int, cold_repeats: int = 0) -> list:
    """The operations of one pass in seeded order, with the key verdict
    repeated ``wl.key_repeats`` times and ``cold_repeats`` cold CLI calls,
    each at evenly spaced positions."""
    ops = list(ops)
    random.Random(f"order-{seed}").shuffle(ops)
    key = next(op for op in ops if op.key)
    ops.remove(key)
    _spread(ops, key, wl.key_repeats)
    if cold_repeats:
        _spread(ops, wl.cold, cold_repeats)
    return ops


def end_to_end(args, wl, workdir) -> tuple:
    setup_speed = Speed()
    setup_s = setup_seconds(args, workdir, setup_speed)
    speed = Speed()
    tally = Tally(wl, speed)
    for op in wl.warmup:          # untimed: fills mpmath's caches, warms imports
        op.run()
    passes = max(1, round(args.seconds / wl.nominal_pass_s))
    # a cold call outside the workload's own pass is spread over the run and
    # kept out of the verdict rate
    extra_cold = not any(op is wl.cold for op in wl.ops)
    ops = pass_order(wl, wl.ops, args.seed, -(-COLD_SAMPLES // passes) if extra_cold else 0)
    key_times, cold_times = [], []
    good, seconds = 0, 0.0
    for _ in range(passes):
        for op in ops:
            dt, n_ok = tally.run(op)
            if op.key:
                key_times.append(dt)
            if op is wl.cold:
                cold_times.append(dt)
                if extra_cold:
                    continue
            seconds += dt
            good += n_ok
    times = {
        "verdicts_per_s": good / seconds,
        "key_verdict_s": statistics.median(key_times),
        "cold_start_s": statistics.median(cold_times),
    }
    # set-up and cold calls are child processes; so is all of cli-sweep
    children = wl.children is not None
    ks, kc, k = setup_speed.factor(True), speed.factor(True), speed.factor(children)
    sys.stderr.write(f"unscaled: {json.dumps(dict(setup_s=setup_s, **times))}, "
                     f"speed factors {ks:.4f} {kc:.4f} {k:.4f}\n")
    metrics = {
        "setup_s": setup_s * ks,
        "verdicts_per_s": times["verdicts_per_s"] / k,
        "key_verdict_s": times["key_verdict_s"] * k,
        "cold_start_s": times["cold_start_s"] * kc,
    }
    # cli-sweep: the program's processes only, not the set-up children
    metrics["peak_rss_mib"] = wl.children.peak_mib if wl.children else peak_rss_mib()
    return tally, metrics


def per_layer(args, wl, env) -> tuple:
    from tracer import Tracer
    tally = Tally(wl, Speed())
    ops = pass_order(wl, wl.traced_ops or wl.ops, args.seed)
    for op in wl.traced_ops or wl.warmup:   # the in-process variant warms up whole
        op.run()
    untraced = sum(tally.run(op)[0] for op in ops)
    tracer = Tracer()
    tracer.install()
    tally.outputs = []
    try:
        traced = sum(tally.run(op)[0] for op in ops)
    finally:
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.csv")
    metrics = {}
    for name, (self_s, calls) in tracer.layer_metrics().items():
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.calls"] = calls
    terms = bits = 0
    margins = []
    for op, out in tally.outputs:
        if op.swell:
            t, b = op.swell(out)
            terms, bits = max(terms, t), max(bits, b)
        if op.margins:
            margins += op.margins(out)
    metrics["exactalg.swell.max_terms"] = terms
    metrics["exactalg.swell.max_coeff_bits"] = bits
    metrics["factorize.defect_margin_digits"] = min(margins) if margins else 0.0
    metrics["numcheck.rhs_evals"] = tracer.rhs_evals
    metrics["cli.import_s"], metrics["cli.import_scipy_special_s"] = import_times(env)
    metrics["trace.overhead_s"] = traced - untraced
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    import workloads
    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed, ROOT, args.setup_only)
        return 0
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        if args.trace:
            tally, values = per_layer(args, wl, workloads.cli_env(ROOT))
            wanted = spec["per_layer"]
        else:
            tally, values = end_to_end(args, wl, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not measured: {missing}\n")
        return 2
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
