"""Single-run reference figures (the rows of the ROADMAP baseline table).

    python3 bench/figures.py

Prints one Markdown table row per figure.  These are single runs, not
benchmark metrics: the exact m = 4 run alone takes minutes, too long for a
workload that every later change reruns.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def row(what: str, value: str):
    print(f"| {what} | {value} |", flush=True)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    from mpmath import mp

    import run as bench_run
    import workloads
    from heunfactor import factorize as fz
    from heunfactor.exactalg import RatFunc
    from heunfactor.numcheck import monodromy
    from heunfactor.heun import HeunParams

    print(f"| what ({os.cpu_count()} CPUs, single runs) | wall |\n|---|---|")
    dt, proc = timed(lambda: subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=3000))
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    row(f"tier-1 suite ({summary.strip('= ')})", f"{dt:.0f} s")
    for m in (3, 4):
        ring = fz.factor_ring(1, m)
        a, b, g, t, q = (RatFunc.of(ring.var(n), ring) for n in ("alpha", "beta", "gamma", "t", "q"))
        Lt = fz.ApparentFuchsian.from_heun(a, b, g, m, q, t, ring)
        ds, (es, _) = timed(lambda: fz.solve_esym(Lt, deep=True))
        dv, rep = timed(lambda: fz.verify_factorization(Lt, esym=es, deep=True))
        row(f"exact symbolic M=1, m={m}: solve_esym + verify_factorization",
            f"{ds:.1f} s + {dv:.1f} s ({'pass' if rep.passed else 'FAIL'})")
    cells = []
    for prof, beta in workloads.NUMERIC_PANEL:
        gamma, delta, sing, prod_ab, _, _ = workloads.panel_instance(prof, "numeric", beta)
        with mp.workprec(300):
            dt, rep = timed(lambda: fz.verify_factorization_numeric(gamma, delta, sing, prod_ab,
                                                                    bits=300))
        cells.append(f"{prof}{'t' if beta else ''} {dt:.2f}")
    row("numeric 300-bit, Newton + verify, per profile (t: terminating series)",
        " / ".join(cells) + " s")
    cells = []
    for prof in workloads.GROEBNER_PROFILES:
        gamma, delta, sing, prod_ab, _, _ = workloads.panel_instance(prof, "groebner")
        M, N = len(prof), sum(prof)
        ring = fz.factor_ring(M, N)
        Lt = fz.ApparentFuchsian.from_p_form(
            gamma, delta, sing, prod_ab, [ring.var(f"p{k}") for k in range(1, M + 1)], ring)
        dt, rep = timed(lambda: fz.verify_factorization(Lt))
        cells.append(f"{prof} {dt:.1f}")
    row("exact Groebner path, verify_factorization(Lt)", " / ".join(cells) + " s")
    a, b, g = workloads.F(1, 3), workloads.F(5, 2), workloads.F(7, 4)
    t, q = workloads.ref.lvw_tq(a, b, g, workloads.F(2, 3))
    p = HeunParams.make(alpha=a, beta=b, gamma=g, epsilon=-1, q=q, t=t)
    dt, _ = timed(lambda: [monodromy(p, "t") for _ in range(10)])
    row("monodromy loop around z = t", f"{dt / 10 * 1000:.0f} ms")
    cli_s, sp_s = bench_run.import_times(env)
    row("import heunfactor.cli", f"{cli_s:.2f} s, of which {sp_s:.2f} s is scipy.special")


if __name__ == "__main__":
    main()
