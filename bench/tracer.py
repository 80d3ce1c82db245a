"""Span tracer that wraps heunfactor's public functions from outside.

Each traced entry is a function or method of one module (the layer).  The
tracer replaces the module's binding and every other heunfactor module's
binding of the same object (``factorize.solve_linear`` is a separate binding
from ``exactalg.solve_linear``), plus class-level aliases such as
``__rmul__ = __mul__``.  A call records a span (entry, start, end, parent)
in memory; self time is a span's duration minus the time its direct child
spans cover.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

#: (metric prefix, module, attribute path) of every timed entry.
ENTRIES = (
    ("exactalg.MultiPoly.mul", "exactalg", "MultiPoly.__mul__"),
    ("exactalg.exact_div", "exactalg", "exact_div"),
    ("exactalg.RatFunc.add", "exactalg", "RatFunc.__add__"),
    ("exactalg.RatFunc.subs", "exactalg", "RatFunc.subs"),
    ("exactalg.solve_linear", "exactalg", "solve_linear"),
    ("exactalg.reduce_mod", "exactalg", "reduce_mod"),
    ("exactalg.groebner_basis", "exactalg", "groebner_basis"),
    ("exactalg.groebner_reduce", "exactalg", "groebner_reduce"),
    ("oredop.DiffOp.right_divide", "oredop", "DiffOp.right_divide"),
    ("heun.apparency_poly", "heun", "apparency_poly"),
    ("heun.heun_poly_condition", "heun", "heun_poly_condition"),
    ("heun.frobenius_series", "heun", "frobenius_series"),
    ("heun.series_coeffs", "heun", "series_coeffs"),
    ("ghg.ghg_operator_esym", "ghg", "ghg_operator_esym"),
    ("kstrans.verify_quasipoly", "kstrans", "verify_quasipoly"),
    ("factorize.solve_esym", "factorize", "solve_esym"),
    ("factorize.verify_factorization", "factorize", "verify_factorization"),
    ("factorize.solve_apparent_p", "factorize", "solve_apparent_p"),
    ("factorize.verify_factorization_numeric", "factorize", "verify_factorization_numeric"),
    # metric names must start with a letter, so _mpnum reports as mpnum
    ("mpnum.solve_esym_numeric", "_mpnum", "solve_esym_numeric"),
    ("mpnum.DiffOpM.right_divide_monic", "_mpnum", "DiffOpM.right_divide_monic"),
    ("mpnum.newton_apparency", "_mpnum", "newton_apparency"),
    ("numcheck.monodromy", "numcheck", "monodromy"),
    ("xjacobi.x1_apparency_factor", "xjacobi", "x1_apparency_factor"),
    ("xjacobi.orthogonality_check", "xjacobi", "orthogonality_check"),
    ("cli.cmd_apparency", "cli", "cmd_apparency"),
    ("cli.cmd_factorize", "cli", "cmd_factorize"),
    ("cli.cmd_monodromy", "cli", "cmd_monodromy"),
    ("cli.cmd_x1", "cli", "cmd_x1"),
)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # (entry index, start, end, parent)
    rhs_evals: int = 0
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- installation ---------------------------------------------------------

    def install(self):
        import importlib

        mods = {m: importlib.import_module(f"heunfactor.{m}")
                for m in {m for _, m, _ in ENTRIES} | {"numcheck"}}
        all_mods = [v for k, v in sys.modules.items()
                    if k.startswith("heunfactor.") and v is not None]
        for idx, (_, mod, path) in enumerate(ENTRIES):
            owner = mods[mod]
            *cls_path, attr = path.split(".")
            for c in cls_path:
                owner = getattr(owner, c)
            orig = getattr(owner, attr)
            wrapped = self._wrap(idx, orig)
            if cls_path:
                targets = [(owner, n) for n, v in vars(owner).items() if v is orig]
            else:
                targets = [(m, n) for m in all_mods for n, v in vars(m).items() if v is orig]
            for obj, name in targets:
                self._saved.append((obj, name, orig))
                setattr(obj, name, wrapped)
        nc = mods["numcheck"]
        orig_coeffs = nc.heun_ode_coeffs

        def heun_ode_coeffs(p):
            P, R = orig_coeffs(p)

            def counted_P(z):
                self.rhs_evals += 1
                return P(z)
            return counted_P, R

        self._saved.append((nc, "heun_ode_coeffs", orig_coeffs))
        nc.heun_ode_coeffs = heun_ode_coeffs

    def uninstall(self):
        for obj, name, orig in reversed(self._saved):
            setattr(obj, name, orig)
        self._saved.clear()

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[me] = (idx, start, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """{entry: (self seconds, calls)} over every recorded span."""
        covered = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: [0.0, 0] for name, _, _ in ENTRIES}
        for k, (idx, start, end, _) in enumerate(self.spans):
            acc = out[ENTRIES[idx][0]]
            acc[0] += end - start - covered[k]
            acc[1] += 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("entry,start_s,end_s,parent\n")
            for idx, start, end, parent in self.spans:
                fh.write(f"{ENTRIES[idx][0]},{start:.9f},{end:.9f},{parent}\n")
