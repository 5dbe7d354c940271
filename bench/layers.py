"""Outside-in tracing of errlab's layers, from the benchmark's own code.

``install`` wraps the public functions of each errlab module, every name
other modules bound to them with ``from ... import``, the four
``PiecewiseLaurent`` methods that carry the work, ``VerificationReport.add``
and ``write_csv``, and ``ConstLinear.to_text``.  Each call records a span
(name, start, end, parent) in memory.  The ``ConstLinear`` operators run far
too often for a span each, so they are counted only; ``as_gaussian`` and the
``GaussianRational`` constructor are left alone for the same reason.

``layer_metrics`` turns the spans into the per-layer metrics.  A ``*_s``
metric is the wall time inside the outermost spans of its group (a nested
call of the same group is not counted twice); a group's time therefore
includes the layers below it.  ``self_times`` gives each module's time minus
the time of the spans nested directly under it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from fractions import Fraction

# Metric group -> the span names it covers.
GROUPS = {
    "volterra.homogeneous": ["volterra.homogeneous_residual"],
    "volterra.residual": ["volterra.residual", "volterra.remainder_integral_residual"],
    "volterra.build": ["volterra.make_case", "volterra.build_error_term",
                       "volterra.build_fracpart_series", "volterra.solution_family",
                       "volterra.resolvent_function"],
    "piecewise.construct": ["piecewise.PiecewiseLaurent.__init__"],
    "piecewise.prefix": ["piecewise.PiecewiseLaurent._prefix"],
    "piecewise.integrate": ["piecewise.PiecewiseLaurent.integrate"],
    "piecewise.eval": ["piecewise.PiecewiseLaurent.eval_at"],
    "exactnum.to_text": ["exactnum.ConstLinear.to_text"],
    "sequences.sieve": ["sequences.mobius_sieve", "sequences.totient_sieve",
                        "sequences.twist", "sequences.kronecker_character"],
    "sequences.numeric_constants": ["sequences.numeric_constants"],
    "sequences.convolve_id": ["sequences.convolve_id"],
    "sequences.floor_identity": ["sequences.summatory_via_floor_identity"],
    "sequences.floor_sum": ["sequences.floor_sum"],
    "decomposition.build": ["decomposition.untwisted_case", "decomposition.twisted_case",
                            "decomposition.build_fracsquare_series",
                            "decomposition.build_sawtooth_series"],
    "decomposition.decompose": ["decomposition.decompose"],
    "decomposition.trivial_relations": ["decomposition.trivial_character_relations"],
    "lfunc.dirichlet_l": ["lfunc.dirichlet_l"],
    "report.add": ["report.VerificationReport.add"],
    "report.write": ["report.VerificationReport.write_csv"],
}

_CL_OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__")
_PIECEWISE_METHODS = ("__init__", "eval_at", "integrate", "_prefix")
_SIEVES = {"mobius_sieve", "totient_sieve", "twist", "kronecker_character"}


def _bits(g) -> int:
    return max(g.re.numerator.bit_length(), g.re.denominator.bit_length(),
               g.im.numerator.bit_length(), g.im.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced invocation."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []
        self.cl_ops = 0
        self.prefix_hits = 0
        self.sieve_items = 0
        self._built = []         # every PiecewiseLaurent constructed

    def wrap(self, name, fn, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return traced

    def count(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            self.cl_ops += 1
            return fn(*args)
        return counted

    # -- hooks run before the wrapped call ----------------------------------

    def _on_prefix(self, f, shift):
        if shift in f._int_cache:
            self.prefix_hits += 1

    def _on_sieve(self, arg, *rest, **kwargs):
        self.sieve_items += abs(arg) if isinstance(arg, int) else arg.N

    def _after_init(self, init):
        built = self._built

        @functools.wraps(init)
        def sized(f, *args, **kwargs):
            init(f, *args, **kwargs)
            built.append(f)
        return sized

    def _max_coeff_bits(self) -> int:
        # Scanned once at the end so the scan stays out of every span.
        seen = set()
        best = 0
        for f in self._built:
            for piece in f.pieces:
                for c in piece.values():
                    for g in (c.c1, c.cA2, c.cA1):
                        if id(g) not in seen:
                            seen.add(id(g))
                            best = max(best, _bits(g))
        return best

    def dump(self, path):
        """Write spans and counters as JSON (called once, after the run)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "cl_ops": self.cl_ops,
                       "prefix_hits": self.prefix_hits,
                       "pieces_built": sum(len(f.pieces) for f in self._built),
                       "sieve_items": self.sieve_items,
                       "max_coeff_bits": self._max_coeff_bits()}, fh)


def install(tracer: Tracer) -> None:
    """Wrap errlab's layers in place for the rest of this process."""
    import errlab
    from errlab import (cli, decomposition, exactnum, lfunc, piecewise, report,
                        sequences, volterra)

    wrapped = {}
    for mod in (sequences, lfunc, piecewise, volterra, decomposition):
        short = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                before = tracer._on_sieve if (mod is sequences and name in _SIEVES) else None
                wrapped[fn] = tracer.wrap(f"{short}.{name}", fn, before)
    wrapped[cli.main] = tracer.wrap("cli.main", cli.main)
    # Rebind every module-level name that refers to a wrapped function, which
    # covers the names cli, decomposition and volterra import from elsewhere.
    for mod in (errlab, cli, decomposition, exactnum, lfunc, piecewise, report,
                sequences, volterra):
        for key, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, key, wrapped[value])

    PL = piecewise.PiecewiseLaurent
    for meth in _PIECEWISE_METHODS:
        fn = vars(PL)[meth]
        if meth == "__init__":
            fn = tracer._after_init(fn)
        before = tracer._on_prefix if meth == "_prefix" else None
        setattr(PL, meth, tracer.wrap(f"piecewise.PiecewiseLaurent.{meth}", fn, before))
    CL = exactnum.ConstLinear
    for op in _CL_OPERATORS:
        setattr(CL, op, tracer.count(vars(CL)[op]))
    CL.to_text = tracer.wrap("exactnum.ConstLinear.to_text", vars(CL)["to_text"])
    VR = report.VerificationReport
    for meth in ("add", "write_csv"):
        setattr(VR, meth, tracer.wrap(f"report.VerificationReport.{meth}", vars(VR)[meth]))


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Module -> wall time in its spans not covered by a directly nested span.

    Single-threaded, so the children of a span never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), cov in zip(spans, covered):
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + (end - start - cov)
    return out


def _group_time(spans, names) -> float:
    members = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in members:
            continue
        while parent >= 0 and spans[parent][0] not in members:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(dump: dict) -> dict:
    """Per-layer metric values of one traced invocation."""
    spans = [tuple(s) for s in dump["spans"]]
    calls = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
    out = {}
    for group, names in GROUPS.items():
        out[f"{group}_s"] = _group_time(spans, names)
        out[f"{group}_calls"] = sum(calls.get(n, 0) for n in names)
    prefix_calls = out["piecewise.prefix_calls"]
    out["piecewise.prefix_hit_ratio"] = dump["prefix_hits"] / prefix_calls if prefix_calls else 0.0
    out["piecewise.pieces_built"] = dump["pieces_built"]
    out["sequences.sieve_items"] = dump["sieve_items"]
    out["exactnum.cl_ops"] = dump["cl_ops"]
    out["exactnum.max_coeff_bits"] = dump["max_coeff_bits"]
    out["cli.self_s"] = self_times(spans).get("cli", 0.0)
    return out


# ---------------------------------------------------------------------------
# scalar-kernel probes
# ---------------------------------------------------------------------------

def _per_op_us(op, reps=2000, batches=5) -> float:
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            op()
        samples.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(samples)


def probe_exactnum() -> dict:
    """Microseconds per ConstLinear add and multiply-by-Fraction, on small
    operands and on operands with lcm(1..1000) denominators."""
    from errlab.exactnum import ConstLinear, GaussianRational

    u = ConstLinear(GaussianRational(Fraction(3, 7), Fraction(-1, 5)), Fraction(-1, 2), 0)
    v = ConstLinear(Fraction(5, 11), Fraction(1, 3), Fraction(2, 9))
    s = Fraction(7, 13)
    lcm = math.lcm(*range(1, 1001))
    big = ConstLinear(Fraction(lcm // 7 + 1, lcm), Fraction(-1, 2), 0)
    big_s = Fraction(lcm // 11 + 1, lcm)
    return {
        "exactnum.add_us": _per_op_us(lambda: u + v),
        "exactnum.mul_us": _per_op_us(lambda: u * s),
        "exactnum.mul_big_us": _per_op_us(lambda: big * big_s, reps=500),
    }
