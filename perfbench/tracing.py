"""Spans around calls into the library's layers, recorded from outside.

``Tracer.install`` rebinds the module attribute of every public function
of each layer, and the public methods and properties of the classes the
layer defines, to a timing wrapper. The modules import each other as
``from . import x as y`` and look names up at call time, so the wrappers
also see calls made inside a module, such as ``solve_integer -> hnf``.
A span records name, start, end, parent span and case id; self time is a
span's duration minus the durations of its direct children.

Per-element helpers are left unwrapped so that tracing does not dominate
what it measures; their time counts toward the calling layer.
"""

import functools
import operator
import types
from time import perf_counter

from toric_kernel import (cli, cones, counting, cox, divisors, fans, ideals,
                          polytopes, zlattice)

LAYERS = {"zlattice": zlattice, "cones": cones, "polytopes": polytopes,
          "fans": fans, "ideals": ideals, "divisors": divisors, "cox": cox,
          "counting": counting, "cli": cli}

EXCLUDED = {
    # vector and matrix helpers, called per entry or per row
    "zlattice.shape", "zlattice.identity", "zlattice.zeros", "zlattice.copy_matrix",
    "zlattice.transpose", "zlattice.mat_mul", "zlattice.mat_vec", "zlattice.columns",
    "zlattice.from_columns", "zlattice.dot", "zlattice.vadd", "zlattice.vsub",
    "zlattice.vscale", "zlattice.vgcd", "zlattice.primitive",
    # monomial-order helpers, called per term comparison
    "ideals.MonomialOrder.key", "ideals.SparsePolynomial.leading",
    "ideals.SparsePolynomial.is_zero", "ideals.LaurentPolynomial.is_zero",
}

# cli dispatches through handlers captured in _HANDLERS at import, so only
# the entry point can be rebound.
CLI_ONLY = {"cli.main"}

CASE = "bench.case"


def _max_bits(*matrices):
    return max((abs(x).bit_length() for M in matrices for row in M for x in row),
               default=0)


# span name -> (counter name, how values combine, value read from the return value)
RESULT_PROBES = {
    "zlattice.hnf": ("zlattice.hnf.out_bits_max", max, lambda r: _max_bits(r[1])),
    "zlattice.snf": ("zlattice.snf.out_bits_max", max, lambda r: _max_bits(r[1], r[2])),
    "ideals.buchberger": ("ideals.buchberger.out_size", operator.add, len),
}


def _targets():
    """(owner, attribute, span name, original, is_property) for every
    callable the tracer wraps."""
    out = []
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in EXCLUDED:
                continue
            if layer == "cli" and name not in CLI_ONLY:
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                out.append((module, attr, name, obj, False))
            elif isinstance(obj, type):
                for mattr, mobj in vars(obj).items():
                    mname = f"{name}.{mattr}"
                    if mattr.startswith("_") or mname in EXCLUDED:
                        continue
                    if isinstance(mobj, types.FunctionType):
                        out.append((obj, mattr, mname, mobj, False))
                    elif isinstance(mobj, property) and mobj.fget is not None:
                        out.append((obj, mattr, mname, mobj, True))
    return out


class Tracer:
    """In-memory span recorder. Spans are lists
    ``[name, start, end, parent, case, outermost]``; ``outermost`` is
    false for a span nested inside another span of the same name, so that
    inclusive times of recursive functions are not counted twice."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._depth = {}
        self._saved = []
        self.case = None

    def _wrap(self, name, fn):
        spans, stack, depth, counters = self.spans, self._stack, self._depth, self.counters
        probe = RESULT_PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            d = depth.get(name, 0)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, d == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] = d + 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    key, combine, value = probe
                    counters[key] = combine(counters.get(key, 0), value(result))
                return result
            finally:
                rec[2] = perf_counter()
                depth[name] = d
                stack.pop()

        return wrapper

    def install(self):
        for owner, attr, name, obj, is_prop in _targets():
            self._saved.append((owner, attr, obj))
            if is_prop:
                setattr(owner, attr, property(self._wrap(name, obj.fget)))
            else:
                setattr(owner, attr, self._wrap(name, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def run_case(self, case_id, fn, *args):
        """Call fn inside a root span for one case; returns (result, seconds)."""
        self.case = case_id
        rec = [CASE, 0.0, 0.0, -1, case_id, True]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        return result, rec[2] - rec[1]

    def summary(self):
        """Per-layer and per-function totals over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer = {}
        func = {}
        for k, (name, start, end, _, _, outer) in enumerate(self.spans):
            dur = end - start
            own = dur - child[k]
            lname = name.split(".", 1)[0]
            lc, ls = layer.get(lname, (0, 0.0))
            layer[lname] = (lc + 1, ls + own)
            fc, fs, fi = func.get(name, (0, 0.0, 0.0))
            func[name] = (fc + 1, fs + own, fi + (dur if outer else 0.0))
        wall = sum(end - start for name, start, end, parent, _, _ in self.spans
                   if parent < 0)
        return {"layers": layer, "functions": func, "counters": dict(self.counters),
                "wall_s": wall}
