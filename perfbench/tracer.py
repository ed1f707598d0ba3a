"""Outside-in tracer: spans around the functions of each sheafcount layer.

Nothing under src/ knows about it.  install() wraps, after import, every
public module-level function of the six layer modules and every method of
the classes they define (public names and operator dunders), and rebinds the
wrapper wherever a sheafcount module or class binds the original: the
package namespace, `from .partitions import arm` copies in other modules,
and class aliases such as `__rmul__ = __mul__`.  Private helpers are not
wrapped; their time counts toward the public function that called them,
which lives in the same layer.  Properties are not wrapped either; their
time counts toward the caller.

Each wrapped call is a span on one stack, so a span's self time is its
duration minus the time of the spans it caused.  The tracer's own
bookkeeping for a span (counting, sizing the result) is charged to neither
the span nor its parent.  A function that a later version removes simply
never gets a span and reads as 0 calls.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "sheafcount"
LAYERS = ("partitions", "ratfunc", "localization", "qseries", "nl_dt", "cli")

# group -> (layer, qualified names of its functions); a group counts every
# name bound to one of these functions, aliases included
GROUPS = {
    "ratfunc.poly_mul": ("ratfunc", ("Poly.__mul__", "Poly.__rmul__", "Poly.__pow__")),
    "ratfunc.gcd": ("ratfunc", ("poly_gcd",)),
    "qseries.euler": ("qseries", ("goettsche_series", "eta24", "hilb_euler")),
    "qseries.series_mul": ("qseries", ("PuiseuxSeries.__mul__", "PuiseuxSeries.__rmul__",
                                       "series_mul")),
    "qseries.invert": ("qseries", ("PuiseuxSeries.invert", "series_invert")),
    "nl_dt.parse": ("nl_dt", ("nl_load", "nl_loads", "nl_load_path")),
    "nl_dt.extend": ("nl_dt", ("nl_symmetry_extend",)),
    "nl_dt.dt": ("nl_dt", ("dt_from_nl",)),
    "nl_dt.z": ("nl_dt", ("z_series_closed", "z_series_direct", "phi_series")),
}
CONTRIBUTIONS = ("fixed_point_contribution", "contribution_from_characters")

# dunders Python calls to look up or set attributes and to build classes;
# they are plumbing, not the layer's arithmetic
_PLUMBING = {"__getattribute__", "__getattr__", "__setattr__", "__delattr__",
             "__init_subclass__", "__subclasshook__", "__class_getitem__", "__new__"}


def _traced_name(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return name not in _PLUMBING
    return not name.startswith("_")


def _fraction_bits(values) -> int:
    bits = 0
    for v in values:
        b = max(v.numerator.bit_length(), v.denominator.bit_length())
        if b > bits:
            bits = b
    return bits


class Tracer:
    def __init__(self):
        self.calls = {}    # (layer, qualname) -> spans
        self.self_s = {}   # (layer, qualname) -> seconds
        self.triples = 0
        self.ratfunc_bits = 0
        self.qseries_bits = 0
        self._stack = []
        self._wrappers = {}  # id(original) -> wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer functions and rebind every sheafcount binding."""
        ratfunc = sys.modules.get(PACKAGE + ".ratfunc")
        qseries = sys.modules.get(PACKAGE + ".qseries")
        self._rf_type = getattr(ratfunc, "RationalFunction", None)
        self._ps_type = getattr(qseries, "PuiseuxSeries", None)
        for layer in LAYERS:
            module = sys.modules.get(PACKAGE + "." + layer)
            if module is None:
                continue
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and _traced_name(name):
                    self._add(layer, obj)
                elif inspect.isclass(obj):
                    for attr, raw in vars(obj).items():
                        fn = getattr(raw, "__func__", raw)
                        if inspect.isfunction(fn) and _traced_name(attr):
                            self._add(layer, fn)
        for modname, module in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                self._rebind(module)

    def _add(self, layer, fn):
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._wrap(layer, fn)

    def _rebind(self, module):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in self._wrappers:
                setattr(module, name, self._wrappers[id(obj)])
            elif inspect.isclass(obj) and obj.__module__.split(".")[0] == PACKAGE:
                for attr, raw in list(vars(obj).items()):
                    fn = getattr(raw, "__func__", raw)
                    wrapper = self._wrappers.get(id(fn)) if inspect.isfunction(fn) else None
                    if wrapper is not None:
                        setattr(obj, attr, type(raw)(wrapper) if raw is not fn else wrapper)

    # -- spans -------------------------------------------------------------

    def _observer(self, layer, qualname):
        rf, ps = self._rf_type, self._ps_type

        def observe(result):
            kind = type(result)
            if kind is rf:
                self.ratfunc_bits = max(self.ratfunc_bits, _fraction_bits(
                    result.num.coeffs + result.den.coeffs))
            elif kind is ps or (layer == "qseries" and hasattr(result, "denominator")):
                values = result.coeffs.values() if kind is ps else (result,)
                self.qseries_bits = max(self.qseries_bits, _fraction_bits(values))

        if (layer, qualname) == ("partitions", "enumerate_triples"):
            def count_triples(result):
                self.triples += len(result)
            return count_triples
        return observe

    def _wrap(self, layer, fn):
        key = (layer, fn.__qualname__)
        self.calls[key] = 0
        self.self_s[key] = 0.0
        calls, self_s, stack = self.calls, self.self_s, self._stack
        observe = self._observer(*key)
        clock = time.perf_counter

        def close(start, end, children, spans=1):
            # end: when the traced work returned; clock() now: after bookkeeping
            stack.pop()
            calls[key] += spans
            self_s[key] += end - start - children[0]
            if stack:
                stack[-1][0] += clock() - start

        if inspect.isgeneratorfunction(fn):
            def resume_spans(gen):
                # one call, one span per resumption of the generator
                while True:
                    children = [0.0]
                    stack.append(children)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(start, clock(), children, 0)
                    yield item

            def traced_gen(*args, **kwargs):
                calls[key] += 1
                return resume_spans(fn(*args, **kwargs))
            return traced_gen

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            end = None
            try:
                result = fn(*args, **kwargs)
                end = clock()
                observe(result)
                return result
            finally:
                close(start, clock() if end is None else end, children)
        return traced

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        out = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k[0] == layer]
            out[layer + ".calls"] = sum(self.calls[k] for k in keys)
            out[layer + ".self_s"] = sum(self.self_s[k] for k in keys)
        for group, (layer, names) in GROUPS.items():
            keys = [(layer, name) for name in names if (layer, name) in self.calls]
            out[group + ".calls"] = sum(self.calls[k] for k in keys)
            out[group + ".self_s"] = sum(self.self_s[k] for k in keys)
        out["partitions.triples"] = self.triples
        out["localization.contributions"] = sum(
            self.calls.get(("localization", name), 0) for name in CONTRIBUTIONS)
        out["ratfunc.max_coeff_bits"] = self.ratfunc_bits
        out["qseries.max_coeff_bits"] = self.qseries_bits
        return out
