"""Run one orbifold4 CLI command with span timers around every layer.

Usage: python perfbench/tracer.py TRACE_OUT.json <cli arguments...>

Imports every orbifold4 module, wraps its public functions and methods (and
the private functions other modules import) in span timers, rebinds the
names that `from ... import` copied into other modules, then runs
`orbifold4.cli.main`.  A layer is the module that defines a function; its
self time is the time inside its spans minus the time inside their child
spans.  Functions returned by a wrapped factory (the form evaluators and
radial profiles of sympverify) are wrapped in the factory's layer.  The
trace is written to TRACE_OUT.json when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import types

# dunder methods that are the arithmetic API of the exact types
ARITH = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__matmul__",
         "__neg__", "__truediv__", "__pow__", "__eq__"}
POINT_COUNTERS = {"eval_omega_a", "eval_omega0", "tameness_min"}

perf = time.perf_counter
stack = [0.0]          # child seconds accumulated by each open span, root first
self_s: dict = {}      # layer -> self seconds
calls: dict = {}       # qualified name -> calls
incl_s: dict = {}      # qualified name -> inclusive seconds
counts: dict = {}      # extra counters
mul_s: dict = {}       # conductor -> [multiplications, seconds]


def _count(key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


def span(fn, layer: str, name: str, post=None):
    self_s.setdefault(layer, 0.0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            el = perf() - t0
            child = stack.pop()
            stack[-1] += el
            self_s[layer] += el - child
            calls[name] = calls.get(name, 0) + 1
            incl_s[name] = incl_s.get(name, 0.0) + el
        return post(result, args, el) if post else result
    return wrapper


def _mul_span(fn, layer: str, name: str):
    """Multiplication spans also record the conductor of the product."""
    def post(result, _args, el):
        rec = mul_s.setdefault(result.conductor, [0, 0.0])
        rec[0] += 1
        rec[1] += el
        return result
    return span(fn, layer, name, post)


def _factory_post(layer: str, name: str, fn_name: str):
    def post(result, args, _el):
        if fn_name == "generate_group":
            _count("groups.elements_closed", result.order)
        if fn_name in POINT_COUNTERS:
            pts = args[2] if fn_name == "tameness_min" else args[1]
            _count(f"points.{fn_name}", getattr(pts, "size", 0) // 4)
        return _wrap_result(result, layer, name)
    return post


def _wrap_result(result, layer: str, name: str):
    if isinstance(result, types.FunctionType):
        return span(result, layer, f"{name}.<result>")
    if type(result).__name__ == "RadialProfile":
        for field in ("value", "d1", "d2"):
            setattr(result, field, span(getattr(result, field), layer, f"{name}.{field}"))
    return result


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1]


def install() -> None:
    import orbifold4
    modules = [orbifold4] + [importlib.import_module(info.name) for info in
                             pkgutil.walk_packages(orbifold4.__path__, "orbifold4.")]
    mods = [m for m in modules if m.__name__ != "orbifold4"]
    imported = {id(v) for m in modules for k, v in vars(m).items()
                if isinstance(v, types.FunctionType) and v.__module__ != m.__name__}
    replaced: dict = {}
    for mod in mods:
        layer = _layer(mod.__name__)
        for key, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                if key.startswith("_") and id(val) not in imported:
                    continue
                name = f"{layer}.{key}"
                wrapped = span(val, layer, name, _factory_post(layer, name, key))
                replaced[id(val)] = wrapped
                setattr(mod, key, wrapped)
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                _wrap_class(val, layer)
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, key, replaced[id(val)])


def _wrap_class(cls, layer: str) -> None:
    import dataclasses
    for key, val in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{key}"
        public = not key.startswith("_")
        if key == "__init__" and not dataclasses.is_dataclass(cls):
            setattr(cls, key, span(val, layer, name))
        elif key in ARITH and isinstance(val, types.FunctionType):
            mul = key in ("__mul__", "__rmul__") and cls.__name__ == "CyclotomicScalar"
            maker = _mul_span if mul else span
            setattr(cls, key, maker(val, layer, name))
        elif public and isinstance(val, types.FunctionType):
            setattr(cls, key, span(val, layer, name))
        elif public and isinstance(val, staticmethod):
            setattr(cls, key, staticmethod(span(val.__func__, layer, name)))
        elif public and isinstance(val, property) and val.fget is not None:
            setattr(cls, key, property(span(val.fget, layer, name), val.fset, val.fdel))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    import orbifold4.cli as cli
    t_main = perf()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        trace = {
            "t_main": t_main, "self_s": self_s, "calls": calls, "incl_s": incl_s,
            "counts": counts, "mul_s": {str(n): v for n, v in mul_s.items()},
        }
        with open(out_path, "w") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main())
