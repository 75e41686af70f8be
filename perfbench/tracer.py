"""Per-layer spans for a traced benchmark pass, recorded from outside the program.

``install`` wraps every public function and public method of the weylslice
layer modules, rebinds every alias of them (``from .x import name``) in the
package's modules, and fails if any alias is left unwrapped.  While
``Tracer.active`` is set, every wrapped call records a span.  Spans are
aggregated per (layer, function) into calls, total time and self time, where
self time is the span minus its child spans.  Functions are keyed by their
bare name, so ``rootsys.length`` counts both ``WeylElement.length`` and the
module function ``length``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fields", "linalg", "matgroups", "rootsys", "toruslat", "sevslice",
          "sheetcat", "families", "sliceverify", "fforacle", "reportcli")

# Per-scalar field operations are not wrapped: B4 S alone makes more than
# 100M is_zero calls.  Their time lands in the calling layer's self time.
SCALAR_OPS = frozenset({"of", "add", "sub", "mul", "neg", "inv", "div",
                        "is_zero"})

FIELD_KINDS = {"PrimeField": "fp", "ExtField": "ext", "Rationals": "qq"}


class CoverageError(RuntimeError):
    """A public layer function is still reachable unwrapped."""


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = Counter()      # exceptions leaving the outermost span of a key
        self.edges = Counter()       # (parent key, child key) -> calls
        self.linalg_kind_s = defaultdict(float)  # linalg self time by field type
        self.counters = Counter()    # counts read off return values
        self.originals = {}          # id(original) -> (original, wrapper, layer)
        self.aliases = Counter()     # layer -> aliases rebound outside its module
        self.keys = set()            # every (layer, function) wrapped
        self._groups = {}            # enumerated groups, by id
        self._stack = []

    def wrap(self, fn, layer: str, name: str, register: bool = True):
        key = (layer, name)
        self.keys.add(key)
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        hook = RESULT_HOOKS.get(key)
        by_kind = layer == "linalg"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != key:
                    tracer.errors[key] += 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                own = span - frame[1]
                tracer.calls[key] += 1
                tracer.total_s[key] += span
                tracer.self_s[key] += own
                if parent is not None:
                    parent[1] += span
                    tracer.edges[parent[0], key] += 1
                if by_kind and args:
                    kind = FIELD_KINDS.get(type(args[0]).__name__, "other")
                    tracer.linalg_kind_s[kind] += own
            if hook is not None:
                hook(tracer, result)
            return result

        if register:
            self.originals[id(fn)] = (fn, traced, layer)
        return traced

    def layer_self(self, layer: str) -> float:
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)


# -- counts read off return values ---------------------------------------------

def _count_group(tracer, group):
    if id(group) not in tracer._groups:
        tracer._groups[id(group)] = group
        tracer.counters["fforacle.elements"] += group.order


def _count_class(tracer, cls):
    tracer.counters["fforacle.elements"] += cls.size


def _count_escalation(tracer, report):
    tracer.counters["fforacle.escalations"] += bool(report.extension_used)


def _count_rows(tracer, result):
    tracer.counters["reportcli.rows"] += len(result[1])


def _count_certificate(tracer, cert):
    tracer.counters["in_requested"] += max(1, cert.n_in) * cert.found_components
    tracer.counters["out_requested"] += cert.n_out


RESULT_HOOKS = {
    ("fforacle", "enumerate_group"): _count_group,
    ("fforacle", "expand_class"): _count_class,
    ("fforacle", "slice_orbit_check"): _count_escalation,
    ("reportcli", "run"): _count_rows,
    ("sliceverify", "certify_components"): _count_certificate,
}


# -- installation ----------------------------------------------------------------

def _is_own_function(obj, mod) -> bool:
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")  # lru_cache


def _wrap_methods(tracer: Tracer, cls, layer: str) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") or (layer == "fields" and name in SCALAR_OPS):
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            wrapped = type(attr)(tracer.wrap(attr.__func__, layer, name))
        elif inspect.isfunction(attr):
            wrapped = tracer.wrap(attr, layer, name)
        else:
            continue
        setattr(cls, name, wrapped)


def _wrap_component_points(tracer: Tracer, families) -> None:
    """Component.point closures are built per family: wrap each one as built."""
    cls = families.Component
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        object.__setattr__(self, "point", tracer.wrap(
            self.point, "families", "point", register=False))

    cls.__init__ = __init__


def _scope(extra_modules):
    pkg = [m for name, m in sorted(sys.modules.items())
           if name == "weylslice" or name.startswith("weylslice.")]
    return pkg + list(extra_modules)


def find_unwrapped(tracer: Tracer, modules) -> list[str]:
    """Module bindings (direct, or one level inside a container) of originals."""
    missing = []

    def is_original(obj):
        entry = tracer.originals.get(id(obj))
        return entry is not None and entry[0] is obj

    for mod in modules:
        for name, obj in vars(mod).items():
            if isinstance(obj, dict):
                items = list(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                items = list(obj)
            else:
                items = [obj]
            if any(is_original(x) for x in items):
                missing.append(f"{mod.__name__}.{name}")
    return missing


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap every layer's public functions and methods and all their aliases."""
    mods = {layer: importlib.import_module(f"weylslice.{layer}")
            for layer in LAYERS}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if _is_own_function(obj, mod):
                setattr(mod, name, tracer.wrap(obj, layer, name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_methods(tracer, obj, layer)
    _wrap_component_points(tracer, mods["families"])
    scope = _scope(extra_modules)
    for mod in scope:
        for name, obj in list(vars(mod).items()):
            entry = tracer.originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, name, entry[1])
                tracer.aliases[entry[2]] += 1
    missing = find_unwrapped(tracer, scope)
    if missing:
        raise CoverageError("unwrapped layer functions: " + ", ".join(missing))


# -- per-layer metrics -----------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _in_samples_checked(t: Tracer) -> float:
    # each claimed point that did not raise reaches membership once, directly
    # from certify_components; the other n_out calls are off-locus samples
    reached = t.edges[("sliceverify", "certify_components"),
                      ("families", "membership")] - t.counters["out_requested"]
    return _ratio(reached, t.counters["in_requested"])


SPECIAL = {
    "linalg.fp.self_s": lambda t: t.linalg_kind_s["fp"],
    "linalg.ext.self_s": lambda t: t.linalg_kind_s["ext"],
    "linalg.qq.self_s": lambda t: t.linalg_kind_s["qq"],
    "linalg.mat_pow.products_per_call": lambda t: _ratio(
        t.edges[("linalg", "mat_pow"), ("linalg", "mat_mul")],
        t.calls[("linalg", "mat_pow")]),
    "matgroups.bruhat_word.per_element": lambda t: _ratio(
        t.calls[("matgroups", "bruhat_word")], t.counters["fforacle.elements"]),
    "matgroups.in_group.from_bruhat_word": lambda t: t.edges[
        ("matgroups", "bruhat_word"), ("matgroups", "in_group")],
    "families.point.errors": lambda t: t.errors[("families", "point")],
    "sliceverify.in_samples_checked_ratio": _in_samples_checked,
    "sliceverify.equation_chain.self_s": lambda t: t.self_s[
        ("sliceverify", "verify_equation_chain_Bn")],
    "sliceverify.gamma_checks.self_s": lambda t: sum(
        v for (lay, fn), v in t.self_s.items()
        if lay == "sliceverify" and fn.startswith("gamma_")),
    "fforacle.elements": lambda t: t.counters["fforacle.elements"],
    "fforacle.escalations": lambda t: t.counters["fforacle.escalations"],
    "reportcli.rows": lambda t: t.counters["reportcli.rows"],
}


def metric_value(t: Tracer, name: str):
    if name in SPECIAL:
        return SPECIAL[name](t)
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_s":
        return t.layer_self(parts[0])
    layer, fn, kind = parts
    return {"calls": t.calls, "self_s": t.self_s}[kind][(layer, fn)]


def unknown_functions(t: Tracer, names) -> list[str]:
    """Generic `layer.function.kind` metrics whose function was never wrapped."""
    return [name for name in names
            if name not in SPECIAL and name.count(".") == 2
            and tuple(name.split(".")[:2]) not in t.keys]


def top_self(t: Tracer, n: int = 12) -> list:
    """[function, self s, total s, calls] for the n largest self times."""
    rows = sorted(t.self_s.items(), key=lambda kv: -kv[1])[:n]
    return [[f"{key[0]}.{key[1]}", round(s, 4), round(t.total_s[key], 4),
             t.calls[key]] for key, s in rows]
