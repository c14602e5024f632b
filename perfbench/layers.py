"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces functions of the ``pg4`` modules with wrappers.
``from .transform import compose`` copies the binding, so each wrapper is
patched into every ``pg4`` module whose name is bound to the original.

Timed functions keep a span stack: a span's self time is its duration minus
the time of the spans it called.  The hot leaves (``quat_mul``, ``compose``,
``apply``, ``_alg_mul``, ``FieldElem.__mul__``/``__rmul__``) are only counted,
because a clock read per call would cost more than the call.  A function
missing from the library is skipped and its metrics are left out.

The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

from caches import cache_sizes, lru_cached, pg4_attr

TIMED = [
    ("group", "generate"), ("group", "fingerprint"), ("transform", "element_code"),
    ("catalog", "build"), ("catalog", "list_catalog"),
    ("toroidal", "torus_element"), ("toroidal", "classify_toroidal"),
    ("toroidal", "canonicalize_duplicates"), ("toroidal", "duplication_conjugator"),
    ("toroidal", "_searched_duplicate"),
    ("classify", "classify"), ("classify", "category"),
    ("counting", "count_order"), ("counting", "count_self_mirror"),
    ("orbits", "orbit"), ("orbits", "polar_cell"), ("orbits", "color_orbits"),
    ("orbits", "export_mesh"),
    ("cli", "main"),
]
COUNTED = [("algebra", "quat_mul"), ("algebra", "_alg_mul"), ("transform", "compose"),
           ("transform", "apply"), ("toroidal", "_fp_string")]
# Every public function and method of this module is one span name.
WHOLE_MODULE = "hopf"


def _rebind(orig, wrapper) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "pg4" or modname.startswith("pg4."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.active = Counter()
        self.stack = []  # time spent in child spans, one entry per open span
        self.extra = Counter()
        self._alg_cache0 = 0

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn):
        calls, self_s, active, stack = self.calls, self.self_s, self.active, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                active[name] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _quat_mul(self, fn, alg_type):
        calls, extra = self.calls, self.extra

        def wrapper(a, b):
            calls["algebra.quat_mul"] += 1
            if type(a) is alg_type or type(b) is alg_type:
                extra["quat_mul.field"] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _compose(self, fn):
        calls, extra, active = self.calls, self.extra, self.active

        def wrapper(g, h):
            calls["transform.compose"] += 1
            if active["group.generate"]:
                extra["generate.composes"] += 1
            return fn(g, h)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generate(self, fn):
        extra = self.extra

        def wrapper(*args, **kwargs):
            G = fn(*args, **kwargs)
            extra["generate.elements"] += len(G.elements)
            return G

        wrapper.__wrapped__ = fn
        return self.timed("group.generate", wrapper)

    def _build(self, fn):
        extra, active = self.extra, self.active

        def wrapper(*args, **kwargs):
            if active["classify.classify"]:
                extra["classify.builds"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return self.timed("catalog.build", wrapper)

    def _fp_string(self, fn):
        extra, active = self.extra, self.active

        def wrapper(spec):
            if active["toroidal._searched_duplicate"]:
                extra["search.fingerprints"] += 1
            return fn(spec)

        wrapper.__wrapped__ = fn
        return self.counted("toroidal._fp_string", wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import pg4  # noqa: F401
        special = {("group", "generate"): self._generate, ("catalog", "build"): self._build,
                   ("toroidal", "_fp_string"): self._fp_string,
                   ("transform", "compose"): self._compose}
        alg_type = pg4_attr("algebra", "AlgQuat")
        for mod, name in TIMED + COUNTED:
            orig = pg4_attr(mod, name)
            if orig is None:
                continue
            if (mod, name) in special:
                wrapper = special[mod, name](orig)
            elif (mod, name) == ("algebra", "quat_mul") and alg_type is not None:
                wrapper = self._quat_mul(orig, alg_type)
            elif (mod, name) in TIMED:
                wrapper = self.timed(f"{mod}.{name}", orig)
            else:
                wrapper = self.counted(f"{mod}.{name}", orig)
            _rebind(orig, wrapper)
        self._install_module(WHOLE_MODULE)
        field = pg4_attr("algebra", "FieldElem")
        if field is not None:
            for op in ("__mul__", "__rmul__"):
                if op in vars(field):
                    setattr(field, op, self.counted("algebra.fieldelem_mul", vars(field)[op]))
        cache = pg4_attr("algebra", "_ALG_MUL_CACHE")
        self._alg_cache0 = len(cache) if isinstance(cache, dict) else 0

    def _install_module(self, modname: str) -> None:
        try:
            mod = importlib.import_module("pg4." + modname)
        except ImportError:
            return
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                _rebind(obj, self.timed(modname, obj))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, staticmethod):
                        setattr(obj, attr, staticmethod(self.timed(modname, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, attr, self.timed(modname, member))

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer values of one run; names missing from the library are left out."""
        calls, self_s, extra = self.calls, self.self_s, self.extra
        out = {}

        def ratio(num, den):
            return num / den if den else 0.0

        present = {f"{m}.{n}" for m, n in TIMED + COUNTED if pg4_attr(m, n) is not None}
        for name in present:
            out[f"{name}.calls"] = calls[name]
            if tuple(name.split(".", 1)) in TIMED:
                out[f"{name}.self_s"] = self_s[name]
        out[f"{WHOLE_MODULE}.self_s"] = self_s[WHOLE_MODULE]
        if "algebra.quat_mul" in present:
            out["algebra.quat_mul.field_share"] = ratio(extra["quat_mul.field"],
                                                        calls["algebra.quat_mul"])
        if pg4_attr("algebra", "FieldElem") is not None:
            out["algebra.fieldelem_mul.calls"] = calls["algebra.fieldelem_mul"]
        cache = pg4_attr("algebra", "_ALG_MUL_CACHE")
        if "algebra._alg_mul" in present and isinstance(cache, dict):
            misses = len(cache) - self._alg_cache0
            out["algebra.alg_mul.hit_ratio"] = ratio(calls["algebra._alg_mul"] - misses,
                                                     calls["algebra._alg_mul"])
        if "group.generate" in present:
            out["group.generate.new_per_compose"] = ratio(extra["generate.elements"],
                                                          extra["generate.composes"])
        if "classify.classify" in present:
            out["classify.classify.builds_per_call"] = ratio(extra["classify.builds"],
                                                             calls["classify.classify"])
        if "toroidal._searched_duplicate" in present:
            out["toroidal.searched_duplicate.fp_per_search"] = ratio(
                extra["search.fingerprints"], calls["toroidal._searched_duplicate"])
        conj = lru_cached(pg4_attr("toroidal", "duplication_conjugator"))
        if conj is not None:
            info = conj.cache_info()
            out["toroidal.duplication_conjugator.hit_ratio"] = ratio(info.hits,
                                                                     info.hits + info.misses)
        out.update(cache_sizes())
        return out
