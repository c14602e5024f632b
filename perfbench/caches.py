"""The library's process-global caches, looked up by name.

A fresh interpreter must start with the ``lru_cache``d constructors empty; a
traced run reports every cache's size at its end.  A cache missing from the
library is skipped.
"""

from __future__ import annotations

import importlib

# Caches that must be empty in a fresh interpreter, and whose sizes are reported.
LRU_CACHES = [("catalog", "_polyhedral_group"), ("catalog", "_axial_group"),
              ("toroidal", "_built"), ("toroidal", "_fp_string"),
              ("toroidal", "duplication_conjugator")]
DICT_CACHES = [("algebra", "_ALG_MUL_CACHE"), ("algebra", "_CYC_CACHE")]


def pg4_attr(module: str, name: str):
    """The attribute, or None when the module or name no longer exists."""
    try:
        return getattr(importlib.import_module("pg4." + module), name, None)
    except ImportError:
        return None


def lru_cached(fn):
    """The ``lru_cache`` wrapper under any tracing wrappers, or None."""
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn


def lru_sizes() -> dict:
    out = {}
    for mod, name in LRU_CACHES:
        fn = lru_cached(pg4_attr(mod, name))
        if fn is not None:
            out[f"{mod}.{name}"] = fn.cache_info().currsize
    return out


def cache_sizes() -> dict:
    out = {f"{name}.cache_size": n for name, n in lru_sizes().items()}
    for mod, name in DICT_CACHES:
        cache = pg4_attr(mod, name)
        if isinstance(cache, dict):
            out[f"{mod}.{name}.size"] = len(cache)
    return out
