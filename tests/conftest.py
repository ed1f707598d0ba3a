import importlib
import pkgutil

import pytest

import sheafcount
from sheafcount import qseries

# every cache of the package, found by looking: each function of a module
# of sheafcount that has a cache_clear
CACHES = {f for info in pkgutil.iter_modules(sheafcount.__path__)
          for f in vars(importlib.import_module(
              "sheafcount." + info.name)).values()
          if hasattr(f, "cache_clear")}


@pytest.fixture(autouse=True)
def cold_caches():
    # those caches and qseries' Euler powers, cleared before and after each
    # test: a leg summed or a hook split under one test's mutant or patch
    # must not reach another test, and a test that expects a sum to be
    # taken must find the cache empty
    def clear():
        for cached in CACHES:
            cached.cache_clear()
        qseries._euler_pow_cache.clear()
    clear()
    yield
    clear()
