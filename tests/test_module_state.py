"""hsk keeps no unbounded process-global state.

Every module-level dict, list, set, OrderedDict, WeakValueDictionary and
lru_cache wrapper of the hsk modules is measured before and after the golden
fixture commands run.  Only the interning table of syntax nodes and the two
caches may change, and each cache stays within its bound.  A new
module-level cache fails here until it is given a bound and named below.
"""

import importlib
import pkgutil
from collections import OrderedDict
from weakref import WeakValueDictionary

import hsk
from hsk import qcheck, skeleton
from test_cli import GOLDEN_RUNS, run_cli

CONTAINERS = (dict, list, set, OrderedDict, WeakValueDictionary)
MAY_CHANGE = {"syntax._NODES", "qcheck._VERDICTS", "skeleton._class_member_buckets"}


def _module_state() -> dict[str, int]:
    """The size of every module-level container of every hsk module."""
    sizes = {}
    for info in pkgutil.iter_modules(hsk.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"hsk.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if hasattr(value, "cache_info"):
                sizes[f"{info.name}.{name}"] = value.cache_info().currsize
            elif isinstance(value, CONTAINERS):
                sizes[f"{info.name}.{name}"] = len(value)
    return sizes


def test_only_the_bounded_caches_grow():
    before = _module_state()
    assert MAY_CHANGE <= before.keys()
    for args, status, _ in GOLDEN_RUNS:
        assert run_cli(args)[0] == status
    after = _module_state()
    assert after.keys() == before.keys()
    assert {name for name in before if after[name] != before[name]} <= MAY_CHANGE
    assert len(qcheck._VERDICTS) <= qcheck._VERDICT_CACHE_LIMIT
    buckets = skeleton._class_member_buckets.cache_info()
    assert buckets.maxsize == skeleton._CLASS_CACHE_SIZE
    assert buckets.currsize <= skeleton._CLASS_CACHE_SIZE
