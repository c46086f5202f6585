"""hsk keeps no unbounded process-global state.

Every module-level dict, list, set, OrderedDict, WeakValueDictionary and
lru_cache wrapper of the hsk modules is measured before and after the golden
fixture commands run.  Only the interning table of syntax nodes and the
caches named below may change, and each cache stays within its bound.  A
new module-level cache fails here until it is given a bound and named below.

The commands and the measurement run in a fresh interpreter: in the suite's
own process, earlier tests have already run the same commands, so a new
cache would already be full and show no growth.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path
from weakref import WeakValueDictionary, ref

import hsk
from hsk import qcheck, skeleton, syntax

CONTAINERS = (dict, list, set, OrderedDict, WeakValueDictionary)
# Each name that may change, with its bound.  The intern table is the one
# without a bound: a plain dict whose values are weak references only, each
# dropped by its callback when its node dies, so it keeps no node alive.
MAY_CHANGE = {
    "syntax._NODES": None,
    "qcheck._VERDICTS": qcheck._VERDICT_CACHE_LIMIT,
    "skeleton._class_member_buckets": skeleton._CLASS_CACHE_SIZE,
}


def _module_state() -> dict[str, tuple[int, int | None]]:
    """The size of every module-level container of every hsk module, with
    the bound of each lru_cache wrapper."""
    sizes = {}
    for info in pkgutil.iter_modules(hsk.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"hsk.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if hasattr(value, "cache_info"):
                info_now = value.cache_info()
                sizes[f"{info.name}.{name}"] = (info_now.currsize, info_now.maxsize)
            elif isinstance(value, CONTAINERS):
                sizes[f"{info.name}.{name}"] = (len(value), None)
    return sizes


def _measure_golden_runs() -> dict:
    """The module state before and after the golden commands, and each
    command's exit status against the expected one."""
    from test_cli import GOLDEN_RUNS, run_cli

    before = _module_state()
    statuses = [(run_cli(args)[0], status) for args, status, _ in GOLDEN_RUNS]
    return {"before": before, "after": _module_state(), "statuses": statuses,
            "weak": all(isinstance(entry, ref) for entry in syntax._NODES.values())}


def test_only_the_bounded_caches_grow():
    src = str(Path(hsk.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    measured = json.loads(child.stdout)
    before, after = measured["before"], measured["after"]
    assert all(got == want for got, want in measured["statuses"])
    assert measured["weak"]
    assert MAY_CHANGE.keys() <= before.keys()
    assert after.keys() == before.keys()
    changed = {name for name in before if after[name] != before[name]}
    assert changed <= MAY_CHANGE.keys()
    assert "skeleton._class_member_buckets" in changed  # the sreu --solve run fills it
    for name, bound in MAY_CHANGE.items():
        size, maxsize = after[name]
        if bound is not None:
            assert size <= bound, name
        if maxsize is not None:
            assert maxsize == bound, name


if __name__ == "__main__":
    print(json.dumps(_measure_golden_runs()))
