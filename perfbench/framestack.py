"""Calls that start hsk at a fixed offset of CPython's frame stack.

CPython 3.11 keeps frames in 16 KiB chunks and maps and unmaps a chunk
whenever a call crosses into it.  Where hsk's recursion meets a chunk
boundary, every backtrack pays for a map and an unmap in page faults:
PHP(6,5) takes 2.4 s or 6 s depending on the frames below it.  Calling
through `on_fresh_chunk` makes that depend on hsk's own frames only.
"""

from __future__ import annotations


def _fresh_chunk_caller():
    """A function that calls fn(*args) from the start of a new frame-stack
    chunk: its 2040 never-assigned locals make its frame too big for any
    chunk in use, so every call maps a chunk of its own."""
    names = " = ".join(f"_{i}" for i in range(2040))
    namespace: dict = {}
    exec(f"def call(fn, *args):\n    if False:\n        {names} = None\n"
         f"    return fn(*args)\n", namespace)
    return namespace["call"]


on_fresh_chunk = _fresh_chunk_caller()
