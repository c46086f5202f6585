"""Every benchmark output stays byte for byte what it was.

Batch 0 of seeds 7 and 11 of each benchmark workload runs through
`cli.run`, from cold caches as `perfbench/run.py` starts each batch, and
the sha256 of its (exit status, output) pairs, in order, must equal the
digest written below.  The benchmark's own checks accept any correct
answer; this test also holds the witnesses, their order and every byte
of the printed text.

A change that alters some output on purpose updates the digests here and
says in CHANGES.md which outputs changed and why.  To print the digests of
the current code: ``PYTHONPATH=src python tests/test_output_digest.py``.

Beside the outputs, batch 0 of seed 7 of each workload pins the work that
makes them, in counts that do not depend on the machine: the conjuncts
`SearchMemo.holds` decides (its verdict-cache misses), the calls of
`qcheck.entails` and `qcheck.falsifying_literals`, the matches
`skeleton._horn` makes, and the enumeration and join work of `skeleton`:
the enumerations `_sized_terms` builds, the closures `_congruence_table`
builds, the calls of `_intersection` and `_key_states`, the indexes
`_index` builds, the sides `_side_program` compiles and the runs of the
programs it compiles.  A change that moves a count on purpose updates it
here and says in CHANGES.md why.
"""

import hashlib
import json

import pytest

from helpers import ROOT, bench_problems
from hsk import cli, qcheck, skeleton

BATCHES = [(workload, seed) for workload in ("validity", "solve", "sreu") for seed in (7, 11)]
# (workload, seed): (problems in batch 0, sha256 of their outputs).  The
# seed moves a validity problem's names and sizes but not its output, a
# verdict or a countermodel's alpha, so both seeds give one digest there.
DIGESTS = {
    ("validity", 7): (153, "4b5e3af207996494872a6baaad28fb286cc119909b3b0f1a9705fef84e8d1a6d"),
    ("validity", 11): (153, "4b5e3af207996494872a6baaad28fb286cc119909b3b0f1a9705fef84e8d1a6d"),
    ("solve", 7): (101, "fcc4ff6a0e19ca47f435be40713bd1b15740cf8c8a534149972c1a75fc0e6656"),
    ("solve", 11): (101, "bc89b12c3d417196ea22441514103b9fe91cea23724714063a6db5f04a1feed3"),
    ("sreu", 7): (104, "f6e0b556007cdeabaa222eb68b557c3cd78d7940d78f5713484a428e8c9250a5"),
    ("sreu", 11): (104, "7c2e6b5be546d969a7022358ce5f51136e76bea1747c3d97bcaf48ee5a2ac842"),
}


def batch_digest(workload: str, seed: int) -> tuple[int, str]:
    """The size of batch 0 and the sha256 of its (status, output) pairs."""
    qcheck._VERDICTS.clear()
    skeleton._class_member_buckets.cache_clear()
    digest = hashlib.sha256()
    batch = bench_problems().make_batch(workload, seed, 0, ROOT)
    for problem in batch:
        status, output = cli.run(cli.RunConfig(**problem.command), problem.text)
        digest.update(json.dumps([status, output]).encode("utf-8") + b"\n")
    return len(batch), digest.hexdigest()


@pytest.mark.parametrize("workload,seed", BATCHES)
def test_batch_outputs_match_their_digest(workload, seed):
    assert batch_digest(workload, seed) == DIGESTS[workload, seed]


# The skeleton functions whose calls are counted, after the first four counts.
SKELETON_WORK = ("_sized_terms", "_congruence_table", "_intersection", "_key_states",
                 "_index", "_side_program")
# workload: (decisions, entails, falsifying_literals, _horn, *SKELETON_WORK,
# side-program runs) in batch 0 of seed 7
WORK = {
    "validity": (0, 0, 232, 0, 0, 0, 0, 0, 0, 0, 0),
    "solve": (176, 116, 58, 269, 113, 127, 86, 56, 14, 28, 1518),
    "sreu": (671, 671, 0, 497, 155, 401, 79, 0, 0, 0, 0),
}


@pytest.mark.parametrize("workload", WORK)
def test_batch_work_matches_its_counts(workload, monkeypatch):
    counts = dict.fromkeys(("decisions", "entails", "falsifying_literals", "_horn",
                            *SKELETON_WORK, "side-program runs"), 0)
    holds = skeleton.SearchMemo.holds

    def deciding(memo, c, used, assignment, last):
        counts["decisions"] += (c, tuple(assignment[u] for u in used)) not in memo.verdicts
        return holds(memo, c, used, assignment, last)

    def counting(name, call):
        def counted(*args):
            counts[name] += 1
            return call(*args)
        return counted

    monkeypatch.setattr(skeleton.SearchMemo, "holds", deciding)
    for module, name in ((qcheck, "entails"), (qcheck, "falsifying_literals"),
                         *((skeleton, name) for name in ("_horn", *SKELETON_WORK))):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    compile_side = skeleton._side_program  # counts its compiles

    def compiling(*args):  # and the runs of the programs it compiles
        return counting("side-program runs", compile_side(*args))

    monkeypatch.setattr(skeleton, "_side_program", compiling)
    batch_digest(workload, 7)
    assert tuple(counts.values()) == WORK[workload]


if __name__ == "__main__":
    for workload, seed in BATCHES:
        size, digest = batch_digest(workload, seed)
        print(f'    ("{workload}", {seed}): ({size}, "{digest}"),')
