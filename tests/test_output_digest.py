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


if __name__ == "__main__":
    for workload, seed in BATCHES:
        size, digest = batch_digest(workload, seed)
        print(f'    ("{workload}", {seed}): ({size}, "{digest}"),')
