"""Smoke test of the benchmark itself; takes a few seconds.

    python3 perfbench/smoke.py

Checks that a fixed seed gives identical problem texts (and another seed
different ones), and that a deliberately wrong expected answer, an
exception and a timeout are each counted as a failure, never as a verdict.
Exits 0 when every check holds.
"""

from __future__ import annotations

import random
import signal
import sys

import run
from problems import Problem, exact, make_batch, pigeonhole, Names, WORKLOADS


def check(holds: bool, what) -> None:
    if not holds:
        raise SystemExit(f"smoke test failed: {what}")


def texts(workload: str, seed: int, batch: int) -> list[tuple]:
    return [p.key() for p in make_batch(workload, seed, batch, run.ROOT)]


def main() -> int:
    for workload in WORKLOADS:
        check(texts(workload, 7, 0) == texts(workload, 7, 0), workload)
        check(texts(workload, 7, 0) != texts(workload, 8, 0), workload)
        check(texts(workload, 7, 0) != texts(workload, 7, 1), workload)
    print("fixed seed gives identical problem texts: ok")

    sys.path.insert(0, str(run.ROOT / "src"))
    signal.signal(signal.SIGALRM, run._on_alarm)
    cli = run.import_hsk()
    goldens = [p for p in make_batch("sreu", 7, 0, run.ROOT) if p.family.startswith("golden")]
    right = goldens[0]
    wrong = Problem("deliberately-wrong", right.command, right.text,
                    exact(0, "deliberately wrong\n"))
    broken = Problem("unparsable", dict(command="check"), "a = ", exact(0, ""))
    slow = pigeonhole(6, 5, Names(random.Random(7)))

    loop = run.ClosedLoop(cli, "sreu", 7)
    loop.run_batch(goldens + [wrong, broken], None)
    limit, run.PROBLEM_LIMIT_S = run.PROBLEM_LIMIT_S, 0.05
    try:
        loop.run_batch([slow], None)
    finally:
        run.PROBLEM_LIMIT_S = limit
    outcomes = [sample.outcome for sample in loop.samples]
    check(outcomes == ["ok"] * len(goldens) + ["wrong", "ParseError", "timeout"], outcomes)
    for sample in loop.samples:
        sample.scaled = sample.seconds
    figures = run.end_to_end(loop.samples, setup_s=0.0)
    expected_ok = len(goldens) / len(outcomes)
    check(abs(figures["ok_frac"][0] - expected_ok) < 1e-12, figures["ok_frac"])
    print(f"wrong answer, exception and timeout counted as failures: ok "
          f"(ok_frac {figures['ok_frac'][0]:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
