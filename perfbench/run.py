"""hsk benchmark: known-answer problems driven through `hsk.cli.run`.

    python3 perfbench/run.py --workload {validity,solve,sreu} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; hsk is imported from `src/`.  The
load is a closed loop with one client: one process, no threads, each
problem starting after the previous one returned.  A batch is the
workload's full problem list (see problems.py); batches run whole, each
with hsk's process-global caches emptied, until S seconds have passed.
Every output is checked against the answer known from the problem's
construction, and a timer on this process stops any problem after
PROBLEM_LIMIT_S.  A failure is a wrong output, an exception or a timeout;
it never counts as a verdict.  Times are scaled to a reference machine
speed (see clock.py).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` batches alternate untraced and traced,
the metrics are the per-layer figures of the traced batches plus the
tracing overhead against the untraced ones, and the spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
from framestack import on_fresh_chunk  # noqa: E402
import problems as problem_set  # noqa: E402
from spans import Tracer  # noqa: E402

PROBLEM_LIMIT_S = 30.0  # the slowest passing problem, PHP(6,5), takes 3 to 5 s
LAST_START_S = 120.0  # no problem starts later than this after process start
SETUP_REPEATS = 5

PROCESS_START = time.perf_counter()


class ProblemTimeout(BaseException):
    """Raised by the interval timer inside an over-long problem."""


def _on_alarm(signum, frame):
    raise ProblemTimeout()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=problem_set.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_hsk():
    """Import hsk afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "hsk" or m.startswith("hsk.")]:
        del sys.modules[name]
    return importlib.import_module("hsk.cli")


def set_up(workload: str, seed: int):
    """Import hsk and generate the first batch, SETUP_REPEATS times; the
    set-up time is the median, scaled by the kernel runs on either side."""
    times, kernels = [], [clock.time_kernel()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_hsk()
        batch = problem_set.make_batch(workload, seed, 0, ROOT)
        times.append(time.perf_counter() - start)
        kernels.append(clock.time_kernel())
    return cli, batch, statistics.median(clock.scaled(times, kernels))


def clear_caches() -> None:
    """Empty hsk's process-global caches, so every batch starts as cold as
    a fresh process."""
    verdicts = getattr(sys.modules.get("hsk.qcheck"), "_VERDICTS", None)
    if isinstance(verdicts, dict):
        verdicts.clear()
    buckets = getattr(sys.modules.get("hsk.skeleton"), "_class_member_buckets", None)
    if hasattr(buckets, "cache_clear"):
        buckets.cache_clear()


@dataclass
class Sample:
    family: str
    traced: bool
    seconds: float  # raw wall time through cli.run
    outcome: str  # ok, wrong, timeout, or the name of the exception raised
    out_bytes: int
    scaled: float = 0.0  # seconds at the reference machine speed


def run_problem(cli, problem, tracer: Tracer | None) -> Sample:
    """Run one problem through cli.run and check its output."""
    config = cli.RunConfig(**problem.command)
    marks: list[float] = []

    def attempt():
        marks.append(time.perf_counter())
        try:
            if tracer is None:
                return cli.run(config, problem.text)
            return tracer.span("cli", cli.run, config, problem.text)
        finally:
            marks.append(time.perf_counter())

    signal.setitimer(signal.ITIMER_REAL, PROBLEM_LIMIT_S)
    try:
        status, output = on_fresh_chunk(attempt)
        outcome = "ok" if problem.check(status, output) else "wrong"
    except ProblemTimeout:
        outcome, output = "timeout", ""
    except Exception as error:  # any exception is a failure, never a verdict
        outcome, output = type(error).__name__, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = marks[1] if len(marks) > 1 else time.perf_counter()
    return Sample(problem.family, tracer is not None, end - marks[0], outcome,
                  len(output.encode("utf-8")))


class ClosedLoop:
    """The closed loop over whole batches, and what it observed."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.samples: list[Sample] = []
        self.kernels: list[float] = []  # one before each problem, one after the last
        self.batches = {False: 0, True: 0}
        self.minor_faults = {False: 0, True: 0}
        self.cut = False

    def run_batch(self, batch: list, tracer: Tracer | None) -> None:
        traced = tracer is not None
        clear_caches()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for problem in batch:
            if time.perf_counter() - PROCESS_START > LAST_START_S:
                self.cut = True
                return
            if tracer is not None:
                tracer.problem = len(self.samples)
            self.kernels.append(clock.time_kernel())
            self.samples.append(run_problem(self.cli, problem, tracer))
        self.batches[traced] += 1
        self.minor_faults[traced] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    def run(self, first: list, seconds: float, tracer: Tracer | None) -> None:
        """Run batches until `seconds` have passed; with a tracer, untraced
        and traced batches alternate and the loop ends after a traced one."""
        start = time.perf_counter()
        index, batch = 0, first
        while True:
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            try:
                self.run_batch(batch, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            index += 1
            if self.cut or (time.perf_counter() - start >= seconds
                            and (tracer is None or traced)):
                break
            batch = problem_set.make_batch(self.workload, self.seed, index, ROOT)
        self.kernels.append(clock.time_kernel())
        scaled = clock.scaled([s.seconds for s in self.samples], self.kernels)
        for sample, seconds in zip(self.samples, scaled):
            sample.scaled = seconds


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(samples: list[Sample], setup_s: float) -> dict:
    ok = sum(s.outcome == "ok" for s in samples)
    # a failed problem counts as having used the whole limit
    latencies = [s.scaled if s.outcome == "ok" else PROBLEM_LIMIT_S for s in samples]
    return {
        "setup_s": (setup_s, "s"),
        "problems_per_s": (ok / sum(s.scaled for s in samples), "1/s"),
        "verdict_p50_ms": (1000.0 * percentile(latencies, 0.5), "ms"),
        "verdict_p90_ms": (1000.0 * percentile(latencies, 0.9), "ms"),
        "ok_frac": (ok / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(loop: ClosedLoop, tracer: Tracer) -> dict:
    traced = [s for s in loop.samples if s.traced]
    untraced = [s for s in loop.samples if not s.traced]
    batches = max(1, loop.batches[True])
    figures = tracer.layer_metrics(batches)
    figures["textform.out_bytes"] = (sum(s.out_bytes for s in traced) / batches, "B/batch")
    figures["cli.failures"] = (sum(s.outcome != "ok" for s in traced) / batches,
                               "count/batch")
    figures["process.minor_faults"] = (loop.minor_faults[True] / batches, "count/batch")
    traced_s = sum(s.scaled for s in traced) / batches
    untraced_s = sum(s.scaled for s in untraced) / max(1, loop.batches[False])
    figures["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return figures


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hsk" / "cli.py").is_file():
        print(f"error: no hsk source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)

    cli, first, setup_s = set_up(args.workload, args.seed)
    loop = ClosedLoop(cli, args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    loop.run(first, args.seconds, tracer)

    if tracer is not None:
        figures = per_layer(loop, tracer)
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans, [s.family for s in loop.samples])
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.records)} records)")
    else:
        figures = end_to_end(loop.samples, setup_s)

    samples = loop.samples
    failures = Counter(f"{s.outcome} {s.family}" for s in samples if s.outcome != "ok")
    wrong = sum(s.outcome == "wrong" for s in samples)
    raw = [s.seconds for s in samples if not s.traced]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"batches={loop.batches[False]} untraced + {loop.batches[True]} traced, "
          f"problems={len(samples)}, failed={sum(failures.values())}"
          + (" (cut at the start limit)" if loop.cut else ""))
    print(f"raw wall time: {sum(raw):.3f} s untraced, median {1000 * percentile(raw, 0.5):.4g}"
          f" ms, p90 {1000 * percentile(raw, 0.9):.4g} ms; kernel median "
          f"{1000 * statistics.median(loop.kernels):.4g} ms")
    for key, count in sorted(failures.items()):
        print(f"failure: {key} x{count}")
    for name, (value, unit) in figures.items():
        print(f"{name} = {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": len(samples),
                      "failed": sum(failures.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
