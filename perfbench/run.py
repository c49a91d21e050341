"""End-to-end benchmark of crossdock: parse -> solve -> certificate -> verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``crossdock`` from its
``src/`` directory; it fails (exit 2, no result line) if that is missing.
One process, one thread, one instance at a time: a closed loop with a single
client.  Set-up is repeated at least ``SETUP_MIN_REPEATS`` times and until
``SETUP_MIN_SECONDS`` have gone into it, and its median is reported.  One
untimed warm-up instance follows; then whole passes over the instance pool
run until ``--seconds`` have elapsed.  ``gc.collect()`` runs before each
instance, outside its timing, and the collector stays enabled.

Every timing (of one instance, or of one set-up) is bracketed by a few reps
of a fixed reference kernel (``reference.py``), and the timed metrics are
reported at the reference speed: wall time scaled by the kernel's nominal
time over its mean time just before and just after.  This cancels most of
the drift in the speed of a shared host.  The raw wall times are printed on
the lines above the result.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` it alternates untraced and traced passes,
reports the per-layer metrics named there, and writes every span to
``perfbench/out/spans-<workload>.jsonl``.  Every output is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check passed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_MIN_REPEATS = 5
# A set-up of a few milliseconds is repeated until this much time has gone
# into set-up, so that its median does not hinge on a few noisy samples.
SETUP_MIN_SECONDS = 0.1
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import crossdock
    except ImportError as exc:
        print(f"error: cannot import crossdock from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(crossdock.__file__).resolve().parent != src / "crossdock":
        print(f"error: crossdock imported from {crossdock.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crossdock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "crossdock_commit": git_commit(),
        "crossdock_source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "sizes": workload.sizes,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
    }


class Tally:
    """Counts attempts and failures; sums the makespans the checks confirmed."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.makespan = self.lower_bound = self.greedy = self.optimum = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str], verdict) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems))
            return
        self.makespan += verdict.makespan
        self.lower_bound += verdict.lower_bound
        self.greedy += verdict.greedy
        self.optimum += verdict.optimum


class Runner:
    def __init__(self, workload, tally: Tally, tracer=None) -> None:
        self.workload = workload
        self.tally = tally
        self.tracer = tracer
        self.traced_ids: list[int] = []

    def one(self, case, traced: bool) -> tuple[float, float]:
        """Run, time and check one instance.

        Returns its wall time in seconds and the reference kernel's seconds
        per rep, timed around it.
        """
        gc.collect()
        reps = self.workload.reference_reps
        before = reference.time_reps(reps)
        if traced:
            instance_id = len(self.traced_ids)
            self.traced_ids.append(instance_id)
            self.tracer.instance = instance_id
            scope, span = spans.instrument(self.tracer), self.tracer.span
        else:
            scope, span = contextlib.nullcontext(), spans.no_span
        out = None
        with scope:
            start = time.perf_counter()
            try:
                out = self.workload.run(case, span)
            except Exception:
                crash = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        rep_s = (before + reference.time_reps(reps)) / 2
        verdict = None
        if out is None:
            problems = [f"pipeline raised: {crash}"]
        else:
            try:
                verdict = self.workload.check(case, out)
                problems = verdict.problems
            except Exception:
                problems = [f"check raised on the output: {traceback.format_exc(limit=3)}"]
        self.tally.add(f"{case.family}{case.params}", problems, verdict)
        if traced and verdict is not None:
            for name, value in verdict.counts.items():
                self.tracer.count(name, value)
        return elapsed, rep_s

    def passes(self, cases, seconds: float, modes=(False,)) -> dict[bool, list[tuple[float, float]]]:
        """Whole passes over the pool until ``seconds`` of wall time have gone.

        Successive passes cycle through ``modes`` (traced or not), so a
        traced and an untraced series share the same stretch of machine time.
        """
        times: dict[bool, list[tuple[float, float]]] = {mode: [] for mode in modes}
        start = time.perf_counter()
        while not times[modes[-1]] or time.perf_counter() - start < seconds:
            for mode in modes:
                times[mode].extend(self.one(case, mode) for case in cases)
        return times


def setup_once(workload, seed: int, workdir: Path) -> tuple[list, float, float]:
    """One set-up: the cases, its wall seconds and the kernel's seconds per rep."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    before = reference.time_reps(workload.reference_reps)
    start = time.perf_counter()
    cases = workload.setup(seed, workdir)
    took = time.perf_counter() - start
    return cases, took, (before + reference.time_reps(workload.reference_reps)) / 2


def at_reference_ms(samples: list[tuple[float, float]]) -> list[float]:
    return [reference.scale(wall_s, rep_s) * 1000.0 for wall_s, rep_s in samples]


def tail(times_ms: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(times_ms)
    for pct in TAIL_PERCENTILES:
        rank = -(-len(ordered) * pct // 100)  # ceil
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


def measure_end_to_end(args, workload, workdir: Path, tally: Tally, lines: list[str]) -> dict:
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(wall for wall, _ in setups) < SETUP_MIN_SECONDS:
        cases = None  # free the last pool first, so peak_rss_mb counts one
        cases, took, rep_s = setup_once(workload, args.seed, workdir)
        setups.append((took, rep_s))
    setup_times = [ms / 1000.0 for ms in at_reference_ms(setups)]
    runner = Runner(workload, tally)
    runner.one(cases[0], traced=False)  # warm-up, untimed
    samples = runner.passes(cases, args.seconds)[False]
    times_ms = at_reference_ms(samples)
    wall_ms = [wall_s * 1000.0 for wall_s, _ in samples]
    n = len(times_ms)
    metrics = {
        "instance_ms.p50": statistics.median(times_ms),
        "instances_per_s": n / (sum(times_ms) / 1000.0),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan_over_lb": tally.makespan / tally.lower_bound if tally.lower_bound else 0.0,
    }
    rep_ms = statistics.median(rep_s for _, rep_s in samples) * 1000.0
    lines.append(f"reference kernel {rep_ms:.3f} ms per rep (median around the timed instances; "
                 f"nominal {reference.REFERENCE_MS_PER_REP} ms); timed metrics below are at the "
                 f"nominal speed, wall_* ones as measured")
    lines.append(f"instance_ms.p50 {metrics['instance_ms.p50']:.3f} ms (median of {n} timed instances)")
    lines.append(f"wall_instance_ms.p50 {statistics.median(wall_ms):.3f} ms")
    t = tail(times_ms)
    if t is None:
        lines.append(f"instance_ms.tail omitted: {n} samples leave fewer than 10 above p{TAIL_PERCENTILES[-1]:g}")
    else:
        lines.append(f"instance_ms.tail {t[1]:.3f} ms (p{t[0]:g} of {n} timed instances)")
    lines.append(f"instances_per_s {metrics['instances_per_s']:.4f} 1/s ({workload.sizes})")
    lines.append(f"wall_instances_per_s {n / (sum(wall_ms) / 1000.0):.4f} 1/s")
    lines.append(f"setup_s {metrics['setup_s']:.6f} s (median of {len(setup_times)} set-ups, "
                 f"{min(setup_times):.6f} to {max(setup_times):.6f})")
    lines.append(f"wall_setup_s {statistics.median(wall for wall, _ in setups):.6f} s")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_frac {tally.failed / tally.attempted:.4f} ratio "
                 f"({tally.failed} of {tally.attempted} attempted, warm-up included)")
    lines.append(f"makespan_over_lb {metrics['makespan_over_lb']:.6f} ratio "
                 f"(sum makespan {tally.makespan} / sum lower_bound {tally.lower_bound})")
    if tally.optimum:
        lines.append(f"greedy_over_opt {tally.greedy / tally.optimum:.6f} ratio "
                     f"(sum greedy {tally.greedy} / sum exact {tally.optimum})")
    return metrics


def measure_per_layer(args, workload, workdir: Path, tally: Tally, env: dict, lines: list[str]) -> dict:
    import workloads

    tracer = spans.Tracer()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with spans.instrument(tracer):
        cases = workload.setup(args.seed, workdir)
    runner = Runner(workload, tally, tracer)
    runner.one(cases[0], traced=False)  # warm-up, untimed
    times = runner.passes(cases, args.seconds, modes=(False, True))
    plain, traced = times[False], times[True]
    table = spans.function_table(tracer, runner.traced_ids, workloads.SPAN_NAMES, workloads.COUNT_NAMES)
    table["trace_overhead"] = statistics.median(at_reference_ms(traced)) / statistics.median(at_reference_ms(plain))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}.jsonl", env)
    lines.append(f"traced {len(traced)} instances, untraced {len(plain)}; "
                 f"{len(tracer.spans)} spans; medians per traced instance:")
    lines.extend(f"  {name} {value:.6g}" for name, value in table.items() if value)
    return table


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    import_library()
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args, workload)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    tally = Tally()
    lines = ["env " + json.dumps(env)]
    try:
        if args.trace:
            values = measure_per_layer(args, workload, workdir, tally, env, lines)
            wanted = spec["per_layer"]
        else:
            values = measure_end_to_end(args, workload, workdir, tally, lines)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
