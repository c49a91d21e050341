"""The four benchmark workloads: set-up, timed pipeline and output checks.

Each workload is three functions:

- ``setup(seed, workdir)`` generates, serializes and (for ``cli_batch``)
  writes the instances.  This is ``setup_s``; it is never timed as part of
  an instance.
- ``run(case, span)`` is the timed pipeline on one instance, starting from
  the instance text.  ``span`` opens a named span; only ``cli_batch`` uses
  it, around each call of the CLI entry point.
- ``check(case, out)`` runs every correctness check on the pipeline's
  outputs and returns a ``Verdict``.  Reference values it needs (lower
  bound, pd2 optimum) are computed once per case, outside the timing.

The seed varies the arcs only.  Sizes and the mix of families are fixed per
workload, so the spread of per-instance times inside one run, and with it
the median, does not depend on which seed was drawn.

Library calls go through module attributes (``ci.parse_instance``), never
through names bound at import, so the wrappers installed by
``spans.instrument`` see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import Callable

from crossdock import cli as cc
from crossdock import exact as ce
from crossdock import generators as gen
from crossdock import greedy as cg
from crossdock import instance as ci
from crossdock import pd2 as cp
from crossdock import schedule as cs

# Spans and counts a workload may record; absent ones read as 0 elsewhere.
SPAN_NAMES = ("cli.solve", "cli.verify")
COUNT_NAMES = (
    "instance.arcs",
    "pd2.trace_events",
    "pd2.block_count",
    "exact.permutations_examined",
    "exact.prune_ratio",
)


@dataclass
class Case:
    """One generated instance and what the checks need to know about it."""

    family: str  # "random", "d2" or "tight"
    params: tuple
    text: str
    path: Path | None = None
    sched_path: Path | None = None
    ref: dict = field(default_factory=dict)

    def reference(self, key: str, compute: Callable[[], object]):
        if key not in self.ref:
            self.ref[key] = compute()
        return self.ref[key]


@dataclass
class Verdict:
    problems: list[str]
    makespan: int = 0
    lower_bound: int = 0
    greedy: int = 0
    optimum: int = 0
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    sizes: str
    # Reps of the reference kernel run before and after each timing: a few
    # per cent of a long instance's time, and the least, one, for the short
    # cli_batch instances.
    reference_reps: int
    setup: Callable[[int, Path], list[Case]]
    run: Callable[[Case, Callable], dict]
    check: Callable[[Case, dict], Verdict]


def pool_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def schedule_makespan(inst, start_a, start_b) -> tuple[int, list[str]]:
    """Makespan of a schedule and every rule it breaks.

    Written from the problem statement, not from ``crossdock.schedule``, so
    that a broken ``check_feasible`` cannot pass its own output.
    """
    if len(start_a) != inst.n or len(start_b) != inst.m:
        return 0, [f"schedule has {len(start_a)}/{len(start_b)} starts, expected {inst.n}/{inst.m}"]
    problems = []
    for label, starts in (("1", start_a), ("2", start_b)):
        if any(type(s) is not int or s < 0 for s in starts):
            return 0, [f"machine {label}: a start is not a non-negative integer"]
        if len(set(starts)) != len(starts):
            problems.append(f"machine {label}: two operations share a start")
    late = sum(1 for i, j in inst.arcs if start_b[j - 1] <= start_a[i - 1])
    if late:
        problems.append(f"{late} arcs violate precedence")
    return max(max(start_a), max(start_b)) + 1, problems


def _feasible(inst, sched, report, what: str) -> tuple[int, list[str]]:
    mk, problems = schedule_makespan(inst, sched.start_a, sched.start_b)
    if not report.ok:
        problems.append(f"{what}: check_feasible reports {report.violations[:3]}")
    return mk, [f"{what}: {p}" for p in problems]


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


# -- d2_sparse ---------------------------------------------------------------
# pd2 and the adjacency build do almost all the work; greedy and exact none.
# Two arcs per A-operation, so per-object and heap overhead dominates.

D2_N = 20_000
D2_PENDANTS = D2_N // 50
D2_POOL = 3


def setup_d2_sparse(seed: int, workdir: Path) -> list[Case]:
    cases = []
    for s in pool_seeds("d2_sparse", seed, D2_POOL):
        inst = gen.gen_d2(D2_N, D2_N, D2_PENDANTS, s)
        cases.append(Case("d2", (D2_N, D2_N, D2_PENDANTS, s), ci.serialize_instance(inst)))
    return cases


def run_d2_sparse(case: Case, span) -> dict:
    inst = ci.parse_instance(case.text)
    cls = ci.classify(inst)
    sched, trace = cp.solve_pd2(inst)
    bound = cp.lemma1_bound(inst)
    blks = cp.blocks(inst, trace)
    report = cs.check_feasible(inst, sched)
    return {"inst": inst, "cls": cls, "sched": sched, "trace": trace,
            "bound": bound, "blocks": blks, "report": report}


def check_d2_sparse(case: Case, out: dict) -> Verdict:
    inst = out["inst"]
    mk, problems = _feasible(inst, out["sched"], out["report"], "pd2")
    lb = case.reference("lower_bound", lambda: cg.lower_bound(inst))
    problems += _expect(out["cls"].is_d2, "classify: instance not in the two-successor class")
    problems += _expect(mk == out["bound"], f"pd2 makespan {mk} != lemma1_bound {out['bound']}")
    problems += _expect(lb <= mk, f"lower_bound {lb} > makespan {mk}")
    counts = {"instance.arcs": len(inst.arcs), "pd2.trace_events": len(out["trace"].events),
              "pd2.block_count": len(out["blocks"])}
    return Verdict(problems, makespan=mk, lower_bound=lb, counts=counts)


# -- dense_greedy ------------------------------------------------------------
# greedy, ERD completion and the repeated degree_profile builds do the work;
# pd2 is bypassed because the instance is outside the two-successor class.

DENSE_N = 500
DENSE_P = 0.5
DENSE_POOL = 3


def setup_dense_greedy(seed: int, workdir: Path) -> list[Case]:
    cases = []
    for s in pool_seeds("dense_greedy", seed, DENSE_POOL):
        inst = gen.gen_random(DENSE_N, DENSE_N, DENSE_P, s)
        cases.append(Case("random", (DENSE_N, DENSE_N, DENSE_P, s), ci.serialize_instance(inst)))
    return cases


def run_dense_greedy(case: Case, span) -> dict:
    inst = ci.parse_instance(case.text)
    sched = cg.solve_greedy(inst)
    rep = cg.bounds_report(inst)
    report = cs.check_feasible(inst, sched)
    return {"inst": inst, "sched": sched, "bounds": rep, "report": report}


def check_dense_greedy(case: Case, out: dict) -> Verdict:
    inst, rep = out["inst"], out["bounds"]
    mk, problems = _feasible(inst, out["sched"], out["report"], "greedy")
    problems += _expect(rep.lower_bound <= mk, f"lower_bound {rep.lower_bound} > makespan {mk}")
    problems += _expect(mk <= rep.greedy_upper, f"makespan {mk} > greedy_upper {rep.greedy_upper}")
    return Verdict(problems, makespan=mk, lower_bound=rep.lower_bound,
                   counts={"instance.arcs": len(inst.arcs)})


# -- exact_small -------------------------------------------------------------
# The permutation search does nearly all the work (n = 8 is 8! orders, each
# ERD-completed).  Every instance has n = 8.  Smaller ones would cost a tenth
# as much each, and the median would then sit at the edge between the two
# size classes and jump with the seed.  m is set above n for the random and
# d2 families, so A-operations rarely share a successor set: the symmetry
# pruning seldom fires, and an instance's cost depends on its family, not its
# seed.  In the tight family, l = 2 halves the search, which is why only two
# of its six members sit below the median.

EXACT_N = 8
EXACT_RANDOM = [(EXACT_N, 12, 0.3)] * 4 + [(EXACT_N, 12, 0.5)] * 4
EXACT_D2 = [(EXACT_N, 24, 2)] * 4
EXACT_TIGHT = [
    (k, l, EXACT_N - k - l)
    for k in range(1, EXACT_N)
    for l in range(1, k + 1)
    if EXACT_N - k - l >= 3
]


def setup_exact_small(seed: int, workdir: Path) -> list[Case]:
    seeds = iter(pool_seeds("exact_small", seed, len(EXACT_RANDOM) + len(EXACT_D2)))
    cases = []
    for n, m, p in EXACT_RANDOM:
        s = next(seeds)
        cases.append(Case("random", (n, m, p, s), ci.serialize_instance(gen.gen_random(n, m, p, s))))
    for a, b, pendants in EXACT_D2:
        s = next(seeds)
        cases.append(Case("d2", (a, b, pendants, s), ci.serialize_instance(gen.gen_d2(a, b, pendants, s))))
    for k, l, s in EXACT_TIGHT:
        inst = gen.gen_tight(gen.TightParams(k, l, s))
        cases.append(Case("tight", (k, l, s), ci.serialize_instance(inst)))
    return cases


def run_exact_small(case: Case, span) -> dict:
    inst = ci.parse_instance(case.text)
    ex = ce.solve_exact(inst)
    sched = cg.solve_greedy(inst)
    rep = cg.bounds_report(inst)
    reports = (cs.check_feasible(inst, ex.schedule), cs.check_feasible(inst, sched))
    return {"inst": inst, "exact": ex, "sched": sched, "bounds": rep, "reports": reports}


def _pd2_reference(inst) -> tuple[int, int, list[str]]:
    sched, _trace = cp.solve_pd2(inst)
    mk, problems = schedule_makespan(inst, sched.start_a, sched.start_b)
    return mk, cp.lemma1_bound(inst), problems


def check_exact_small(case: Case, out: dict) -> Verdict:
    inst, ex, rep = out["inst"], out["exact"], out["bounds"]
    opt, problems = _feasible(inst, ex.schedule, out["reports"][0], "exact")
    greedy, more = _feasible(inst, out["sched"], out["reports"][1], "greedy")
    problems += more
    lb = rep.lower_bound
    problems += _expect(opt == ex.optimal_makespan,
                        f"exact schedule makespan {opt} != reported {ex.optimal_makespan}")
    problems += _expect(lb <= opt <= greedy <= rep.greedy_upper,
                        f"want lower_bound {lb} <= exact {opt} <= greedy {greedy} "
                        f"<= greedy_upper {rep.greedy_upper}")
    if case.family == "tight":
        k, _l, s = case.params
        problems += _expect(opt == 2 * k + s + 1, f"tight family: exact {opt} != 2k+s+1 = {2 * k + s + 1}")
    if case.family == "d2":
        pd2_mk, bound, pd2_problems = case.reference("pd2", lambda: _pd2_reference(inst))
        problems += [f"pd2: {p}" for p in pd2_problems]
        problems += _expect(opt == pd2_mk == bound, f"exact {opt}, pd2 {pd2_mk}, lemma1_bound {bound} differ")
    counts = {"instance.arcs": len(inst.arcs),
              "exact.permutations_examined": ex.permutations_examined,
              "exact.prune_ratio": ex.permutations_examined / factorial(inst.n)}
    return Verdict(problems, makespan=opt, lower_bound=lb, greedy=greedy, optimum=opt, counts=counts)


# -- cli_batch ---------------------------------------------------------------
# The only workload through the CLI: file reads, schedule-JSON writes and
# reads, argument parsing and per-call overhead.  Small instances give many
# samples, enough for a tail percentile.  Two files in three are gen_random
# (solved by greedy), one in three gen_d2 (solved by pd2); the families take
# clearly different times, and with equal shares the median would fall in
# the gap between them and jump from seed to seed.

CLI_FILES = 60
CLI_SIZES = (200, 300)
CLI_P = 0.02


def setup_cli_batch(seed: int, workdir: Path) -> list[Case]:
    lo, hi = CLI_SIZES
    cases = []
    for k, s in enumerate(pool_seeds("cli_batch", seed, CLI_FILES)):
        n = lo + (hi - lo) * k // (CLI_FILES - 1)
        if k % 3:
            inst, family, params = gen.gen_random(n, n, CLI_P, s), "random", (n, n, CLI_P, s)
        else:
            inst, family, params = gen.gen_d2(n, n, n // 50, s), "d2", (n, n, n // 50, s)
        text = ci.serialize_instance(inst)
        path = workdir / f"{k:02d}.cd"
        path.write_text(text)
        cases.append(Case(family, params, text, path, workdir / f"{k:02d}.json"))
    return cases


def run_cli_batch(case: Case, span) -> dict:
    alg = "greedy" if case.family == "random" else "pd2"
    solve_out, verify_out = io.StringIO(), io.StringIO()
    with span("cli.solve"), contextlib.redirect_stdout(solve_out):
        rc_solve = cc.main(["solve", "--alg", alg, "--in", str(case.path), "--out", str(case.sched_path)])
    with span("cli.verify"), contextlib.redirect_stdout(verify_out):
        rc_verify = cc.main(["verify", "--in", str(case.path), "--schedule", str(case.sched_path)])
    return {"rc_solve": rc_solve, "solve": solve_out.getvalue(),
            "rc_verify": rc_verify, "verify": verify_out.getvalue()}


def _printed(text: str, key: str) -> int | None:
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] == key:
            return int(fields[1])
    return None


def check_cli_batch(case: Case, out: dict) -> Verdict:
    inst = case.reference("inst", lambda: ci.parse_instance(case.text))
    lb = case.reference("lower_bound", lambda: cg.lower_bound(inst))
    problems = _expect(out["rc_solve"] == 0, f"solve exited {out['rc_solve']}")
    problems += _expect(out["rc_verify"] == 0, f"verify exited {out['rc_verify']}")
    data = json.loads(case.sched_path.read_text())
    mk, more = schedule_makespan(inst, data["start_a"], data["start_b"])
    problems += more
    problems += _expect(_printed(out["solve"], "makespan") == mk == data["makespan"],
                        f"solve printed {out['solve'].splitlines()[:1]}, file says "
                        f"{data['makespan']}, schedule has makespan {mk}")
    problems += _expect(out["verify"].strip() == f"feasible, makespan {mk}",
                        f"verify printed {out['verify'].strip()!r}")
    problems += _expect(lb <= mk, f"lower_bound {lb} > makespan {mk}")
    if case.family == "random":
        upper = _printed(out["solve"], "greedy_upper")
        problems += _expect(upper is not None and mk <= upper, f"makespan {mk} > greedy_upper {upper}")
    else:
        bound = case.reference("lemma1", lambda: cp.lemma1_bound(inst))
        problems += _expect(mk == bound, f"pd2 makespan {mk} != lemma1_bound {bound}")
    return Verdict(problems, makespan=mk, lower_bound=lb, counts={"instance.arcs": len(inst.arcs)})


WORKLOADS = {
    "d2_sparse": Workload(
        f"gen_d2 n=m={D2_N}, {D2_PENDANTS} pendants, {D2_POOL} seeds", 4,
        setup_d2_sparse, run_d2_sparse, check_d2_sparse),
    "dense_greedy": Workload(
        f"gen_random n=m={DENSE_N}, p={DENSE_P}, {DENSE_POOL} seeds", 4,
        setup_dense_greedy, run_dense_greedy, check_dense_greedy),
    "exact_small": Workload(
        f"{len(EXACT_RANDOM)} gen_random {sorted(set(EXACT_RANDOM))}, {len(EXACT_D2)} gen_d2 "
        f"{sorted(set(EXACT_D2))}, {len(EXACT_TIGHT)} gen_tight (every k,l,s with n = {EXACT_N})", 2,
        setup_exact_small, run_exact_small, check_exact_small),
    "cli_batch": Workload(
        f"{CLI_FILES} files, n=m from {CLI_SIZES[0]} to {CLI_SIZES[1]}, "
        f"2/3 gen_random p={CLI_P}, 1/3 gen_d2", 1,
        setup_cli_batch, run_cli_batch, check_cli_batch),
}
