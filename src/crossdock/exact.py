"""Ground-truth solvers: permutation enumeration and a full state-space search.

The main oracle enumerates machine-1 orders and completes each with the
ERD rule, pruning permutations that only swap A-operations with identical
successor sets.  The state-space search below it makes no modelling
assumptions at all (it allows idling on either machine) and exists to
validate that reduction on tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .instance import Instance, degree_profile
from .schedule import Schedule, complete_m2_erd, makespan


@dataclass(frozen=True)
class ExactResult:
    schedule: Schedule
    optimal_makespan: int
    permutations_examined: int


def _successor_groups(inst: Instance) -> list[list[int]]:
    """A-indices grouped by identical successor sets, each group ascending."""
    prof = degree_profile(inst)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in range(1, inst.n + 1):
        groups.setdefault(prof.succ[i], []).append(i)
    return [sorted(g) for g in groups.values()]


def search_space_size(inst: Instance) -> int:
    """Permutations after the identical-successor-set pruning: n!/prod(mult!)."""
    size = factorial(inst.n)
    for g in _successor_groups(inst):
        size //= factorial(len(g))
    return size


def _canonical_permutations(groups: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """All orders keeping each group ascending, in lexicographic order."""
    taken = [0] * len(groups)
    n = sum(len(g) for g in groups)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        choices = sorted(
            (groups[gi][taken[gi]], gi)
            for gi in range(len(groups))
            if taken[gi] < len(groups[gi])
        )
        for nxt, gi in choices:
            taken[gi] += 1
            prefix.append(nxt)
            yield from rec()
            prefix.pop()
            taken[gi] -= 1

    return rec()


def solve_exact(inst: Instance, max_n: int = 10, prune: bool = True) -> ExactResult:
    """Minimal makespan over all machine-1 orders, ERD-completed.

    Returns the schedule of the lexicographically smallest optimal
    permutation; deterministic regardless of evaluation order.
    """
    if inst.n > max_n:
        raise ValueError(f"instance too large: n={inst.n} > limit {max_n}")
    prof = degree_profile(inst)
    succ0 = [tuple(j - 1 for j in prof.succ[i]) for i in range(1, inst.n + 1)]
    in_deg = list(prof.in_deg)
    n, m = inst.n, inst.m

    if prune:
        perms = _canonical_permutations(_successor_groups(inst))
    else:
        import itertools

        perms = itertools.permutations(range(1, n + 1))

    best_mk: int | None = None
    best_pi: tuple[int, ...] | None = None
    examined = 0
    for pi in perms:
        examined += 1
        r = in_deg.copy()
        for pos, a in enumerate(pi):
            done = pos + 1
            for j in succ0[a - 1]:
                if done > r[j]:
                    r[j] = done
        r.sort()
        t = 0
        for x in r:
            if x > t:
                t = x
            t += 1
        mk = t if t > n else n
        if best_mk is None or mk < best_mk:
            best_mk = mk
            best_pi = pi
    assert best_mk is not None and best_pi is not None
    sched = complete_m2_erd(inst, best_pi)
    assert makespan(sched) == best_mk
    return ExactResult(schedule=sched, optimal_makespan=best_mk, permutations_examined=examined)


def optimal_makespan_statespace(inst: Instance) -> int:
    """Exhaustive search over all integer schedules with starts < n+m.

    Breadth-first over (time, set of finished A, set of finished B) with
    idling allowed on both machines; every feasible schedule corresponds
    to some trajectory, so this is assumption-free.  Exponential in n+m.
    """
    pred_mask = [sum(1 << (i - 1) for i in row) for row in degree_profile(inst).pred[1:]]
    full_a = (1 << inst.n) - 1
    full_b = (1 << inst.m) - 1
    horizon = inst.n + inst.m
    states = {(0, 0)}
    for t in range(1, horizon + 1):
        nxt: set[tuple[int, int]] = set()
        for done_a, done_b in states:
            a_moves = [done_a]
            for i in range(inst.n):
                if not done_a >> i & 1:
                    a_moves.append(done_a | 1 << i)
            b_moves = [done_b]
            for j in range(inst.m):
                if not done_b >> j & 1 and pred_mask[j] & done_a == pred_mask[j]:
                    b_moves.append(done_b | 1 << j)
            for na in a_moves:
                for nb in b_moves:
                    nxt.add((na, nb))
        states = nxt
        if (full_a, full_b) in states:
            return t
    raise AssertionError(f"no complete schedule within horizon {horizon}")
