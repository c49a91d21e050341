"""Test-side oracle: machine-1 permutation enumeration.

This is the n! search ``solve_exact`` used before the subset DP.  It
completes every machine-1 order by the ERD rule and keeps the
lexicographically first optimal one, optionally pruning orders that only
swap A-operations with identical successor sets.  It shares no logic with
the DP, so the two cross-check each other at n <= 7.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator

from crossdock import ExactResult, Instance, complete_m2_erd, degree_profile, makespan


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


def enumerate_exact(inst: Instance, prune: bool = True) -> ExactResult:
    """Minimal makespan over every machine-1 order, ERD-completed.

    ``permutations_examined`` counts the orders visited: n! without
    pruning, ``search_space_size(inst)`` with it.
    """
    prof = degree_profile(inst)
    succ0 = [tuple(j - 1 for j in prof.succ[i]) for i in range(1, inst.n + 1)]
    in_deg = list(prof.in_deg)
    n = inst.n

    if prune:
        perms = _canonical_permutations(_successor_groups(inst))
    else:
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
