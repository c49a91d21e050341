"""Ground-truth solver: a subset dynamic program over machine-1 prefix sets.

``solve_exact`` finds the best machine-1 order, machine 2 being completed
by the ERD rule, with a bottleneck dynamic program over prefix sets in
O(2^n * n) time and O(2^n) memory (Held and Karp, 1962).  For an order
with prefix sets S_0 = {}, S_1, ..., S_n, ERD completion gives

    Cmax = max(n, m, max_{k<n} h(S_k)),   h(S) = |S| + 1 + m - c(S),

where c(S) counts the B-operations whose predecessors all lie in S
(pendants included): the m - c(S_k) operations not yet released after k
steps all run after time k.  The counts c are one subset-sum (zeta)
transform of the predecessor masks (Bjorklund et al., "Fourier meets
Mobius", STOC 2007).  The best bottleneck over all completions of a
prefix S is then

    G(full) = max(n, m),   G(S) = max(h(S), min_{a not in S} G(S + {a})),

and the optimum is G({}).  The 2^n table caps n at ``EXACT_MAX_N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, degree_profile
from .schedule import Schedule, complete_m2_erd, makespan

# The DP table holds 2^n Python ints: 8 MB of references at n = 20, filled
# in about 3.4 s (CPython 3.11 on a 2-vCPU Xeon host; n = 16 takes 0.18 s).
EXACT_MAX_N = 20
EXACT_DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class ExactResult:
    """An optimal schedule and its makespan.

    ``permutations_examined`` counts the subset states the DP evaluated,
    2^n, in place of the machine-1 orders an enumeration would visit.
    """

    schedule: Schedule
    optimal_makespan: int
    permutations_examined: int


def solve_exact(inst: Instance, max_n: int = EXACT_DEFAULT_LIMIT) -> ExactResult:
    """Minimal makespan over all machine-1 orders, ERD-completed.

    Returns the schedule of the lexicographically smallest optimal
    permutation; deterministic regardless of evaluation order.  Raises
    ``ValueError`` when ``inst.n`` exceeds ``max_n``, or ``max_n`` is not
    an int in 1..``EXACT_MAX_N``.
    """
    if type(max_n) is not int or not 1 <= max_n <= EXACT_MAX_N:
        raise ValueError(f"exact limit max_n must be an integer in 1..{EXACT_MAX_N}, got {max_n!r}")
    n, m = inst.n, inst.m
    if n > max_n:
        raise ValueError(f"instance too large: n={n} > limit {max_n}")
    full = (1 << n) - 1
    # g[S] holds c(S) after the transform, then G(S).  Supersets of S are
    # larger integers, so a descending sweep finds them done.
    g = [0] * (full + 1)
    for row in degree_profile(inst).pred[1:]:
        mask = 0
        for i in row:
            mask |= 1 << (i - 1)
        g[mask] += 1
    # Zeta transform: add each count into every superset, one bit at a time.
    for b in range(n):
        bit = 1 << b
        for hi in range(bit, full + 1, 2 * bit):
            for s in range(hi, hi + bit):
                g[s] += g[s - bit]
    g[full] = max(n, m)
    base = m + 1
    for s in range(full - 1, -1, -1):
        # Walk the A-operations missing from s by lowest set bit.
        rest = full ^ s
        best = g[s | (rest & -rest)]
        rest &= rest - 1
        while rest:
            v = g[s | (rest & -rest)]
            if v < best:
                best = v
            rest &= rest - 1
        h = s.bit_count() + base - g[s]
        g[s] = h if h > best else best
    opt = g[0]
    # The smallest A-operation that keeps the optimum reachable, step by
    # step, gives the lexicographically smallest optimal order.
    pi = []
    s = 0
    for _ in range(n):
        a = next(a for a in range(n) if not s >> a & 1 and g[s | 1 << a] <= opt)
        pi.append(a + 1)
        s |= 1 << a
    sched = complete_m2_erd(inst, tuple(pi))
    assert makespan(sched) == opt
    return ExactResult(schedule=sched, optimal_makespan=opt, permutations_examined=full + 1)
