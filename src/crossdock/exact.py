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

and the optimum is G({}).  The 2^n states cap n at ``EXACT_MAX_N``.

Each step runs over all 2^n states at once, as one C-level operation on
a big int.  State S owns bits S*W .. S*W + W - 1 of one int, a field of
W = 8, 16 or 32 bits, the narrowest with m + n < 2^(W-1).  The count
of B-operations per predecessor mask is filled into an ``array`` of that
width and read with ``int.from_bytes``; the zeta transform is then n steps
of ``c += (c & LACK_b) << (2^b * W)``, LACK_b setting the fields of the
states without bit b.  No count exceeds m, so no step carries into the
next field.

The table of G is never built.  For a bound T, G(S) <= T holds exactly
when S is full, or h(S) <= T and G(S + {a}) <= T for some a.  So the
states with G <= T are those from which the full set is reachable through
states with h <= T, and the optimum is the least T at which {} is one of
them.  With F(S) = c(S) + n - |S|, the test h(S) <= T reads F(S) >= K for
K = n + m + 1 - T.  Adding 2^(W-1) - K to every field sets a field's top
bit exactly when that holds, since F(S) <= m + n < 2^(W-1) and
0 < K <= 2^(W-1); the fields' top bytes, mapped to "0" or "1" by
``bytes.translate``, read as one bit per state through ``int(..., 2)``.
Reachability then runs on one-bit-per-state ints, one level per round: a
state at level k is reachable when it is good and some state of level
k + 1 one bit above it was reached in the last round, and
``(new >> 2^b) & LACK_b`` finds the states below those.  T starts at
max(n, m, h({})), a bound the recurrence itself gives: this solver is
the oracle the greedy lower bounds are checked against, so it uses none
of them.

At the optimum, the reachable set R is exactly {S : G(S) <= opt}.  So
taking, at each step, the smallest a with S + {a} in R is the rule the
table walk used (the smallest a with G(S + {a}) <= opt), and the order
is the same lexicographically smallest optimal one, with the same
schedule.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterator

from .instance import Instance
from .schedule import Schedule, complete_m2_erd, makespan

# A solve at n = 20 takes about 0.07 s with one-byte fields (m = 24), and
# 1.1 s at m = 10^6 with 10^6 arcs, a third of it OR-ing the predecessor
# masks; n = 16 takes about 4 ms (CPython 3.11 on a 2-vCPU Xeon host).
EXACT_MAX_N = 20

# Array type codes by field width in bits, narrowest first.  m + n is at
# most MAX_OPS + EXACT_MAX_N < 2^31, so 32 bits always suffice.
_WIDTHS = tuple((code, 8 * array(code).itemsize) for code in "BHI")
# Maps the top byte of a field to "1" when its top bit is set, else "0".
_TOP_BIT = b"0" * 128 + b"1" * 128


@dataclass(frozen=True)
class ExactResult:
    """An optimal schedule and its makespan.

    ``permutations_examined`` counts the subset states the DP evaluated,
    2^n, in place of the machine-1 orders an enumeration would visit.
    """

    schedule: Schedule
    optimal_makespan: int
    permutations_examined: int


def _lack(n: int, w: int) -> Iterator[tuple[int, int]]:
    """``(2^b * w, LACK_b)`` for b = n-1 down to 0, where LACK_b sets every
    bit of the w-bit fields of the states without bit b.

    Each mask is the last one xor itself shifted by the new run length, the
    step from 0x33 to 0x55 in the classic bit-counting masks.
    """
    shift = w << (n - 1)
    mask = (1 << shift) - 1
    yield shift, mask
    while shift > w:
        shift >>= 1
        mask ^= mask << shift
        yield shift, mask


def _fields(n: int, w: int) -> tuple[int, int]:
    """``ones``, 1 in every w-bit field, and ``offset``, n - |S| + 2^(w-1)
    in the field of state S."""
    ones, offset = 1, n + (1 << (w - 1))
    for b in range(n):
        # The states with bit b are the ones below, shifted, one fewer missing.
        offset |= (offset - ones) << (w << b)
        ones |= ones << (w << b)
    return ones, offset


def solve_exact(inst: Instance) -> ExactResult:
    """Minimal makespan over all machine-1 orders, ERD-completed.

    Returns the schedule of the lexicographically smallest optimal
    permutation; deterministic regardless of evaluation order.  Raises
    ``ValueError`` when ``inst.n`` exceeds ``EXACT_MAX_N``.
    """
    n, m = inst.n, inst.m
    if n > EXACT_MAX_N:
        raise ValueError(f"instance too large: n={n} > limit {EXACT_MAX_N}")
    code, w = next(cw for cw in _WIDTHS if m + n < 1 << (cw[1] - 1))
    full = (1 << n) - 1
    size = (full + 1) * w // 8
    # Each B-operation's predecessor mask, OR-ed from the successor rows.
    masks = [0] * (m + 1)
    for i, row in enumerate(inst._succ[1:]):
        bit = 1 << i
        for j in row:
            masks[j] |= bit
    cnt = array(code, bytes(size))
    for mask in masks[1:]:
        cnt[mask] += 1
    del masks
    if sys.byteorder == "big":
        cnt.byteswap()
    c = int.from_bytes(cnt, "little")
    del cnt
    # Zeta transform: add each count into every superset, one bit at a time.
    for shift, mask in _lack(n, w):
        c += (c & mask) << shift
    opt = max(n, m, 1 + m - (c & ((1 << w) - 1)))
    ones, offset = _fields(n, w)
    # Field S holds F(S) + 2^(w-1) - K, top bit set iff h(S) <= opt.
    c += offset - (n + m + 1 - opt) * ones
    del offset
    lack1 = tuple(_lack(n, 1))
    top = w // 8
    while True:
        # Big-endian bytes put state full first and each field's top byte
        # first, so every top-th byte, read as binary, is the flag set.
        good = int(c.to_bytes(size, "big")[::top].translate(_TOP_BIT), 2)
        reach = new = 1 << full
        for _ in range(n):
            # The states one level down with a successor in the new level.
            back = 0
            for shift, mask in lack1:
                back |= (new >> shift) & mask
            new = back & good
            if not new:
                break
            reach |= new
        if reach & 1:
            break
        opt += 1
        c += ones
    del c
    # The smallest A-operation that keeps the optimum reachable, step by
    # step, gives the lexicographically smallest optimal order.
    in_reach = bin(reach)[:1:-1]  # in_reach[S] == "1" iff G(S) <= opt
    pi = []
    s = 0
    for _ in range(n):
        a = next(a for a in range(n) if not s >> a & 1 and in_reach[s | 1 << a] == "1")
        pi.append(a + 1)
        s |= 1 << a
    sched = complete_m2_erd(inst, tuple(pi))
    assert makespan(sched) == opt
    return ExactResult(schedule=sched, optimal_makespan=opt, permutations_examined=full + 1)
