"""Differential tests for the subset-DP ``solve_exact``.

Against the permutation enumeration at n <= 7 (optimum and schedule), the
state-space search at n <= 5, and, at n = 10..14 where neither reaches,
the certified bounds, the pd2 optimum and the tight-family formula.  The
bit-parallel kernel must return the very ``ExactResult`` of the list DP it
replaced (``subset_dp_exact``) on seeded and drawn instances with n <= 14,
and on either side of every field-width switch (m + n = 127 and 32767)
and at m = 10^6; the widest field holds every allowed m + n, and no wider
one is kept.  At n = 17..20, past the default limit, the kernel meets the
tight-family formula and the pd2 optimum.
"""

import random

import pytest
from hypothesis import given, strategies as st

from crossdock import (
    MAX_OPS,
    Instance,
    TightParams,
    bounds_report,
    check_feasible,
    gen_d2,
    gen_random,
    gen_tight,
    lemma1_bound,
    makespan,
    solve_exact,
    solve_greedy,
    solve_pd2,
)
from crossdock.exact import EXACT_MAX_N, _WIDTHS
from oracles import enumerate_exact, optimal_makespan_statespace, subset_dp_exact


def tight_params(max_total: int):
    """Every valid (k, l, s) with k + l + s <= max_total."""
    return [
        TightParams(k, l, s)
        for s in range(3, max_total + 1)
        for l in range(1, max_total)
        for k in range(l, max_total - l - s + 1)
    ]


def mixed_instances(count: int, max_n: int, max_m: int, salt: int):
    """Seeded gen_random and gen_d2 instances with 1 <= n <= max_n."""
    out = []
    for seed in range(count):
        rng = random.Random(salt + seed)
        n, m = rng.randint(1, max_n), rng.randint(2, max_m)
        if seed % 3 == 2:
            out.append(gen_d2(n, m, rng.randint(0, m - 2), seed))
        else:
            out.append(gen_random(n, m, rng.random(), seed))
    return out


def test_dp_matches_enumeration():
    insts = mixed_instances(500, 7, 9, 50_000)
    insts += [gen_tight(p) for p in tight_params(7)]
    insts += [Instance(n=1, m=1, arcs=frozenset()), Instance(n=1, m=1, arcs=frozenset({(1, 1)}))]
    assert len(insts) >= 500
    for inst in insts:
        dp, enum = solve_exact(inst), enumerate_exact(inst)
        assert dp.optimal_makespan == enum.optimal_makespan, inst
        assert dp.schedule == enum.schedule, inst
        assert dp.permutations_examined == 2 ** inst.n


def test_dp_matches_statespace():
    insts = mixed_instances(60, 5, 5, 60_000) + [gen_tight(TightParams(1, 1, 3))]
    for inst in insts:
        assert solve_exact(inst).optimal_makespan == optimal_makespan_statespace(inst), inst


def test_dp_within_bounds_beyond_enumeration():
    for seed in range(15):
        rng = random.Random(70_000 + seed)
        n = rng.randint(10, 14)
        inst = gen_random(n, rng.randint(n, 2 * n), rng.choice((0.2, 0.4, 0.6)), seed)
        ex = solve_exact(inst)
        rep = bounds_report(inst)
        greedy = makespan(solve_greedy(inst))
        assert check_feasible(inst, ex.schedule).ok
        assert makespan(ex.schedule) == ex.optimal_makespan
        assert rep.lower_bound <= ex.optimal_makespan <= greedy <= rep.greedy_upper


def test_dp_equals_pd2_beyond_enumeration():
    for seed in range(15):
        rng = random.Random(80_000 + seed)
        n, m = rng.randint(10, 14), rng.randint(4, 20)
        inst = gen_d2(n, m, rng.randint(0, m - 2), seed)
        sched, _trace = solve_pd2(inst)
        assert makespan(sched) == lemma1_bound(inst) == solve_exact(inst).optimal_makespan


def test_dp_attains_tight_family_formula():
    params = tight_params(14)
    assert max(p.k + p.l + p.s for p in params) == 14
    for p in params:
        assert solve_exact(gen_tight(p)).optimal_makespan == 2 * p.k + p.s + 1, p


@pytest.mark.parametrize("k,l,s", [(8, 3, 5), (6, 6, 4), (10, 1, 5), (5, 2, 8), (9, 3, 3)])
def test_dp_attains_tight_family_formula_at_n_15_16(k, l, s):
    assert k + l + s in (15, 16)
    inst = gen_tight(TightParams(k, l, s))
    assert solve_exact(inst).optimal_makespan == 2 * k + s + 1


def from_pred_masks(n: int, masks) -> Instance:
    """The instance whose B_j waits on the A-operations in bit set masks[j-1]."""
    arcs = frozenset((i + 1, j) for j, mask in enumerate(masks, start=1) for i in range(n) if mask >> i & 1)
    return Instance(n=n, m=len(masks), arcs=arcs)


def test_kernel_matches_list_dp():
    insts = mixed_instances(300, 12, 40, 90_000)
    insts += [inst for inst in mixed_instances(80, 14, 30, 91_000) if inst.n >= 13]
    assert max(inst.n for inst in insts) == 14
    for inst in insts:
        assert solve_exact(inst) == subset_dp_exact(inst), inst


@pytest.mark.parametrize("total", [126, 127, 128, 129, 200, 255, 32766, 32767, 32768, 32769])
def test_kernel_matches_list_dp_across_field_widths(total):
    # Fields widen from 8 to 16 bits past m + n = 127 and to 32 past 32767.
    # Each total gets a mostly-pendant instance, a dense one, a sparse one,
    # and pendants with the rest waiting on every A-operation: that last
    # shape keeps the optimum at m while c({}) is near m, which drives the
    # biased fields of the states near {} furthest, so 200 and 255 would
    # overflow one-byte fields.
    for seed in range(4):
        rng = random.Random(total * 10 + seed)
        n = rng.randint(3, 9)
        full = (1 << n) - 1
        draw = (
            lambda: 0 if rng.random() < 0.9 else rng.randint(1, full),
            lambda: rng.randint(1, full),
            lambda: 1 << rng.randrange(n),
            lambda: 0 if rng.random() < 0.9 else full,
        )[seed]
        inst = from_pred_masks(n, [draw() for _ in range(total - n)])
        assert inst.m + inst.n == total
        assert solve_exact(inst) == subset_dp_exact(inst), (total, seed)


def test_widest_field_is_the_narrowest_that_holds_every_allowed_instance():
    # m <= MAX_OPS and n <= EXACT_MAX_N, so m + n fits the widest field, and
    # a wider one would never be chosen.
    total = MAX_OPS + EXACT_MAX_N
    *_, (_, below), (_, widest) = _WIDTHS
    assert total < 1 << (widest - 1)
    assert total >= 1 << (below - 1)


def test_kernel_matches_list_dp_at_a_million_b_operations():
    # Counts past 2^16 in 32-bit fields.  Built from its successor rows, as
    # the parser and the generators build an instance, to spare the arc set.
    n, m = 6, 10**6
    rows = [[] for _ in range(n + 1)]
    for j in range(1, m + 1):
        rows[1 + j % n].append(j)
        if j % 5 == 0:
            rows[1 + (j // 5) % n].append(j)
    inst = Instance._from_succ(n, m, tuple(tuple(sorted(set(row))) for row in rows))
    del rows
    result = solve_exact(inst)
    assert result == subset_dp_exact(inst)
    assert result.optimal_makespan == m + 1  # no pendants, so h({}) = m + 1


@st.composite
def pred_mask_instances(draw):
    n = draw(st.integers(1, 10))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=140))
    return from_pred_masks(n, masks)


@given(pred_mask_instances())
def test_kernel_matches_list_dp_property(inst):
    assert solve_exact(inst) == subset_dp_exact(inst)


@pytest.mark.parametrize("k,l,s", [(8, 4, 5), (9, 3, 6), (7, 5, 7), (10, 4, 6), (12, 2, 6)])
def test_dp_attains_tight_family_formula_at_n_17_to_20(k, l, s):
    assert 17 <= k + l + s <= 20
    inst = gen_tight(TightParams(k, l, s))
    assert solve_exact(inst).optimal_makespan == 2 * k + s + 1


@pytest.mark.parametrize("n,m,pendants,seed", [(18, 20, 4, 1), (19, 24, 0, 2), (20, 16, 3, 3), (20, 30, 10, 4)])
def test_dp_equals_pd2_at_n_18_to_20(n, m, pendants, seed):
    inst = gen_d2(n, m, pendants, seed)
    sched, _trace = solve_pd2(inst)
    assert makespan(sched) == lemma1_bound(inst) == solve_exact(inst).optimal_makespan
