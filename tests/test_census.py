"""The paper's claims on every instance with n, m <= 4, and the census pinned.

All 74 954 instances of ``all_instances(4, 4)`` are solved exactly.  On each
one the certified chain ``lower_bound <= optimum <= greedy <= greedy_upper``
must hold and both schedules must be feasible.  On each of the 1 678
two-successor instances pd2 must meet the optimum, which must equal Lemma 1's
bound in both forms, each pick must be released at the running sum of the
picked degrees, its blocks must be the ones the successor walk measures,
and every block label must be the core number of its B-operations.

The counts are pinned, so a change to a solver or a bound that moves any of
them fails here even where every inequality still holds.  The state-space
search, which assumes nothing about the problem, checks the optimum on the
same census in CI; it takes too long for tier-1, which runs it up to 3 x 3.
The smaller censuses below also check ``all_instances`` itself and compare
the n! enumeration with ``solve_exact`` schedule for schedule.
"""

from collections import Counter
from fractions import Fraction
from itertools import accumulate

from crossdock import (
    Instance,
    blocks,
    bounds_report,
    check_feasible,
    classify,
    lemma1_bound,
    makespan,
    release_times,
    solve_exact,
    solve_greedy,
    solve_pd2,
)
from oracles import (
    all_instances,
    blocks_by_walk,
    core_numbers,
    enumerate_exact,
    lemma1_closed_form,
    optimal_makespan_statespace,
)

PINNED = {
    "instances": 74_954,
    "two-successor instances": 1_678,
    "printed bound above the optimum": 4_484,
    "greedy optimal": 71_726,
    "lower bound tight": 66_696,
    "greedy meets greedy_upper": 28_412,
    # the first instance to reach the largest ratio, as (n, m, _succ)
    "worst greedy/optimum": (Fraction(6, 5), (3, 4, ((), (3, 4), (1, 2, 3), (1, 2)))),
    "largest ratio_bound": Fraction(2),
    "largest pd2 block label": 4,
}


def test_census_up_to_4_by_4():
    counts = dict.fromkeys(PINNED, 0)
    worst_greedy, worst_opt, worst_at = 1, 1, None
    ratio_bound = Fraction(0)
    label = 0
    for inst in all_instances(4, 4):
        exact = solve_exact(inst)
        opt = exact.optimal_makespan
        greedy = solve_greedy(inst)
        greedy_mk = makespan(greedy)
        rep = bounds_report(inst)
        assert rep.lower_bound <= opt <= greedy_mk <= rep.greedy_upper, inst
        assert makespan(exact.schedule) == opt, inst
        assert check_feasible(inst, exact.schedule).ok, inst
        assert check_feasible(inst, greedy).ok, inst
        counts["instances"] += 1
        counts["printed bound above the optimum"] += rep.lower_bound_printed > opt
        counts["greedy optimal"] += greedy_mk == opt
        counts["lower bound tight"] += rep.lower_bound == opt
        counts["greedy meets greedy_upper"] += greedy_mk == rep.greedy_upper
        if greedy_mk * worst_opt > worst_greedy * opt:
            worst_greedy, worst_opt, worst_at = greedy_mk, opt, (inst.n, inst.m, inst._succ)
        ratio_bound = max(ratio_bound, rep.ratio_bound)
        if classify(inst).is_d2:
            counts["two-successor instances"] += 1
            sched, trace = solve_pd2(inst)
            assert makespan(sched) == opt == lemma1_bound(inst) == lemma1_closed_form(inst), inst
            assert check_feasible(inst, sched).ok, inst
            r = release_times(inst, trace.pi)
            assert [r[j - 1] for j in trace.order] == list(accumulate(trace.degree)), inst
            blks = blocks(inst, trace)
            assert blks == blocks_by_walk(inst, trace.events), inst
            core = core_numbers(inst)
            assert all(core[j] == blk.label for blk in blks for j in blk.b_ops), inst
            label = max(label, blks[-1].label)
    counts["worst greedy/optimum"] = (Fraction(worst_greedy, worst_opt), worst_at)
    counts["largest ratio_bound"] = ratio_bound
    counts["largest pd2 block label"] = label
    assert counts == PINNED


def test_all_instances_sizes_and_distinct():
    insts = list(all_instances(3, 4))
    sizes = Counter((inst.n, inst.m) for inst in insts)
    assert list(sizes) == [(n, m) for n in range(1, 4) for m in range(1, 5)]
    assert all(count == 2 ** (n * m) for (n, m), count in sizes.items())
    assert len({(inst.n, inst.m, inst.arcs) for inst in insts}) == len(insts)


def test_all_instances_bit_layout():
    # Bit (i-1)*m + j-1 of the mask holds the arc (i, j).
    assert [inst.arcs for inst in all_instances(1, 2)] == [
        frozenset(),
        frozenset({(1, 1)}),
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
        frozenset({(1, 1), (1, 2)}),
    ]
    two_by_two = [inst for inst in all_instances(2, 2) if (inst.n, inst.m) == (2, 2)]
    assert [two_by_two[mask].arcs for mask in (1, 2, 4, 8)] == [
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
        frozenset({(2, 2)}),
    ]
    assert two_by_two[-1] == Instance(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])


def test_enumeration_matches_dp_up_to_3_by_4():
    for inst in all_instances(3, 4):
        dp, enum = solve_exact(inst), enumerate_exact(inst)
        assert enum.optimal_makespan == dp.optimal_makespan, inst
        assert enum.schedule == dp.schedule, inst


def test_statespace_matches_dp_up_to_3_by_3():
    for inst in all_instances(3, 3):
        assert optimal_makespan_statespace(inst) == solve_exact(inst).optimal_makespan, inst
