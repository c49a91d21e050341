import random
from fractions import Fraction

from hypothesis import given, strategies as st

from crossdock import (
    Instance,
    bounds_report,
    bounds_report_to_json,
    check_feasible,
    compute_q,
    gen_random,
    gen_tight,
    greedy_order,
    lower_bound,
    lower_bound_printed_form,
    makespan,
    solve_exact,
    solve_greedy,
    TightParams,
)
from conftest import EX1_GREEDY_PI
from oracles import prefix_q


def test_greedy_order_ex1(ex1):
    # all out-degrees tie at 2; ratios 2/3 (A4), 1/2 (A6), 1/3 (A5), 2/7 (A1..A3)
    assert greedy_order(ex1) == EX1_GREEDY_PI


def test_greedy_order_tight_family_blocks():
    k, l, s = 3, 2, 3
    pi = greedy_order(gen_tight(TightParams(k, l, s)))
    middle = set(range(k + 1, k + l + 1))      # out-degree s
    paired = set(range(1, k + 1))              # out-degree 2
    singles = set(range(k + l + 1, k + l + s + 1))  # out-degree 1
    assert set(pi[:l]) == middle
    assert set(pi[l:l + k]) == paired
    assert set(pi[l + k:]) == singles


def test_greedy_order_total_tie():
    inst = Instance(n=4, m=1, arcs=frozenset())
    assert greedy_order(inst) == (1, 2, 3, 4)


def test_greedy_order_deterministic_permutation():
    for seed in range(50):
        inst = gen_random(n=1 + seed % 7, m=1 + seed % 6, p=0.5, seed=seed)
        pi = greedy_order(inst)
        assert sorted(pi) == list(range(1, inst.n + 1))
        assert pi == greedy_order(inst)


def test_solve_greedy_ex1(ex1):
    assert makespan(solve_greedy(ex1)) == 8


def test_solve_greedy_tight():
    assert makespan(solve_greedy(gen_tight(TightParams(3, 2, 3)))) == 12


def test_solve_greedy_no_arcs():
    inst = Instance(n=3, m=2, arcs=frozenset())
    sched = solve_greedy(inst)
    assert makespan(sched) == 3
    assert check_feasible(inst, sched).ok


def test_compute_q_tight_family():
    for k, l, s in [(3, 2, 3), (4, 3, 3), (5, 2, 4)]:
        tf = gen_tight(TightParams(k, l, s))
        assert compute_q(tf) == l + 1


def test_compute_q_ex1(ex1):
    # total out-degree 12, m=7: first prefix sum above 5 is 6, at q=3
    assert compute_q(ex1) == 3


def test_compute_q_vacuous(cex):
    assert compute_q(cex) == 1


def test_lower_bound_tight():
    assert lower_bound(gen_tight(TightParams(3, 2, 3))) == 10


def test_lower_bound_cex(cex):
    assert lower_bound(cex) == 3
    assert lower_bound_printed_form(cex) == 4
    assert solve_exact(cex).optimal_makespan == 3


def test_lower_bound_no_arcs():
    assert lower_bound(Instance(n=4, m=2, arcs=frozenset())) == 4


def test_bounds_report_tight():
    rep = bounds_report(gen_tight(TightParams(3, 2, 3)))
    assert rep.q == 3
    assert rep.lower_bound == 10
    assert rep.greedy_upper == 12
    assert rep.ratio_bound == Fraction(12, 10)


def test_bounds_report_ex1(ex1):
    rep = bounds_report(ex1)
    assert rep.q == 3
    assert rep.d_min_a == 2 and rep.d_min_b == 0
    assert rep.lower_bound == 8
    assert rep.greedy_upper == 10
    assert rep.ratio_bound == Fraction(10, 8)


def test_bounds_report_trivial():
    rep = bounds_report(Instance(n=1, m=1, arcs=frozenset()))
    assert rep.q == 1
    assert rep.lower_bound == 1
    assert rep.greedy_upper == 2
    assert rep.ratio_bound == Fraction(2)


def test_bounds_report_json(ex1):
    text = bounds_report_to_json(bounds_report(ex1))
    assert '"ratio_bound": [' in text
    assert '"lower_bound": 8' in text
    assert '"lower_bound_printed": 9' in text


def test_bounds_report_json_full_text(ex1):
    assert bounds_report_to_json(bounds_report(ex1)) == (
        "{\n"
        '  "q": 3,\n'
        '  "d_min_a": 2,\n'
        '  "d_min_b": 0,\n'
        '  "lower_bound": 8,\n'
        '  "lower_bound_printed": 9,\n'
        '  "greedy_upper": 10,\n'
        '  "ratio_bound": [\n'
        "    5,\n"
        "    4\n"
        "  ]\n"
        "}\n"
    )


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    arcs = draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m))))
    return Instance(n=n, m=m, arcs=arcs)


@given(small_instances())
def test_bounds_report_q_matches_greedy_order(inst):
    # small arc sets give tied and zero out-degrees often
    assert bounds_report(inst).q == compute_q(inst) == prefix_q(inst, greedy_order(inst))


def test_soundness_sandwich_random():
    for seed in range(60):
        rng = random.Random(seed)
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        inst = gen_random(n, m, rng.random(), seed)
        rep = bounds_report(inst)
        opt = solve_exact(inst).optimal_makespan
        greedy_mk = makespan(solve_greedy(inst))
        assert rep.lower_bound <= opt <= greedy_mk <= rep.greedy_upper
        assert Fraction(greedy_mk, opt) <= rep.ratio_bound


def test_tightness_on_family():
    # exact oracle for the smallest; formula plus an explicit feasible
    # optimal-order schedule for the larger ones
    from crossdock import complete_m2_erd

    for k, l, s in [(3, 2, 3), (4, 3, 3), (5, 2, 4)]:
        tf = gen_tight(TightParams(k, l, s))
        rep = bounds_report(tf)
        assert makespan(solve_greedy(tf)) == rep.greedy_upper == 2 * k + s + l + 1
        assert rep.lower_bound == 2 * k + s + 1
        if k == 3:
            assert solve_exact(tf).optimal_makespan == rep.lower_bound
        else:
            # paired group, then middle group, then singles achieves the bound
            pi = tuple(range(1, k + 1)) + tuple(range(k + 1, k + l + 1)) + tuple(
                range(k + l + 1, k + l + s + 1)
            )
            sched = complete_m2_erd(tf, pi)
            assert check_feasible(tf, sched).ok
            assert makespan(sched) == rep.lower_bound


# A 7 x 8 instance found by a seeded hill-climb over n, m <= 8 (single-arc
# flips, solve_exact as the oracle): greedy reaches 4/3 of the optimum, past
# the census's worst of 6/5 up to 4 x 4, and both ends of the bound chain
# are tight.  A7 has no successor, so greedy's key sums an empty row.
ARCS_7_BY_8 = (
    (1, 1), (1, 3), (1, 6),
    (2, 1), (2, 4), (2, 5), (2, 6), (2, 7),
    (3, 1), (3, 3), (3, 6), (3, 8),
    (4, 1), (4, 3), (4, 6), (4, 8),
    (5, 2), (5, 7), (5, 8),
    (6, 4), (6, 5), (6, 6),
)


def test_greedy_four_thirds_of_optimum_at_7_by_8():
    inst = Instance(n=7, m=8, arcs=ARCS_7_BY_8)
    assert inst.profile.out_deg == (3, 5, 4, 4, 3, 3, 0)
    assert greedy_order(inst) == (2, 3, 4, 5, 6, 1, 7)
    sched = solve_greedy(inst)
    assert check_feasible(inst, sched).ok
    rep = bounds_report(inst)
    opt = solve_exact(inst).optimal_makespan
    assert (makespan(sched), rep.greedy_upper) == (12, 12)
    assert (opt, rep.lower_bound, lower_bound(inst)) == (9, 9, 9)
    assert Fraction(makespan(sched), opt) == rep.ratio_bound == Fraction(4, 3)
