import random

import pytest

from crossdock import (
    ExactResult,
    Instance,
    check_feasible,
    gen_random,
    gen_tight,
    makespan,
    solve_exact,
    TightParams,
)
from oracles import enumerate_exact, optimal_makespan_statespace


def test_solve_exact_ex1(ex1):
    result = solve_exact(ex1)
    assert result.optimal_makespan == 8
    assert makespan(result.schedule) == 8
    assert check_feasible(ex1, result.schedule).ok
    assert result.permutations_examined == 2 ** ex1.n  # subset states
    # The n! enumeration finds the DP's schedule after all 6! = 720 orders.
    assert enumerate_exact(ex1) == ExactResult(
        schedule=result.schedule, optimal_makespan=8, permutations_examined=720
    )


def test_solve_exact_tight():
    assert solve_exact(gen_tight(TightParams(3, 2, 3))).optimal_makespan == 10


def test_solve_exact_cex(cex):
    assert solve_exact(cex).optimal_makespan == 3


def test_solve_exact_size_limit():
    inst = Instance(n=21, m=1, arcs=frozenset())
    with pytest.raises(ValueError, match="^instance too large: n=21 > limit 20$"):
        solve_exact(inst)


def test_statespace_agrees_with_permutation_search():
    for seed in range(30):
        rng = random.Random(seed)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        inst = gen_random(n, m, rng.random(), seed)
        assert optimal_makespan_statespace(inst) == solve_exact(inst).optimal_makespan


def test_arc_monotonicity():
    for seed in range(30):
        rng = random.Random(seed)
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        arcs: set[tuple[int, int]] = set()
        prev = solve_exact(Instance(n=n, m=m, arcs=frozenset())).optimal_makespan
        candidates = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        rng.shuffle(candidates)
        for arc in candidates[:6]:
            arcs.add(arc)
            cur = solve_exact(Instance(n=n, m=m, arcs=frozenset(arcs))).optimal_makespan
            assert cur >= prev
            prev = cur


def test_deterministic_result(ex1):
    r1 = solve_exact(ex1)
    r2 = solve_exact(ex1)
    assert r1.schedule == r2.schedule
