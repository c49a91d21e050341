import random

import pytest
from hypothesis import given, strategies as st

from crossdock import (
    FeasibilityReport,
    Instance,
    Schedule,
    check_feasible,
    complete_m2_erd,
    degree_profile,
    gen_random,
    gen_tight,
    greedy_order,
    makespan,
    release_times,
    render_gantt,
    schedule_from_json,
    schedule_to_json,
    TightParams,
)
from conftest import EX1_GREEDY_PI
from oracles import best_m2_bruteforce, check_feasible_by_walk, pred_table


def test_release_times_ex1(ex1):
    assert release_times(ex1, EX1_GREEDY_PI) == (0, 6, 6, 1, 2, 3, 0)


def test_release_times_no_arcs():
    inst = Instance(n=2, m=2, arcs=frozenset())
    assert release_times(inst, (1, 2)) == (0, 0)
    assert release_times(inst, (2, 1)) == (0, 0)


def test_release_times_single_arc():
    inst = Instance(n=1, m=1, arcs=frozenset({(1, 1)}))
    assert release_times(inst, (1,)) == (1,)


def test_release_times_dominate_degrees_and_predecessors():
    for seed in range(50):
        rng = random.Random(seed)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        inst = gen_random(n, m, rng.random(), seed)
        pi = tuple(rng.sample(range(1, n + 1), n))
        r = release_times(inst, pi)
        prof = degree_profile(inst)
        pred = pred_table(inst)
        pos = {a: k for k, a in enumerate(pi)}
        for j in range(1, m + 1):
            assert r[j - 1] >= prof.in_deg[j - 1]
            for i in pred[j]:
                assert r[j - 1] >= pos[i] + 1


@pytest.mark.parametrize("fn", [release_times, complete_m2_erd])
@pytest.mark.parametrize(
    "pi",
    [
        (4, 6, 5, 1, 2), (4, 6, 5, 1, 2, 2), (4, 6, 5, 1, 2, 7), (4, 6, 5, 1, 2, 3, 3), (),
        (4, 6, 5, 1, 1, 3), (4, 6, 5, 0, 2, 3), (4, 6, 5, -1, 2, 3), (4, 6, 5, 1, 2, 3, 7),
        (4, 6, 5, 1, 2, 2.5), (4, 6, 5, True, 2, 3), (4, 6, 5, 1.0, 2, 3),
    ],
    ids=[
        "short", "repeated", "out_of_range", "long_repeated", "empty",
        "duplicate_and_gap", "zero", "negative", "long", "fractional",
        "bool_one", "float_one",
    ],
)
def test_machine1_order_must_be_a_permutation(ex1, fn, pi):
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.6"):
        fn(ex1, pi)


def test_erd_ex1(ex1):
    sched = complete_m2_erd(ex1, EX1_GREEDY_PI)
    assert sched.start_b == (0, 6, 7, 2, 3, 4, 1)
    assert makespan(sched) == 8


def test_erd_no_arcs():
    inst = Instance(n=2, m=3, arcs=frozenset())
    sched = complete_m2_erd(inst, (1, 2))
    assert sched.start_b == (0, 1, 2)
    assert makespan(sched) == 3


def test_erd_tight_family_greedy():
    tf = gen_tight(TightParams(3, 2, 3))
    sched = complete_m2_erd(tf, greedy_order(tf))
    assert makespan(sched) == 12  # 2k + s + l + 1


def test_bruteforce_ex1(ex1):
    sched = best_m2_bruteforce(ex1, EX1_GREEDY_PI)
    assert makespan(sched) == 8
    assert makespan(sched) == makespan(complete_m2_erd(ex1, EX1_GREEDY_PI))


def test_bruteforce_no_arcs():
    inst = Instance(n=3, m=2, arcs=frozenset())
    assert makespan(best_m2_bruteforce(inst, (1, 2, 3))) == 3
    inst = Instance(n=2, m=4, arcs=frozenset())
    assert makespan(best_m2_bruteforce(inst, (2, 1))) == 4


def test_bruteforce_size_limit():
    inst = Instance(n=1, m=10, arcs=frozenset())
    with pytest.raises(ValueError, match="m <= 9"):
        best_m2_bruteforce(inst, (1,))


def test_erd_matches_bruteforce_random():
    for seed in range(200):
        rng = random.Random(seed)
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        inst = gen_random(n, m, rng.random(), seed)
        pi = tuple(rng.sample(range(1, n + 1), n))
        assert makespan(complete_m2_erd(inst, pi)) == makespan(best_m2_bruteforce(inst, pi))


def test_erd_tie_break_irrelevant():
    # Scheduling equal-release B-operations by descending index instead of
    # ascending must not change the makespan.
    for seed in range(200):
        rng = random.Random(seed)
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        inst = gen_random(n, m, rng.random(), seed)
        pi = tuple(rng.sample(range(1, n + 1), n))
        r = release_times(inst, pi)
        order = sorted(range(1, m + 1), key=lambda j: (r[j - 1], -j))
        t = 0
        for j in order:
            t = max(t, r[j - 1]) + 1
        assert max(t, n) == makespan(complete_m2_erd(inst, pi))


def test_erd_always_feasible():
    for seed in range(100):
        rng = random.Random(seed)
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        inst = gen_random(n, m, rng.random(), seed)
        pi = tuple(rng.sample(range(1, n + 1), n))
        assert check_feasible(inst, complete_m2_erd(inst, pi)).ok


def test_check_feasible_ok(ex1):
    sched = complete_m2_erd(ex1, EX1_GREEDY_PI)
    report = check_feasible(ex1, sched)
    assert report.ok
    assert report.violations == ()


def test_check_feasible_size_mismatch():
    # The lengths are checked first; nothing else is compared.
    inst = Instance(n=2, m=2, arcs=frozenset())
    assert check_feasible(inst, Schedule(start_a=(0,), start_b=(1, 2))) == FeasibilityReport(
        ok=False, violations=("size mismatch: expected 2 A-starts and 2 B-starts, got 1 and 2",)
    )


def test_check_feasible_precedence_violation():
    inst = Instance(n=1, m=1, arcs=frozenset({(1, 1)}))
    report = check_feasible(inst, Schedule(start_a=(0,), start_b=(0,)))
    assert not report.ok
    assert any("(1,1)" in v for v in report.violations)


def test_check_feasible_overlap():
    inst = Instance(n=2, m=1, arcs=frozenset())
    report = check_feasible(inst, Schedule(start_a=(0, 0), start_b=(1,)))
    assert not report.ok
    assert any("machine-1 overlap" in v for v in report.violations)


def test_check_feasible_negative_start():
    inst = Instance(n=1, m=1, arcs=frozenset())
    report = check_feasible(inst, Schedule(start_a=(-1,), start_b=(0,)))
    assert any("negative start" in v for v in report.violations)


def test_check_feasible_non_integer_start():
    # A start that is not an int is reported in the same walk as a negative
    # one, A before B; overlaps and arcs are then not compared, and the
    # chart refuses it.
    inst = Instance(n=2, m=2, arcs={(1, 1)})
    assert check_feasible(inst, Schedule(start_a=(0, 1), start_b=(1.5, 2))).violations == (
        "non-integer start: B1 at 1.5",
    )
    report = check_feasible(inst, Schedule(start_a=(-1, True), start_b=(0, 1.0)))
    assert report.violations == (
        "negative start: A1 at -1",
        "non-integer start: A2 at True",
        "non-integer start: B2 at 1.0",
    )
    for bad in ("0", None, [0]):
        assert check_feasible(inst, Schedule(start_a=(bad, 1), start_b=(2, 2))).violations == (
            f"non-integer start: A1 at {bad!r}",
        )
    with pytest.raises(ValueError, match="non-integer start: A2 at True"):
        render_gantt(inst, Schedule(start_a=(0, True), start_b=(0, 1)))


def test_check_feasible_violation_order():
    # Negative starts (A then B), machine-1 then machine-2 overlaps, each
    # against the first operation at that time, then broken arcs in (i, j)
    # order.
    inst = Instance(n=4, m=3, arcs={(1, 1), (2, 2), (2, 3), (3, 3), (4, 1)})
    report = check_feasible(inst, Schedule(start_a=(2, -1, 2, 2), start_b=(1, -2, 1)))
    assert report == FeasibilityReport(
        ok=False,
        violations=(
            "negative start: A2 at -1",
            "negative start: B2 at -2",
            "machine-1 overlap: A1 and A3 both at 2",
            "machine-1 overlap: A1 and A4 both at 2",
            "machine-2 overlap: B1 and B3 both at 1",
            "precedence violation on arc (1,1)",
            "precedence violation on arc (2,2)",
            "precedence violation on arc (3,3)",
            "precedence violation on arc (4,1)",
        ),
    )


@st.composite
def edited_schedules(draw):
    """A drawn instance and ERD's feasible schedule for a drawn order, with
    up to four starts replaced: by True, a float, a negative, another start
    of the same machine (an overlap), 0 (on machine 2 this breaks the arcs
    into that B-operation) or any int up to n + m (late A-starts break arcs)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    inst = Instance(n, m, draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m)))))
    sched = complete_m2_erd(inst, tuple(draw(st.permutations(range(1, n + 1)))))
    starts = [list(sched.start_a), list(sched.start_b)]
    for _ in range(draw(st.integers(0, 4))):
        machine = draw(st.sampled_from(starts))
        k = draw(st.integers(0, len(machine) - 1))
        machine[k] = draw(
            st.one_of(
                st.just(True),
                st.sampled_from([0.0, 1.0, 2.5]),
                st.integers(-3, -1),
                st.sampled_from(machine),
                st.just(0),
                st.integers(0, n + m),
            )
        )
    return inst, Schedule(start_a=tuple(starts[0]), start_b=tuple(starts[1]))


@given(edited_schedules())
def test_check_feasible_matches_the_walk(case):
    # The C-level passes decide only schedules the walk finds no fault in
    # before the arcs; every report, violation order included, is the walk's.
    inst, sched = case
    assert check_feasible(inst, sched) == check_feasible_by_walk(inst, sched)


def test_makespan_values(ex1):
    assert makespan(Schedule(start_a=(0,), start_b=(1,))) == 2
    assert makespan(complete_m2_erd(ex1, EX1_GREEDY_PI)) == 8


def test_render_gantt_trivial():
    inst = Instance(n=1, m=1, arcs=frozenset({(1, 1)}))
    out = render_gantt(inst, Schedule(start_a=(0,), start_b=(1,)))
    lines = out.splitlines()
    assert len(lines) == 2
    assert "A1" in lines[0] and "." in lines[0]
    assert "B1" in lines[1] and "." in lines[1]


def test_render_gantt_ex1_single_idle(ex1):
    sched = complete_m2_erd(ex1, EX1_GREEDY_PI)
    lines = render_gantt(ex1, sched).splitlines()
    cells = lines[1].split("| ")[1].split()
    assert cells.count(".") == 1
    assert cells.index(".") == 5


def test_render_gantt_no_idle_without_arcs():
    inst = Instance(n=2, m=2, arcs=frozenset())
    out = render_gantt(inst, Schedule(start_a=(0, 1), start_b=(0, 1)))
    assert "." not in out


def test_render_gantt_rejects_infeasible():
    inst = Instance(n=1, m=1, arcs=frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="infeasible"):
        render_gantt(inst, Schedule(start_a=(0,), start_b=(0,)))


def test_schedule_json_round_trip(ex1):
    sched = complete_m2_erd(ex1, EX1_GREEDY_PI)
    text = schedule_to_json(sched)
    assert schedule_from_json(text) == sched
    assert '"makespan": 8' in text


def test_schedule_json_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        schedule_from_json("{ not json")
    with pytest.raises(ValueError, match="malformed"):
        schedule_from_json('{"makespan": 3}')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"start_a": [0.9], "start_b": [1.2]}', "start_a\\[0\\] = 0.9 is not an integer"),
        ('{"start_a": [0], "start_b": [1.0]}', "start_b\\[0\\] = 1.0 is not an integer"),
        ('{"start_a": [true], "start_b": [1]}', "start_a\\[0\\] = True is not an integer"),
        ('{"start_a": [0], "start_b": ["2"]}', "start_b\\[0\\] = '2' is not an integer"),
        ('{"start_a": [0], "start_b": [null]}', "start_b\\[0\\] = None is not an integer"),
        ('{"makespan": 99, "start_a": [0], "start_b": [1]}', "declared makespan 99 but the starts give 2"),
        ('{"makespan": 2.0, "start_a": [0], "start_b": [1]}', "makespan 2.0 is not an integer"),
        ('{"makespan": true, "start_a": [0], "start_b": [1]}', "makespan True is not an integer"),
        ('{"start_a": 0, "start_b": [1]}', "'start_a' is not a list"),
        ('{"start_a": [0]}', "missing 'start_b'"),
        ('{"start_a": [0], "start_b": [1], "start_a": [5]}', "^malformed schedule file: duplicate key 'start_a'$"),
        ('{"makespan": 9, "makespan": 2, "start_a": [0], "start_b": [1]}', "duplicate key 'makespan'"),
        ('{"makespam": 7, "start_a": [0], "start_b": [1]}', "^malformed schedule file: unknown key 'makespam'$"),
        ('{"start_a": [0], "start_b": [1], "start_c": []}', "unknown key 'start_c'"),
        ("[[0], [1]]", "expected a JSON object"),
    ],
)
def test_schedule_json_rejects_coercion(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        schedule_from_json(text)


@pytest.mark.parametrize(
    "start_a,start_b,fragment",
    [
        ((True,), (1,), "start_a\\[0\\] = True is not an integer"),
        ((0,), (1.0,), "start_b\\[0\\] = 1.0 is not an integer"),
        ((0, "2"), (1, 2), "start_a\\[1\\] = '2' is not an integer"),
    ],
)
def test_schedule_to_json_refuses_what_the_reader_refuses(start_a, start_b, fragment):
    # json.dumps would write true, 1.0 and "2", which schedule_from_json
    # then refuses; the writer refuses them first, in the reader's words.
    with pytest.raises(ValueError, match="malformed schedule file: " + fragment):
        schedule_to_json(Schedule(start_a=start_a, start_b=start_b))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"start_a": [%s], "start_b": [1]}' % ("5" * 5000), "digits"),
        ("[" * 100000, "recursion"),
        ('\ufeff{"start_a": [0], "start_b": [1]}', "BOM"),
    ],
    ids=["digit_limit", "nesting", "byte_order_mark"],
)
def test_schedule_json_prefixes_every_decoder_error(text, fragment):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on a
    # number longer than int() reads, and a RecursionError on deep nesting;
    # both get the same prefix.  A leading byte-order mark keeps json.loads'
    # own message, which a bare JSONDecoder.decode would not give.
    with pytest.raises(ValueError, match=f"^malformed schedule file: .*{fragment}"):
        schedule_from_json(text)


def test_schedule_json_makespan_optional():
    sched = schedule_from_json('{"start_a": [0], "start_b": [1]}')
    assert sched == Schedule(start_a=(0,), start_b=(1,))


def test_empty_schedule_json_round_trip():
    # No starts at all: makespan 0, not a crash inside max().
    text = '{"makespan": 0, "start_a": [], "start_b": []}'
    sched = schedule_from_json(text)
    assert sched == Schedule(start_a=(), start_b=()) and makespan(sched) == 0
    assert schedule_from_json(schedule_to_json(sched)) == sched


def test_all_negative_starts_keep_makespan_zero():
    # makespan never falls below 0; check_feasible is what reports the starts.
    sched = Schedule(start_a=(-5,), start_b=(-5,))
    assert makespan(sched) == 0
    text = '{"makespan": 0, "start_a": [-5], "start_b": [-5]}'
    assert schedule_from_json(text) == sched
    assert schedule_from_json(schedule_to_json(sched)) == sched
