"""One adjacency build per instance, and the rewritten layers against the old code.

The reference functions are the implementations that ``greedy_order``,
``release_times``, ``complete_m2_erd``, ``check_feasible`` and
``degree_profile`` had before the adjacency was shared: a ``Fraction`` ratio
key, a position dict, a sort by release time, a walk over ``sorted(arcs)``
and dict-based adjacency.  Those of the adjacency, the greedy order, the
release times and the ERD completion live in ``oracles``, since CI runs
them at north-star size too.  ``old_solve_pd2`` is ``solve_pd2`` before it
shared the machine-2 list scheduler: private predecessor sets and its own
layout loop.  ``old_blocks`` is ``blocks`` before it read zero and degree
picks one way: a split of zero from degree picks, a position dict and a
start-time loop per block.  The library must agree with them exactly,
except that ``blocks`` now rejects every trace but the pd2 run's, which
``old_blocks`` only spot-checked.
"""

import heapq
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, strategies as st

import crossdock.instance as instance_module
from crossdock import (
    Block,
    DegreeProfile,
    Instance,
    NotD2Error,
    Schedule,
    blocks,
    bounds_report,
    check_feasible,
    classify,
    complete_m2_erd,
    degree_profile,
    gen_d2,
    gen_random,
    greedy_order,
    lemma1_bound,
    parse_instance,
    release_times,
    serialize_instance,
    solve_greedy,
    solve_pd2,
)
from oracles import (
    old_adjacency,
    old_complete_m2_erd,
    old_greedy_order,
    old_release_times,
    pred_table,
    steps_to_trace,
)


# -- reference implementations ------------------------------------------------


def old_precedence_violations(inst, sched):
    return [
        f"precedence violation on arc ({i},{j})"
        for i, j in sorted(inst.arcs)
        if sched.start_b[j - 1] < sched.start_a[i - 1] + 1
    ]


# -- instance strategies -------------------------------------------------------


@st.composite
def random_instances(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    arcs = draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m))))
    return Instance(n=n, m=m, arcs=arcs)


@st.composite
def d2_instances(draw):
    b = draw(st.integers(2, 40))
    pendants = draw(st.integers(0, b - 2))
    return gen_d2(draw(st.integers(1, 40)), b, pendants, draw(st.integers(0, 2**32)))


instances = st.one_of(random_instances(), d2_instances())


@st.composite
def instance_and_order(draw):
    inst = draw(instances)
    return inst, tuple(draw(st.permutations(range(1, inst.n + 1))))


def old_solve_pd2(inst):
    prof = degree_profile(inst)
    assert all(d == 2 for d in prof.out_deg)
    succ, rows = prof.succ, pred_table(inst)
    pred = [set(p) for p in rows]
    deg = [0, *prof.in_deg]
    alive_a = set(range(1, inst.n + 1))
    done_b = [False] * (inst.m + 1)
    heap = [(d, j) for j, d in enumerate(prof.in_deg, start=1)]
    heapq.heapify(heap)
    m1_seq, m2_seq, events = [], [], []
    while heap:
        d, j = heapq.heappop(heap)
        if done_b[j] or d != deg[j]:
            continue
        done_b[j] = True
        m2_seq.append(j)
        if d == 0:
            events.append((j, 0, ()))
            continue
        batch = tuple(sorted(pred[j]))
        events.append((j, d, batch))
        m1_seq.extend(batch)
        for a in batch:
            alive_a.discard(a)
            for t in succ[a]:
                if done_b[t] or a not in pred[t]:
                    continue
                pred[t].discard(a)
                deg[t] -= 1
                heapq.heappush(heap, (deg[t], t))
    m1_seq.extend(sorted(alive_a))
    start_a = [0] * inst.n
    for pos, a in enumerate(m1_seq):
        start_a[a - 1] = pos
    start_b = [0] * inst.m
    t = 0
    for j in m2_seq:
        ready = max((start_a[i - 1] + 1 for i in rows[j]), default=0)
        t = max(t, ready)
        start_b[j - 1] = t
        t += 1
    return Schedule(start_a=tuple(start_a), start_b=tuple(start_b)), steps_to_trace(events)


# -- differential tests --------------------------------------------------------


@given(instances)
def test_profile_matches_dict_adjacency(inst):
    prof = degree_profile(inst)
    out_deg, in_deg, succ, pred = old_adjacency(inst)
    assert (prof.out_deg, prof.in_deg) == (out_deg, in_deg)
    assert prof.succ[1:] == tuple(succ[i] for i in range(1, inst.n + 1))
    assert pred_table(inst)[1:] == tuple(pred[j] for j in range(1, inst.m + 1))


# greedy_order sums a row's in-degrees with itemgetter(0, 0, *row): rows of
# 0, 1 and 2 successors, and of 64 or more, side by side.
@given(instances)
@example(Instance(n=1, m=1, arcs=()))
@example(Instance(n=3, m=2, arcs=[(1, 2), (2, 1), (3, 2)]))
@example(Instance(n=4, m=3, arcs=[(1, 1), (1, 2), (2, 2), (2, 3), (4, 1), (4, 3)]))
@example(
    Instance(
        n=5,
        m=80,
        arcs=[*((1, j) for j in range(1, 65)), *((2, j) for j in range(17, 81)), (3, 5), (3, 80), (5, 40)],
    )
)
def test_greedy_order_matches_fraction_key(inst):
    assert greedy_order(inst) == old_greedy_order(inst)


@given(instance_and_order())
def test_release_times_match_position_dict(case):
    inst, pi = case
    assert release_times(inst, pi) == old_release_times(inst, pi)


@given(instance_and_order())
def test_erd_matches_sorted_completion(case):
    inst, pi = case
    assert complete_m2_erd(inst, pi) == old_complete_m2_erd(inst, pi)


@given(instances, st.randoms(use_true_random=False))
def test_check_feasible_reports_arcs_in_sorted_order(inst, rng):
    sched = Schedule(
        start_a=tuple(rng.randrange(inst.n + 1) for _ in range(inst.n)),
        start_b=tuple(rng.randrange(inst.n + 2) for _ in range(inst.m)),
    )
    reported = [v for v in check_feasible(inst, sched).violations if v.startswith("precedence")]
    assert reported == old_precedence_violations(inst, sched)


@st.composite
def d2_instances_with_pendants(draw):
    b = draw(st.integers(2, 60))
    pendants = draw(st.integers(0, b - 2))
    return gen_d2(draw(st.integers(1, 60)), b, pendants, draw(st.integers(0, 2**32)))


def old_blocks(inst, trace):
    pred = pred_table(inst)
    seen_a = set()
    seen_b = set()
    for j, d, batch in trace.events:
        if j in seen_b or not (1 <= j <= inst.m):
            raise ValueError(f"trace/instance mismatch at B{j}")
        seen_b.add(j)
        if len(batch) != d:
            raise ValueError(f"batch size mismatch at B{j}")
        for a in batch:
            if a in seen_a or a not in pred[j]:
                raise ValueError(f"trace/instance mismatch at A{a}")
            seen_a.add(a)
    if seen_b != set(range(1, inst.m + 1)):
        raise ValueError("trace does not cover every B-operation")
    groups = []
    current = None
    for j, d, batch in trace.events:
        if d == 0:
            if current is None:
                current = (0, [], [])
                groups.append(current)
            current[2].append(j)
        else:
            if current is None or d > current[0]:
                current = (d, [], [])
                groups.append(current)
            current[1].extend(batch)
            current[2].append(j)
    result = []
    for label, a_ops, b_ops in groups:
        pos = {a: k for k, a in enumerate(a_ops)}
        n_a = len(a_ops)
        t = 0
        starts = []
        overhang = 0
        for j in b_ops:
            ready = max((pos[i] + 1 for i in pred[j] if i in pos), default=0)
            if n_a and ready >= n_a:
                overhang += 1
            t = max(t, ready)
            starts.append(t)
            t += 1
        offset = min(min(starts) if starts else 0, n_a)
        result.append(Block(label, tuple(a_ops), tuple(b_ops), offset, overhang))
    return tuple(result)


@st.composite
def validated_traces(draw):
    """A trace ``old_blocks`` accepts but ``solve_pd2`` need not produce:
    every B once in shuffled order, each running a random sub-batch, in
    random order, of its predecessors not yet run."""
    inst = draw(st.one_of(random_instances(), d2_instances_with_pendants()))
    rng = draw(st.randoms(use_true_random=False))
    order = list(range(1, inst.m + 1))
    rng.shuffle(order)
    pred = pred_table(inst)
    done = set()
    events = []
    for j in order:
        batch = [a for a in pred[j] if a not in done and rng.random() < 0.6]
        rng.shuffle(batch)
        done.update(batch)
        events.append((j, len(batch), tuple(batch)))
    return inst, steps_to_trace(events)


@st.composite
def solved_d2_traces(draw):
    inst = draw(d2_instances_with_pendants())
    return inst, solve_pd2(inst)[1]


@st.composite
def tampered_traces(draw):
    """A validated or solved trace with one event dropped, repeated or
    altered, or with a unit of degree moved to one pick from another."""
    inst, trace = draw(st.one_of(validated_traces(), solved_d2_traces()))
    events = list(trace.events)
    k = draw(st.integers(0, len(events) - 1))
    j, d, batch = events[k]
    how = draw(st.sampled_from(["drop", "repeat", "degree", "foreign_a"]))
    if how == "drop":
        del events[k]
    elif how == "repeat":
        events.append(events[k])
    elif how == "degree":
        # the degrees cut pi into the batches, so their sum is kept
        donors = [i for i, e in enumerate(trace.degree) if e and i != k]
        if donors:
            degree = list(trace.degree)
            degree[draw(st.sampled_from(donors))] -= 1
            degree[k] += 1
            return inst, replace(trace, degree=tuple(degree))
        del events[k]
    else:
        a = draw(st.integers(1, inst.n + 1))
        events[k] = (j, len(batch) + 1, (*batch, a))
    return inst, steps_to_trace(events)


@given(st.one_of(solved_d2_traces(), validated_traces(), tampered_traces()))
def test_blocks_match_position_dict_copy(case):
    """The pd2 run's trace gives ``old_blocks``'s blocks; any other raises."""
    inst, trace = case
    try:
        solved = solve_pd2(inst)[1]
    except NotD2Error:
        solved = None
    if trace == solved:
        assert blocks(inst, trace) == old_blocks(inst, trace)
    else:
        with pytest.raises(ValueError):
            blocks(inst, trace)


@given(d2_instances_with_pendants())
def test_solve_pd2_matches_set_based_copy(inst):
    sched, trace = solve_pd2(inst)
    old_sched, old_trace = old_solve_pd2(inst)
    assert sched == old_sched
    assert trace == old_trace


def test_greedy_order_dense_instance():
    inst = gen_random(120, 120, 0.5, seed=4)
    assert greedy_order(inst) == old_greedy_order(inst)
    assert solve_greedy(inst) == old_complete_m2_erd(inst, old_greedy_order(inst))


# -- the cached profile --------------------------------------------------------


def counting_builds(monkeypatch):
    """The instances ``_build_profile`` builds a profile for, in call order."""
    built = []
    real_build = instance_module._build_profile

    def counting_build(inst):
        built.append(inst)
        return real_build(inst)

    monkeypatch.setattr(instance_module, "_build_profile", counting_build)
    return built


def test_profile_is_cached_and_read_only(ex1, monkeypatch):
    """One build per instance, on the two-successor class and off it."""
    inst = Instance(n=4, m=5, arcs=[(1, 1), (1, 2), (1, 4), (2, 4), (4, 2), (4, 5)])
    twin = instance_module._build_profile(inst)  # built before the count starts
    built = counting_builds(monkeypatch)
    prof = degree_profile(ex1)
    assert degree_profile(ex1) is prof is ex1.profile
    assert built == [ex1]
    assert prof.succ is ex1._succ  # a constructed instance's own table, not a copy
    assert all(type(row) is tuple for row in prof.succ)
    with pytest.raises(FrozenInstanceError):
        prof.succ = ()
    with pytest.raises(TypeError):
        prof.succ[1] = (9,)
    with pytest.raises(FrozenInstanceError):
        ex1.profile = prof
    with pytest.raises(FrozenInstanceError):
        del ex1.profile
    assert degree_profile(ex1) is prof

    prof = degree_profile(inst)
    assert built == [ex1, inst]
    pred = pred_table(inst)
    assert pred == ((), (1,), (1, 4), (), (1, 2), (4,))
    assert all(type(row) is tuple for row in pred)
    with pytest.raises(FrozenInstanceError):
        prof.pred = pred
    with pytest.raises(FrozenInstanceError):
        del prof.pred
    assert (prof == twin, hash(prof), repr(prof)) == (True, hash(twin), repr(twin))
    assert repr(prof) == (
        "DegreeProfile(out_deg=(3, 1, 0, 2), in_deg=(1, 2, 0, 2, 1), "
        "succ=((), (1, 2, 4), (4,), (), (2, 5)))"
    )
    assert degree_profile(inst) is prof
    assert built == [ex1, inst]


def test_profile_holds_three_fields_and_no_predecessor_table():
    assert [f.name for f in fields(DegreeProfile)] == ["out_deg", "in_deg", "succ"]
    prof = degree_profile(Instance(n=4, m=5, arcs=[(1, 1), (1, 2), (1, 4), (2, 4), (4, 2), (4, 5)]))
    assert set(vars(prof)) == {"out_deg", "in_deg", "succ"}
    with pytest.raises(AttributeError):
        prof.pred


def test_profile_is_not_a_field(ex1):
    fresh = Instance(n=ex1.n, m=ex1.m, arcs=ex1.arcs)
    degree_profile(ex1)
    assert ex1 == fresh and hash(ex1) == hash(fresh)
    assert repr(ex1) == repr(fresh)
    assert "profile" not in repr(ex1)


# -- one build per instance ----------------------------------------------------


def greedy_pipeline(text):
    inst = parse_instance(text)
    sched = solve_greedy(inst)
    bounds_report(inst)
    assert check_feasible(inst, sched).ok
    return inst


def pd2_pipeline(text):
    inst = parse_instance(text)
    assert classify(inst).is_d2
    sched, trace = solve_pd2(inst)
    lemma1_bound(inst)
    blocks(inst, trace)
    assert check_feasible(inst, sched).ok
    return inst


@pytest.mark.parametrize(
    "pipeline,make",
    [
        (greedy_pipeline, lambda seed: gen_random(40, 30, 0.3, seed)),
        (pd2_pipeline, lambda seed: gen_d2(40, 30, 2, seed)),
    ],
    ids=["greedy", "pd2"],
)
def test_one_adjacency_build_per_instance(monkeypatch, pipeline, make):
    """One profile per instance on either path, holding its three fields
    only: pd2 keeps its predecessor lists to its own run."""
    texts = [serialize_instance(make(seed)) for seed in range(3)]
    built = counting_builds(monkeypatch)
    for k, text in enumerate(texts, start=1):
        inst = pipeline(text)
        assert len(built) == k and built[-1] is inst
        assert set(vars(inst.profile)) == {"out_deg", "in_deg", "succ"}
        assert inst.profile.succ is inst._succ
