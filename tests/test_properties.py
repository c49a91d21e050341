"""Property forms of the paper's claims on drawn instances, and of the
instance-text and schedule-JSON round trips.

The exact subset DP is the optimum these are checked against; the seeded
loops in ``test_exact_dp.py`` cover the same claims at n = 10-14.
"""

import dataclasses
import json
import pickle
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from crossdock import (
    Instance,
    InstanceError,
    Schedule,
    blocks,
    bounds_report,
    complete_m2_erd,
    gen_d2,
    lemma1_bound,
    lower_bound,
    makespan,
    parse_instance,
    release_times,
    schedule_from_json,
    schedule_to_json,
    serialize_instance,
    solve_exact,
    solve_greedy,
    solve_pd2,
)
from conftest import one_pass
from oracles import blocks_by_walk, core_numbers, lemma1_closed_form, list_schedule, pd2_steps_by_scan


@st.composite
def arc_sets(draw, max_size):
    n = draw(st.integers(1, max_size))
    m = draw(st.integers(1, max_size))
    arcs = draw(st.frozensets(st.tuples(st.integers(1, n), st.integers(1, m))))
    return Instance(n=n, m=m, arcs=arcs)


@st.composite
def d2_instances(draw, max_a, max_b):
    b = draw(st.integers(2, max_b))
    pendants = draw(st.integers(0, b - 2))
    return gen_d2(draw(st.integers(1, max_a)), b, pendants, draw(st.integers(0, 2**32)))


@st.composite
def gen_d2_edge_pendants(draw, max_a, max_b):
    """gen_d2 with no pendant, one, or all but two."""
    b = draw(st.integers(2, max_b))
    pendants = draw(st.sampled_from([p for p in sorted({0, 1, b - 2}) if b - p >= 2]))
    return gen_d2(draw(st.integers(1, max_a)), b, pendants, draw(st.integers(0, 2**32)))


@st.composite
def hand_built_d2(draw, max_n, max_m):
    """Two distinct successors per A-operation, drawn from all of 1..m."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(2, max_m))
    pair = st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True)
    pairs = draw(st.lists(pair, min_size=n, max_size=n))
    return Instance(n=n, m=m, arcs=frozenset((i, j) for i, js in enumerate(pairs, start=1) for j in js))


@given(st.one_of(gen_d2_edge_pendants(max_a=40, max_b=40), hand_built_d2(max_n=40, max_m=40)))
def test_lemma1_bound_is_the_corrected_bound_and_the_closed_form(inst):
    assert lemma1_bound(inst) == lower_bound(inst) == lemma1_closed_form(inst)


@given(arc_sets(max_size=10))
def test_bounds_sandwich_the_optimum_and_greedy(inst):
    rep = bounds_report(inst)
    opt = solve_exact(inst).optimal_makespan
    assert rep.lower_bound <= opt <= makespan(solve_greedy(inst)) <= rep.greedy_upper


@given(d2_instances(max_a=12, max_b=12))
def test_pd2_meets_lemma1_bound_and_is_optimal(inst):
    sched, _ = solve_pd2(inst)
    assert makespan(sched) == lemma1_bound(inst) == lower_bound(inst) == solve_exact(inst).optimal_makespan


@given(d2_instances(max_a=60, max_b=60))
def test_block_lemma(inst):
    _, trace = solve_pd2(inst)
    a_blocks = [blk for blk in blocks(inst, trace) if blk.a_ops]
    for blk in a_blocks:
        assert blk.offset_len == blk.label
        if blk.label >= 2:
            assert blk.overhang_len in (1, 2)
    assert a_blocks[-1].overhang_len == 2


@given(d2_instances(max_a=60, max_b=60))
def test_solved_trace_gives_the_replayed_blocks(inst):
    # solve_pd2's trace holds its run's own steps, and an unpickled
    # copy, whose steps are equal but new objects, is compared by value
    _, trace = solve_pd2(inst)
    assert blocks(inst, trace) == blocks(inst, pickle.loads(pickle.dumps(trace)))


@given(d2_instances(max_a=60, max_b=60))
def test_pd2_schedule_is_its_batches_laid_out_by_release_times(inst):
    # solve_pd2 lays the schedule out from the trace alone; it must be the
    # batches' concatenation laid out by release_times in pick order.
    sched, trace = solve_pd2(inst)
    steps = trace.events
    pi = tuple(a for _, _, batch in steps for a in batch)
    r = release_times(inst, pi)
    assert sched == list_schedule(inst, pi, r, [j for j, _, _ in steps])
    assert trace.pi == pi
    # Pick k is released at the running sum of the picked degrees, the
    # identity the trace's three tuples rest on.
    assert [r[j - 1] for j in trace.order] == list(accumulate(trace.degree))


@given(st.one_of(d2_instances(max_a=60, max_b=60), hand_built_d2(max_n=40, max_m=40)))
def test_pd2_events_are_the_scan_run(inst):
    # The triples built from the run's flat lists are the run a plain
    # scan for the least (degree, index) makes, blocks first or events first.
    _, trace = solve_pd2(inst)
    blks = blocks(inst, trace)
    steps = pd2_steps_by_scan(inst)
    assert trace.events == steps
    assert blks == blocks(inst, trace) == blocks_by_walk(inst, steps)


@given(d2_instances(max_a=40, max_b=40), st.data())
def test_blocks_names_the_first_event_a_tampered_field_changes(inst, data):
    # Two entries of pi swapped, or one unit of degree moved between two
    # picks, each field alone: blocks names the first event that differs.
    _, trace = solve_pd2(inst)
    if len(trace.pi) > 1 and data.draw(st.booleans(), label="pi"):
        pi = list(trace.pi)
        i, j = data.draw(st.lists(st.sampled_from(range(len(pi))), min_size=2, max_size=2, unique=True))
        pi[i], pi[j] = pi[j], pi[i]
        tampered = dataclasses.replace(trace, pi=tuple(pi))
    else:
        degree = list(trace.degree)
        donor = data.draw(st.sampled_from([k for k, d in enumerate(degree) if d]))
        k = data.draw(st.sampled_from([k for k in range(len(degree)) if k != donor]))
        degree[donor] -= 1
        degree[k] += 1
        tampered = dataclasses.replace(trace, degree=tuple(degree))
    k = next(k for k, (got, want) in enumerate(zip(tampered.events, trace.events)) if got != want)
    message = f"^trace is not the pd2 run of this instance at event {k} \\(B{trace.order[k]}\\)$"
    with pytest.raises(ValueError, match=message):
        blocks(inst, tampered)


@given(st.one_of(d2_instances(max_a=60, max_b=60), hand_built_d2(max_n=40, max_m=40)))
def test_pd2_schedule_is_the_erd_completion_of_its_batches(inst):
    # Pick order is release time then index, so machine 2 runs as ERD does.
    sched, trace = solve_pd2(inst)
    pi = tuple(a for _, _, batch in trace.events for a in batch)
    assert sched == complete_m2_erd(inst, pi)


@given(d2_instances(max_a=60, max_b=60))
def test_blocks_match_the_successor_walk(inst):
    # blocks reads offset and overhang off the release times the instance
    # keeps with its run, for the solved trace and an unpickled copy alike.
    _, trace = solve_pd2(inst)
    solved = blocks(inst, trace)
    walked = blocks_by_walk(inst, trace.events)
    assert solved == walked
    assert blocks(inst, pickle.loads(pickle.dumps(trace))) == walked


@given(st.one_of(d2_instances(max_a=60, max_b=40), hand_built_d2(max_n=40, max_m=40)))
def test_block_labels_are_core_numbers(inst):
    # pd2 removes a least-degree B-operation with its edges, smallest-last
    # elimination, so the label of B_j's block is B_j's core number.
    _, trace = solve_pd2(inst)
    core = core_numbers(inst)
    labels = {j: blk.label for blk in blocks(inst, trace) for j in blk.b_ops}
    assert sorted(labels) == list(range(1, inst.m + 1))
    assert all(labels[j] == core[j] for j in labels)


def _control(ch):
    return ch != "\t" and (ch < " " or ch == "\x7f")


@given(arc_sets(max_size=30), st.lists(st.text(max_size=10), max_size=3))
def test_parse_inverts_serialize(inst, comments):
    # Any comment text: one with a control character other than tab, a line
    # break included, is refused; every text written takes the one-pass read.
    if any(_control(ch) for c in comments for ch in c):
        with pytest.raises(InstanceError):
            serialize_instance(inst, comments)
        return
    text = serialize_instance(inst, comments)
    assert one_pass(text) is not None
    parsed = parse_instance(text)
    assert parsed == inst
    assert parsed.profile == Instance(n=inst.n, m=inst.m, arcs=inst.arcs).profile
    assert serialize_instance(parsed, comments) == text


@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=20),
    st.lists(st.integers(-(2**70), 2**70), max_size=20),
)
def test_schedule_json_round_trip(start_a, start_b):
    sched = Schedule(start_a=tuple(start_a), start_b=tuple(start_b))
    text = schedule_to_json(sched)
    assert schedule_from_json(text) == sched
    # One past the latest start, and never below 0.
    assert json.loads(text)["makespan"] == max([0] + [s + 1 for s in start_a + start_b])


@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=20),
    st.lists(st.integers(-(2**70), 2**70), max_size=20),
)
def test_schedule_json_is_the_indented_json_dumps_text(start_a, start_b):
    # The writer joins its text itself; it must be json.dumps's, byte for
    # byte, empty lists included.
    sched = Schedule(start_a=tuple(start_a), start_b=tuple(start_b))
    data = {"makespan": makespan(sched), "start_a": start_a, "start_b": start_b}
    assert schedule_to_json(sched) == json.dumps(data, indent=2) + "\n"
