import copy
import dataclasses
import hashlib
import heapq
import pickle
import random
from types import SimpleNamespace

import pytest

import crossdock.pd2 as pd2
from crossdock import (
    Instance,
    NotD2Error,
    Pd2Trace,
    blocks,
    blocks_to_json,
    check_feasible,
    gen_d2,
    lemma1_bound,
    lower_bound,
    makespan,
    schedule_to_json,
    solve_exact,
    solve_pd2,
    trace_to_json,
)
from crossdock.instance import _build_profile
from oracles import core_numbers, lemma1_closed_form, steps_to_trace


def m2_sequence(trace):
    return tuple(j for j, _, _ in trace.events)


def m1_sequence(trace):
    return tuple(a for _, _, batch in trace.events for a in batch)


def test_solve_pd2_ex1(ex1):
    sched, trace = solve_pd2(ex1)
    assert m2_sequence(trace) == (1, 7, 4, 5, 6, 2, 3)
    assert m1_sequence(trace) == (4, 6, 5, 1, 2, 3)
    assert makespan(sched) == 8


def test_solve_pd2_single_a():
    inst = Instance(n=1, m=2, arcs=frozenset({(1, 1), (1, 2)}))
    sched, trace = solve_pd2(inst)
    assert sched.start_a == (0,)
    assert sched.start_b == (1, 2)
    assert makespan(sched) == 3


def test_solve_pd2_many_pendants():
    arcs = frozenset({(1, 1), (1, 2)})
    inst = Instance(n=1, m=10, arcs=arcs)
    sched, _ = solve_pd2(inst)
    assert makespan(sched) == 10  # max{n+2, m}


def test_solve_pd2_rejects_non_d2():
    inst = Instance(n=2, m=3, arcs=frozenset({(1, 1), (1, 2), (2, 3)}))
    with pytest.raises(NotD2Error) as exc:
        solve_pd2(inst)
    assert exc.value.a_index == 2
    assert "A2" in str(exc.value)


def test_run_raises_when_an_a_operation_never_runs():
    # A2 has no successor, so no pick runs it; without the check the run
    # would return pi == [1], and A2 would be laid out at A1's start, 0.
    prof = _build_profile(Instance(2, 2, frozenset({(1, 1), (1, 2)})))
    with pytest.raises(AssertionError, match="pd2 ran 1 of 2 A-operations"):
        pd2._run(prof)


@pytest.mark.parametrize("a,b,pendants", [(2000, 2000, 40), (2000, 200, 0)], ids=["sparse", "deep_core"])
@pytest.mark.parametrize("seed", [1, 2])
def test_run_stops_at_its_last_pick(a, b, pendants, seed, monkeypatch):
    # Each B-operation enters the heaps once up front and once per push, and
    # is popped live once, when it is picked.  A loop that drained every heap
    # would pop all m + pushes entries; one that ends at its last pick leaves
    # stale entries unpopped.
    counts = {"pop": 0, "push": 0}

    def heappop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    def heappush(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(pd2, "heapq", SimpleNamespace(heappop=heappop, heappush=heappush))
    inst = gen_d2(a, b, pendants, seed)
    sched, _ = solve_pd2(inst)
    assert makespan(sched) == lower_bound(inst)
    assert inst.m <= counts["pop"] < inst.m + counts["push"]


def test_lemma1_bound_values(ex1):
    assert lemma1_bound(ex1) == 8  # pendants present: max{8, 7}
    inst = Instance(n=1, m=2, arcs=frozenset({(1, 1), (1, 2)}))
    assert lemma1_bound(inst) == 3  # no pendants: max{3, 3}


def test_lemma1_bound_rejects_non_d2(cex):
    with pytest.raises(NotD2Error):
        lemma1_bound(cex)


def _in_degree_regular(n, m):
    """A d2 instance whose B-operations all have in-degree 2n/m: A_i takes
    slots 2i-1 and 2i of the sequence 1, 2, ..., m, 1, 2, ... (m >= 2 and
    m divides 2n), two consecutive and hence distinct B-operations."""
    arcs = frozenset((k // 2 + 1, k % m + 1) for k in range(2 * n))
    return Instance(n=n, m=m, arcs=arcs)


def test_lemma1_bound_on_in_degree_regular_instances():
    # Every in-degree is d = 2n/m, from 2 (m = n) up to n (m = 2): the
    # range where m + d <= n + 2 rests on the convexity of 2n/d + d, with
    # equality at both ends and only there.
    for n in range(2, 40):
        for m in range(2, n + 1):
            if 2 * n % m:
                continue
            inst = _in_degree_regular(n, m)
            d = 2 * n // m
            assert set(inst.profile.in_deg) == {d} and set(inst.profile.out_deg) == {2}
            assert lemma1_bound(inst) == lower_bound(inst) == lemma1_closed_form(inst) == n + 2
            assert makespan(solve_pd2(inst)[0]) == n + 2
            assert (m + d == n + 2) == (d in (2, n))


def test_pd2_optimal_on_random_instances():
    for seed in range(120):
        rng = random.Random(seed)
        a = rng.randint(1, 7)
        b = rng.randint(2, 8)
        inst = gen_d2(a, b, rng.randint(0, max(0, b - 2)), seed)
        sched, _ = solve_pd2(inst)
        assert makespan(sched) == solve_exact(inst).optimal_makespan == lemma1_bound(inst)


def test_pd2_feasible_no_machine1_idle():
    for seed in range(60):
        rng = random.Random(1234 + seed)
        a = rng.randint(1, 8)
        b = rng.randint(2, 9)
        inst = gen_d2(a, b, rng.randint(0, max(0, b - 2)), seed)
        sched, _ = solve_pd2(inst)
        assert check_feasible(inst, sched).ok
        assert sorted(sched.start_a) == list(range(inst.n))


def test_blocks_ex1(ex1):
    _, trace = solve_pd2(ex1)
    blks = blocks(ex1, trace)
    assert [b.label for b in blks] == [0, 1, 3]
    bl0, bl1, bl3 = blks
    assert bl0.a_ops == () and set(bl0.b_ops) == {1, 7}
    assert set(bl1.a_ops) == {4, 5, 6} and set(bl1.b_ops) == {4, 5, 6}
    assert set(bl3.a_ops) == {1, 2, 3} and set(bl3.b_ops) == {2, 3}
    assert bl3.offset_len == 3
    assert bl3.overhang_len == 2


def test_core_numbers_ex1(ex1):
    # B2 and B3 share three edges (A1-A3), a 3-core; A4-A6 make the path
    # B4-B5-B6-B3, which peels at degree 1; B1 and B7 are isolated.
    assert core_numbers(ex1) == [0, 0, 3, 3, 1, 1, 1, 0]


def test_blocks_single_block():
    inst = Instance(n=1, m=2, arcs=frozenset({(1, 1), (1, 2)}))
    _, trace = solve_pd2(inst)
    blks = blocks(inst, trace)
    assert len(blks) == 1
    assert blks[0].label == 1
    assert blks[0].overhang_len == 2


def test_blocks_rejects_mismatched_trace(ex1):
    other = Instance(n=1, m=2, arcs=frozenset({(1, 1), (1, 2)}))
    _, trace = solve_pd2(other)
    with pytest.raises(ValueError):
        blocks(ex1, trace)


def _k22():
    """Two A-operations, both predecessors of both B-operations."""
    return Instance(n=2, m=2, arcs=frozenset({(1, 1), (2, 1), (1, 2), (2, 2)}))


def test_blocks_rejects_traces_that_skip_predecessors():
    inst = _k22()
    assert solve_pd2(inst)[1].events == ((1, 2, (1, 2)), (2, 0, ()))
    # B1 picked at degree 0 (label-0 block), and B1 at degree 1 with one
    # of its two predecessors (label-1 block): neither is the pd2 run.
    for events in [((1, 0, ()), (2, 0, ())), ((1, 1, (2,)), (2, 0, ()))]:
        with pytest.raises(ValueError, match="event 0 \\(B1\\)"):
            blocks(inst, steps_to_trace(events))


def test_blocks_rejects_swapped_events(ex1):
    events = list(solve_pd2(ex1)[1].events)
    events[3], events[4] = events[4], events[3]
    with pytest.raises(ValueError, match="event 3 \\(B6\\)"):
        blocks(ex1, steps_to_trace(events))


def test_blocks_rejects_truncated_and_extended_traces(ex1):
    events = solve_pd2(ex1)[1].events
    with pytest.raises(ValueError, match="event 6 \\(B3\\)"):
        blocks(ex1, steps_to_trace(events[:-1]))
    with pytest.raises(ValueError, match="event 7 \\(B1\\)"):
        blocks(ex1, steps_to_trace((*events, (1, 0, ()))))


def test_trace_refuses_events_that_are_not_a_tuple(ex1):
    _, trace = solve_pd2(ex1)
    order, degree, pi = trace.order, trace.degree, trace.pi
    with pytest.raises(TypeError, match="order must be a tuple of ints, got list"):
        Pd2Trace(list(order), degree, pi)
    with pytest.raises(TypeError, match="pi must be a tuple of ints, got NoneType"):
        Pd2Trace(order, degree, None)
    # an element that is not an int, bool included, is refused as well
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match=f"degree must be a tuple of ints, got {type(bad).__name__}"):
            Pd2Trace(order, (*degree[:-1], bad), pi)
    # a solved trace, built without these checks, is the same value as one
    # built by hand around its tuples, and blocks accepts both
    checked = Pd2Trace(order, degree, pi)
    assert trace == checked and hash(trace) == hash(checked) and repr(trace) == repr(checked)
    assert dataclasses.asdict(trace) == dataclasses.asdict(checked)
    assert pickle.dumps(trace) == pickle.dumps(checked)
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert copy.copy(trace) == copy.deepcopy(trace) == checked
    assert trace_to_json(trace) == trace_to_json(checked)
    assert blocks(ex1, trace) == blocks(ex1, checked)


def test_trace_refuses_degrees_that_do_not_cut_pi(ex1):
    _, trace = solve_pd2(ex1)
    order, degree, pi = trace.order, trace.degree, trace.pi
    with pytest.raises(ValueError, match="degree -1 is negative"):
        Pd2Trace(order, (-1, 1, *degree[2:]), pi)
    with pytest.raises(ValueError, match="has 7 picks but 6 degrees"):
        Pd2Trace(order, degree[:-1], pi)
    with pytest.raises(ValueError, match="degrees sum to 6, but pi holds 5"):
        Pd2Trace(order, degree, pi[:-1])
    with pytest.raises(ValueError, match="degrees sum to 7, but pi holds 6"):
        Pd2Trace(order, (*degree[:-1], 1), pi)


@pytest.mark.parametrize(
    "field,value,k",
    [
        # pi alone: A5 and A1 swap between B6's batch and B2's
        ("pi", (4, 6, 1, 5, 2, 3), 4),
        # pi alone: A1 and A2 swap inside B2's batch
        ("pi", (4, 6, 5, 2, 1, 3), 5),
        # degree alone: B5's one moves to B4, the sum kept
        ("degree", (0, 0, 2, 0, 1, 3, 0), 2),
        # degree alone: one of B2's three moves to the last pick, B3
        ("degree", (0, 0, 1, 1, 1, 2, 1), 5),
    ],
    ids=["pi_across_batches", "pi_inside_a_batch", "degree_forward", "degree_to_a_zero_pick"],
)
def test_blocks_rejects_one_tampered_field(ex1, field, value, k):
    _, trace = solve_pd2(ex1)
    tampered = dataclasses.replace(trace, **{field: value})
    # k is the first event whose triple differs
    assert tampered.events[:k] == trace.events[:k] and tampered.events[k] != trace.events[k]
    b = trace.order[k]
    with pytest.raises(ValueError, match=f"^trace is not the pd2 run of this instance at event {k} \\(B{b}\\)$"):
        blocks(ex1, tampered)


def test_blocks_rejects_non_d2(cex):
    trace = Pd2Trace(order=tuple(range(1, cex.m + 1)), degree=(0,) * cex.m, pi=())
    with pytest.raises(NotD2Error):
        blocks(cex, trace)


def test_block_structure_invariants():
    for seed in range(120):
        rng = random.Random(seed)
        a = rng.randint(1, 7)
        b = rng.randint(2, 8)
        inst = gen_d2(a, b, rng.randint(0, max(0, b - 2)), seed)
        _, trace = solve_pd2(inst)
        blks = blocks(inst, trace)
        labels = [blk.label for blk in blks]
        assert labels == sorted(labels) and len(set(labels)) == len(labels)
        a_blocks = [blk for blk in blks if blk.a_ops]
        for blk in a_blocks:
            assert blk.offset_len == blk.label
            if blk.label >= 2:
                assert blk.overhang_len in (1, 2)
        assert a_blocks[-1].overhang_len == 2
        # trace covers every operation exactly once
        seen_b = list(m2_sequence(trace))
        assert sorted(seen_b) == list(range(1, inst.m + 1))
        seen_a = list(m1_sequence(trace))
        assert sorted(seen_a) == list(range(1, inst.n + 1))


def test_trace_and_blocks_json(ex1):
    _, trace = solve_pd2(ex1)
    tj = trace_to_json(trace)
    assert '"type": "zero"' in tj and '"type": "deg"' in tj
    bj = blocks_to_json(blocks(ex1, trace))
    assert '"label": 3' in bj and '"overhang_len": 2' in bj


def _json_block(label, a_ops, b_ops, offset_len, overhang_len):
    def ints(xs):
        if not xs:
            return "[]"
        return "[\n" + ",\n".join(f"      {x}" for x in xs) + "\n    ]"

    return (
        "  {\n"
        f'    "label": {label},\n'
        f'    "a_ops": {ints(a_ops)},\n'
        f'    "b_ops": {ints(b_ops)},\n'
        f'    "offset_len": {offset_len},\n'
        f'    "overhang_len": {overhang_len}\n'
        "  }"
    )


def test_blocks_json_full_text(ex1):
    _, trace = solve_pd2(ex1)
    expected = "[\n" + ",\n".join(
        [
            _json_block(0, [], [1, 7], 0, 0),
            _json_block(1, [4, 6, 5], [4, 5, 6], 1, 1),
            _json_block(3, [1, 2, 3], [2, 3], 3, 2),
        ]
    ) + "\n]\n"
    assert blocks_to_json(blocks(ex1, trace)) == expected


def test_trace_event_batches_match_degrees(ex1):
    _, trace = solve_pd2(ex1)
    for _, d, batch in trace.events:
        assert len(batch) == d


# Recorded from pd2 as it ran before its trace became the pick loop's own
# triples; any change to a pick, a batch, a block or a start changes it.
PD2_GOLDEN_DIGEST = "8ac0a7e759a7a39bf98ed689e34aee9520012180d6c473d22aa87157fe1a7ad6"


def test_pd2_output_golden_digest():
    # The first pass writes the trace's JSON before blocks runs, the second
    # runs blocks first; neither leaves anything on the trace but its run.
    for blocks_first in (False, True):
        digest = hashlib.sha256()
        for a in range(1, 60, 3):
            for b in range(3, 60, 5):
                for p in sorted({0, 1, b - 2}):
                    for seed in range(4):
                        inst = gen_d2(a, b, p, seed)
                        sched, trace = solve_pd2(inst)
                        if blocks_first:
                            blks = blocks(inst, trace)
                            assert set(vars(trace)) == {"order", "degree", "pi", "_inst"}
                            text = trace_to_json(trace) + blocks_to_json(blks)
                        else:
                            text = trace_to_json(trace) + blocks_to_json(blocks(inst, trace))
                        digest.update((text + schedule_to_json(sched)).encode())
        assert digest.hexdigest() == PD2_GOLDEN_DIGEST, blocks_first
