"""The solved trace: the trace ``solve_pd2`` returns is its pd2 run, and
``blocks`` checks every other trace against a run.

Each ``solve_pd2`` call runs pd2 once and returns its run as the trace's
three tuples, recording on the trace, never on the instance, the instance
object it solved.  ``blocks`` takes a trace solved for the same instance
object as the run, and runs pd2 afresh for any other trace, which it
compares with the run's tuples; only a trace that differs is walked event
by event, to name the first event that differs.  These tests pin that:
``solve_pd2`` plus ``blocks`` on its own trace run pd2 once, each
``blocks`` call on any other trace runs it once more, a copy carries no
record of the instance, the run dies with its trace, and every trace that
is not the run is refused as before.  ``test_properties.py`` checks that
the solved trace and an unpickled copy give the same blocks, and the
blocks of the successor-walk oracle.
"""

import copy
import dataclasses
import pickle
import weakref

import pytest

import crossdock.pd2 as pd2
from crossdock import (
    Instance,
    Pd2Trace,
    blocks,
    gen_d2,
    solve_pd2,
)

NOT_THE_RUN = "trace is not the pd2 run of this instance at event"


@pytest.fixture
def replays(monkeypatch):
    """Count the pd2 runs started from here on."""
    runs = []
    run = pd2._run

    def counted(prof):
        runs.append(prof)
        return run(prof)

    monkeypatch.setattr(pd2, "_run", counted)
    return runs


def test_solved_trace_skips_the_replay(ex1, replays):
    _, trace = solve_pd2(ex1)
    assert len(replays) == 1
    blocks(ex1, trace)
    assert len(replays) == 1
    # a trace built by hand records no instance, so blocks runs pd2 to check it
    blocks(ex1, Pd2Trace(trace.order, trace.degree, trace.pi))
    assert len(replays) == 2


def test_trace_of_another_instance_is_refused():
    inst, other = gen_d2(12, 12, 2, 1), gen_d2(12, 12, 2, 2)
    assert inst != other
    _, trace = solve_pd2(other)
    with pytest.raises(ValueError, match=NOT_THE_RUN):
        blocks(inst, trace)


def test_equal_but_distinct_instance_goes_through_the_replay(ex1, replays):
    _, trace = solve_pd2(ex1)
    twin = Instance(n=ex1.n, m=ex1.m, arcs=ex1.arcs)
    assert twin == ex1 and twin is not ex1
    assert blocks(twin, trace) == blocks(ex1, trace)
    assert len(replays) == 2


def test_replaced_trace_goes_through_the_replay(ex1):
    _, trace = solve_pd2(ex1)
    # the last pick, B3, is a zero pick, so pi stays whole
    short = dataclasses.replace(trace, order=trace.order[:-1], degree=trace.degree[:-1])
    with pytest.raises(ValueError, match=f"{NOT_THE_RUN} 6 \\(B3\\)"):
        blocks(ex1, short)


@pytest.mark.parametrize(
    "trip", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copied_trace_goes_through_the_replay(ex1, replays, trip):
    _, trace = solve_pd2(ex1)
    again = trip(trace)
    assert again == trace
    # a copy carries the three tuples only, not the instance solved
    assert set(vars(trace)) == {"order", "degree", "pi", "_inst"}
    assert set(vars(again)) == {"order", "degree", "pi"}
    assert blocks(ex1, again) == blocks(ex1, trace)
    assert len(replays) == 2


def test_swapped_events_go_through_the_replay(ex1, replays):
    _, trace = solve_pd2(ex1)
    order = trace.order
    swapped = dataclasses.replace(trace, order=(*order[:3], order[4], order[3], *order[5:]))
    with pytest.raises(ValueError, match=f"{NOT_THE_RUN} 3 \\(B6\\)"):
        blocks(ex1, swapped)
    extended = dataclasses.replace(trace, order=(*order, 1), degree=(*trace.degree, 0))
    with pytest.raises(ValueError, match=f"{NOT_THE_RUN} 7 \\(B1\\)"):
        blocks(ex1, extended)
    # equal tuples that are not the ones solve_pd2 built are compared too
    equal = dataclasses.replace(trace, order=tuple(list(order)), pi=tuple(list(trace.pi)))
    assert equal == trace and equal.order is not order
    assert blocks(ex1, equal) == blocks(ex1, trace)
    assert len(replays) == 4


def test_each_solve_and_each_other_trace_runs_pd2_once(ex1, replays):
    _, trace = solve_pd2(ex1)
    _, again = solve_pd2(ex1)
    assert again == trace
    assert len(replays) == 2
    solved = blocks(ex1, trace)
    assert blocks(ex1, again) == solved
    assert len(replays) == 2
    assert blocks(ex1, Pd2Trace(trace.order, trace.degree, trace.pi)) == solved
    assert blocks(ex1, pickle.loads(pickle.dumps(trace))) == solved
    assert len(replays) == 4
    # the trace's run was made on ex1, so blocks on a copy of ex1 runs pd2
    twin = copy.copy(ex1)
    assert set(vars(twin)) <= {"n", "m", "_succ"}
    assert blocks(twin, trace) == solved
    assert len(replays) == 5


def test_the_run_dies_with_its_trace(ex1):
    _, trace = solve_pd2(ex1)
    blocks(ex1, trace)
    assert vars(trace)["_inst"] is ex1
    run = weakref.ref(trace)
    del trace
    assert run() is None
    # the instance, still alive, kept nothing of the run
    assert set(vars(ex1)) <= {"n", "m", "_succ", "profile"}
