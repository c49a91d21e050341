"""The held run: the trace ``solve_pd2`` returns holds its pd2 run, and
``blocks`` checks every trace against a run.

Each ``solve_pd2`` call runs pd2 once and keeps its flat pick lists,
schedule and release times on the trace it returns, never on the instance.
A solved trace reads its triples from that run; ``blocks`` takes the run
from a trace solved for the same instance object, and runs pd2 afresh for
any other trace.  It takes a solved trace whose events were never set as
the run and compares any other trace with the run's triples; only a trace
that differs is walked event by event, to name the first event that
differs.  These tests pin that: ``solve_pd2`` plus ``blocks`` on its own
trace run pd2 once, each ``blocks`` call on any other trace runs it once
more, the run dies with its trace, and every trace that is not the run is
refused as before.  ``test_properties.py`` checks that the solved trace and
an unpickled copy give the same blocks, and the blocks of the
successor-walk oracle.
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

    def counted(prof, n):
        runs.append(prof)
        return run(prof, n)

    monkeypatch.setattr(pd2, "_run", counted)
    return runs


def test_solved_trace_skips_the_replay(ex1, replays):
    _, trace = solve_pd2(ex1)
    assert len(replays) == 1
    blocks(ex1, trace)
    assert len(replays) == 1
    # a trace built by hand holds no run, so blocks runs pd2 to check it
    blocks(ex1, Pd2Trace(trace.events))
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
    short = dataclasses.replace(trace, events=trace.events[:-1])
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
    # a copy carries the events only, not the run
    assert "_run" not in vars(again)
    assert blocks(ex1, again) == blocks(ex1, trace)
    assert len(replays) == 2


def test_swapped_events_go_through_the_replay(ex1, replays):
    _, trace = solve_pd2(ex1)
    events = trace.events
    object.__setattr__(trace, "events", events[:-1])
    with pytest.raises(ValueError, match=f"{NOT_THE_RUN} 6 \\(B3\\)"):
        blocks(ex1, trace)
    object.__setattr__(trace, "events", (*events, (1, 0, ())))
    with pytest.raises(ValueError, match=f"{NOT_THE_RUN} 7 \\(B1\\)"):
        blocks(ex1, trace)
    # an equal tuple that is not the one solve_pd2 built is compared too
    object.__setattr__(trace, "events", tuple(list(events)))
    assert trace.events == events and trace.events is not events
    # the trace still holds its run, so only the hand-built trace runs pd2
    assert blocks(ex1, trace) == blocks(ex1, Pd2Trace(events))
    assert len(replays) == 2


def test_each_solve_and_each_other_trace_runs_pd2_once(ex1, replays):
    _, trace = solve_pd2(ex1)
    _, again = solve_pd2(ex1)
    assert again == trace
    assert len(replays) == 2
    solved = blocks(ex1, trace)
    assert blocks(ex1, again) == solved
    assert len(replays) == 2
    assert blocks(ex1, Pd2Trace(trace.events)) == solved
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
    run = weakref.ref(vars(trace)["_run"])
    assert run().inst is ex1
    del trace
    assert run() is None
    # the instance, still alive, kept nothing of the run
    assert set(vars(ex1)) <= {"n", "m", "_succ", "profile"}
