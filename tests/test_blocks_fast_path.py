"""The kept run: each ``Instance`` runs pd2 at most once, and ``blocks``
checks every trace against that run.

The first ``solve_pd2`` or ``blocks`` call on an instance object runs pd2
and keeps its flat pick lists, schedule and release times on the instance.
A solved trace holds that kept run and reads its triples from it;
``blocks`` takes a solved trace whose events were never set as the run and
compares any other trace with the run's triples; only a trace that differs
is walked event by event, to name the first event that differs, and no
trace starts a second run.
These tests pin that: an instance runs pd2 once whatever traces it is
given, a copy of the instance carries no run, and every trace that is not
the run is refused as before.  ``test_properties.py`` checks that the
solved trace and an unpickled copy give the same blocks, and the blocks of
the successor-walk oracle.
"""

import copy
import dataclasses
import pickle

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
    blocks(ex1, Pd2Trace(trace.events))
    assert len(replays) == 1


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
    assert blocks(ex1, again) == blocks(ex1, trace)
    assert len(replays) == 1


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
    assert blocks(ex1, trace) == blocks(ex1, Pd2Trace(events))
    assert len(replays) == 1


def test_an_instance_runs_pd2_once(ex1, replays):
    _, trace = solve_pd2(ex1)
    _, again = solve_pd2(ex1)
    assert again == trace
    solved = blocks(ex1, trace)
    assert blocks(ex1, Pd2Trace(trace.events)) == solved
    assert blocks(ex1, pickle.loads(pickle.dumps(trace))) == solved
    assert len(replays) == 1
    # a copy of the instance carries no run, so it runs pd2 again
    twin = copy.copy(ex1)
    assert "_pd2_run" not in vars(twin)
    assert blocks(twin, trace) == solved
    assert len(replays) == 2
