"""Exact solver for instances where every A-operation has two successors.

The algorithm repeatedly takes the pending B-operation of minimal current
in-degree (zero-degree ones go straight onto machine 2), runs its
remaining predecessors on machine 1, and updates degrees.  The resulting
schedule meets the class lower bound max{n+2, m} (max{n+2, m+1} without
pendant B-operations), hence is optimal.  One private generator, ``_run``,
is the pick loop: ``solve_pd2`` builds its schedule from its steps, and
``blocks`` replays it for any trace that ``solve_pd2`` did not just build
for the same instance.  The bookkeeping keeps no copy of the shared
adjacency: one done-flag per operation marks what has run.

The trace is the one record of a run: one pick event per B-operation, in
machine-2 order, each with the batch it ran on machine 1 (a zero pick reads
as degree 0 with an empty batch).  It decomposes into blocks: a block opens
whenever the picked degree exceeds the current block's label, and the label
equals the number of machine-1 operations the block runs before its first
machine-2 operation (the block's offset).  The machine-2 operations
precedence-forced past the block's last machine-1 completion (the overhang)
number 1 or 2 for labels >= 2, which is what makes the stitched schedule
tight.  That lemma speaks of pd2 runs only, so ``blocks`` accepts only the
trace of its instance's run.  A trace that ``solve_pd2`` returns keeps the
run's raw steps and builds its events from them on the first read, so a
caller that never reads them never pays for them.  It also carries a
private mark, not a field, holding the profile it ran on and the events
tuple once built (None before).  When ``blocks`` is given the instance of
that profile and the trace holds that tuple (or still none), the trace is
the run by construction: the replay is skipped and the steps are grouped.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import chain, zip_longest
from operator import itemgetter
from typing import ClassVar

from .instance import DegreeProfile, Instance, degree_profile
from .schedule import Schedule, _list_schedule, release_times


class NotD2Error(ValueError):
    """Instance outside the two-successor class; carries the offending index."""

    def __init__(self, a_index: int, out_deg: int):
        self.a_index = a_index
        self.out_deg = out_deg
        super().__init__(f"A{a_index} has out-degree {out_deg}, expected 2")


@dataclass(frozen=True)
class ZeroPick:
    """A pick of a B-operation with no pending predecessor.

    It reads as a pick of degree 0 with an empty batch; both are class
    constants, not fields, so a zero pick holds and prints only ``b_index``.
    """

    b_index: int
    picked_degree: ClassVar[int] = 0
    a_batch: ClassVar[tuple[int, ...]] = ()


@dataclass(frozen=True)
class DegPick:
    b_index: int
    picked_degree: int
    a_batch: tuple[int, ...]


@dataclass(frozen=True)
class Pd2Trace:
    events: tuple[ZeroPick | DegPick, ...]

    def __getstate__(self) -> dict:
        # Pickles and copies leave out the run mark and the steps (see
        # solve_pd2); the mark holds the whole profile and could not survive
        # the trip anyway.
        return {"events": self.events}

    def __getattr__(self, name: str) -> tuple[ZeroPick | DegPick, ...]:
        # Called only when normal lookup fails: on a trace from solve_pd2,
        # the first read of events builds them from the steps and re-points
        # the mark at them.  Any other name fails without touching self, so
        # unpickling and copying never start a build.
        if name != "events":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        events = tuple([DegPick(j, d, batch) if d else ZeroPick(j) for j, d, batch in self._steps])
        self.__dict__.update(events=events, _run_of=(self._run_of[0], events))
        return events


@dataclass(frozen=True)
class Block:
    label: int
    a_ops: tuple[int, ...]
    b_ops: tuple[int, ...]
    offset_len: int
    overhang_len: int


def _require_d2(inst: Instance) -> DegreeProfile:
    prof = degree_profile(inst)
    for i, d in enumerate(prof.out_deg, start=1):
        if d != 2:
            raise NotD2Error(i, d)
    return prof


def _run(prof: DegreeProfile) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The pd2 run: yields (b_index, picked_degree, batch) in machine-2 order.

    Each step takes the pending B-operation of least (current degree,
    index); its batch is the entries of the sorted ``prof.pred[j]`` whose
    done-flag is still clear, empty at degree 0.  A bucket queue realizes
    the order: one index heap per degree level, and a ``low`` pointer
    that falls on each decrement and rises past empty levels.  Degrees
    only fall, so an entry whose level no longer matches is stale and
    skipped when popped.
    """
    succ, pred = prof.succ, prof.pred
    deg = [0, *prof.in_deg]
    done_a = [False] * len(succ)
    done_b = [False] * len(deg)
    levels: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for j in range(1, len(deg)):
        levels[deg[j]].append(j)  # ascending, so each level is a heap
    heappop, heappush = heapq.heappop, heapq.heappush
    low, top = 0, len(levels)
    while low < top:
        level = levels[low]
        if not level:
            low += 1
            continue
        j = heappop(level)
        if done_b[j] or deg[j] != low:
            continue
        done_b[j] = True
        if low == 0:
            yield j, 0, ()
            continue
        batch = tuple([a for a in pred[j] if not done_a[a]])
        yield j, low, batch
        for a in batch:
            done_a[a] = True
            for t in succ[a]:
                if done_b[t]:
                    continue
                d = deg[t] - 1
                deg[t] = d
                heappush(levels[d], t)
                if d < low:
                    low = d


def solve_pd2(inst: Instance) -> tuple[Schedule, Pd2Trace]:
    """Run the degree-driven exact algorithm; returns schedule and trace."""
    prof = _require_d2(inst)
    steps = list(_run(prof))
    # Every A-operation has a successor, whose pick runs every predecessor
    # not yet done, so the batches cover machine 1 (release_times checks it).
    pi = tuple(chain.from_iterable(map(itemgetter(2), steps)))
    sched = _list_schedule(inst, pi, release_times(inst, pi), map(itemgetter(0), steps))
    # The steps and the run mark (the profile, and the events tuple once
    # built) are not fields, so they stay out of ==, hash, repr and JSON.
    trace = Pd2Trace.__new__(Pd2Trace)
    trace.__dict__.update(_steps=steps, _run_of=(prof, None))
    return sched, trace


def lemma1_bound(inst: Instance) -> int:
    """Class lower bound: max{n+2, m} with pendant B-operations, else max{n+2, m+1}."""
    prof = _require_d2(inst)
    if 0 in prof.in_deg:
        return max(inst.n + 2, inst.m)
    return max(inst.n + 2, inst.m + 1)


def _replay(trace: Pd2Trace, prof: DegreeProfile) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The steps of the pd2 run on ``prof``, each checked against its event."""
    for k, (ev, step) in enumerate(zip_longest(trace.events, _run(prof))):
        got = None if ev is None else (type(ev), ev.b_index, ev.picked_degree, ev.a_batch)
        want = None if step is None else (DegPick if step[1] else ZeroPick, *step)
        if got != want:
            b = (got or want)[1]
            raise ValueError(f"trace is not the pd2 run of this instance at event {k} (B{b})")
        yield step


def blocks(inst: Instance, trace: Pd2Trace) -> tuple[Block, ...]:
    """Cut the trace into blocks and measure each laid out in isolation.

    The block lemma holds for pd2 runs only, and pd2 is deterministic, so
    the trace must equal the one ``solve_pd2(inst)`` returns.  A trace that
    ``solve_pd2`` built on this instance's profile, with its events tuple
    untouched (or not yet built), is that run: its steps are grouped as they
    stand, and its events are not built.  Any other trace
    (hand-built, replaced, unpickled, or solved on a distinct instance) is
    checked by replaying the run: the first event that differs from it, or
    is missing or extra, raises ``ValueError``.
    """
    prof = _require_d2(inst)
    run_of = getattr(trace, "_run_of", None)
    # Before the first read of events both sides are None.
    if run_of is not None and run_of[0] is prof and vars(trace).get("events") is run_of[1]:
        steps = trace._steps
    else:
        steps = _replay(trace, prof)
    groups: list[tuple[int, list[int], list[int]]] = []  # (label, a_ops, b_ops)
    label = -1
    for j, d, batch in steps:
        if d > label:
            label, a_ops, b_ops = d, [], []
            groups.append((label, a_ops, b_ops))
        a_ops.extend(batch)
        b_ops.append(j)

    result = []
    for label, a_ops, b_ops in groups:
        # B_j is ready once its last predecessor inside the block is done;
        # walking a_ops in order, the last position written is that one.
        ready: dict[int, int] = {}
        for done, a in enumerate(a_ops, start=1):
            for j in prof.succ[a]:
                ready[j] = done
        n_a = len(a_ops)
        # precedence-forced past the block's machine-1 tail; operations
        # merely queued behind machine 2 do not count
        overhang = sum(1 for j in b_ops if ready.get(j, 0) >= n_a) if n_a else 0
        # machine-2 starts never decrease, so the block's first pick starts first
        offset = min(ready.get(b_ops[0], 0), n_a)
        result.append(
            Block(
                label=label,
                a_ops=tuple(a_ops),
                b_ops=tuple(b_ops),
                offset_len=offset,
                overhang_len=overhang,
            )
        )
    return tuple(result)


def trace_to_json(trace: Pd2Trace) -> str:
    events = []
    for ev in trace.events:
        if isinstance(ev, ZeroPick):
            events.append({"type": "zero", "b": ev.b_index})
        else:
            events.append(
                {
                    "type": "deg",
                    "b": ev.b_index,
                    "degree": ev.picked_degree,
                    "a_batch": list(ev.a_batch),
                }
            )
    return json.dumps({"events": events}, indent=2) + "\n"


def blocks_to_json(blks: tuple[Block, ...]) -> str:
    return json.dumps([asdict(b) for b in blks], indent=2) + "\n"
