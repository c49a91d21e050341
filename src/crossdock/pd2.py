"""Exact solver for instances where every A-operation has two successors.

The algorithm repeatedly takes the pending B-operation of minimal current
in-degree (zero-degree ones go straight onto machine 2), runs its
remaining predecessors on machine 1, and updates degrees.  The resulting
schedule meets ``lower_bound``, the paper's corrected bound, hence is
optimal; Lemma 1's class bound max{n+2, m} (max{n+2, m+1} without pendant
B-operations) is that bound restricted to this class, and ``lemma1_bound``
returns it.  One private function, ``_run``, is the pick loop, and it lays
out the schedule as it picks: each batch's A-operations take the next
machine-1 positions, each successor's release time is overwritten with the
completion of its latest predecessor, and each pick starts on machine 2 at
the later of its release and the previous completion.  That is the
machine-1 order of the batches completed in pick order, with no second
walk over the arcs.  The bookkeeping keeps no copy of the shared
adjacency: one done-flag per operation marks what has run.

pd2 is deterministic, so an instance has one run.  ``solve_pd2`` keeps
it on the trace it returns, as the pick loop writes it, flat lists and no
object per pick: the pick order, each pick's degree, the machine-1 order,
the schedule and the release times.  The run lives as long as that trace;
the instance keeps only its profile.

The trace is the one record of a run: one pick per B-operation, in
machine-2 order, each the triple ``(b_index, picked_degree, a_batch)``,
with the batch it ran on machine 1 (a zero pick is ``(j, 0, ())``).  The
trace ``solve_pd2`` returns builds these triples from the run's lists the
first time its ``events`` are read, as ``Instance.arcs`` is built on first
read; solving, ``blocks`` and the CLI read none.  The trace decomposes
into blocks: a block opens whenever the
picked degree exceeds the current block's label, and the label equals the
number of machine-1 operations the block runs before its first machine-2
operation (the block's offset).  The machine-2 operations
precedence-forced past the block's last machine-1 completion (the
overhang) number 1 or 2 for labels >= 2, which is what makes the stitched
schedule tight.  Both are read off the run's release times.

The labels are core numbers.  On this class each A-operation is an edge
between its two successors, so an instance is a multigraph on the
B-operations, with pendants as isolated vertices.  A pick removes a vertex
of least current degree with its edges: smallest-last elimination (Matula
and Beck, "Smallest-last ordering and clustering and graph coloring
algorithms", JACM 1983).  Under it, the largest removal degree up to a
vertex's removal is that vertex's core number, the number the linear
peeling of Batagelj and Zaversnik ("An O(m) algorithm for cores
decomposition of networks", 2003) computes.  A block opens exactly when
that maximum rises, so the label of B_j's block is B_j's core number, and
the last label is the degeneracy.  The block lemma speaks of pd2 runs
only, so ``blocks`` accepts only a trace equal to its instance's run.  A
trace that ``solve_pd2`` returned for the same instance object, whose
events were never set, is that run and needs no check; for any other trace
``blocks`` runs pd2 again and compares the trace with the run's triples.
``blocks`` then cuts the blocks from the run's lists.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import filterfalse, zip_longest

from .greedy import lower_bound
from .instance import DegreeProfile, Instance, degree_profile
from .schedule import Schedule


class NotD2Error(ValueError):
    """Instance outside the two-successor class; carries the offending index."""

    def __init__(self, a_index: int, out_deg: int):
        self.a_index = a_index
        self.out_deg = out_deg
        super().__init__(f"A{a_index} has out-degree {out_deg}, expected 2")


Step = tuple[int, int, tuple[int, ...]]


@dataclass(frozen=True)
class Pd2Trace:
    """A pd2 run: ``(b_index, picked_degree, a_batch)`` per pick, in machine-2 order.

    ``events`` must be a tuple that hashes, so that a trace hashes and
    compares equal to the run it records; anything else, such as a list
    step or a list batch, raises ``TypeError``.  The trace ``solve_pd2``
    returns skips these checks: it holds the run itself, and its
    ``events`` are that run's triples, built on first read and then the
    run's own tuple.  Pickles and copies carry ``events`` only, so they
    equal, byte for byte, a trace built around the same triples.
    """

    events: tuple[Step, ...]

    def __post_init__(self) -> None:
        if type(self.events) is not tuple:
            raise TypeError(f"Pd2Trace events must be a tuple, got {type(self.events).__name__}")
        try:
            hash(self.events)
        except TypeError as exc:
            raise TypeError(f"Pd2Trace events must be hashable: {exc}") from None

    @classmethod
    def _of_run(cls, run: _Run) -> Pd2Trace:
        """The trace of ``run``, whose events are built on first read."""
        trace = cls.__new__(cls)
        trace.__dict__["_run"] = run
        return trace

    def __getattr__(self, name: str) -> tuple[Step, ...]:
        # Called only for what the instance dict lacks: the events of a
        # trace _of_run made, until they are first read.
        run = self.__dict__.get("_run")
        if name != "events" or run is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        events = self.__dict__["events"] = run.events
        return events

    def __getstate__(self) -> dict[str, tuple[Step, ...]]:
        return {"events": self.events}


@dataclass(frozen=True)
class Block:
    label: int
    a_ops: tuple[int, ...]
    b_ops: tuple[int, ...]
    offset_len: int
    overhang_len: int


def _require_d2(inst: Instance) -> DegreeProfile:
    prof = degree_profile(inst)
    out_deg = prof.out_deg
    if out_deg.count(2) != len(out_deg):
        for i, d in enumerate(out_deg, start=1):
            if d != 2:
                raise NotD2Error(i, d)
    return prof


def _run(prof: DegreeProfile, n: int) -> tuple[list[int], ...]:
    """The pd2 run on ``prof`` (with ``n`` A-operations) and its schedule.

    Returns ``(order, degree, pi, start_a, start_b, r)``, flat lists and
    no tuple per pick.  ``order`` holds the B-operations in pick order,
    which is machine-2 order, and ``degree`` each pick's degree.  Each pick
    takes the pending B-operation of least (current degree, index), and its
    batch is the entries of the sorted ``prof.pred[j]`` whose done-flag is
    still clear: as many as its degree, none at degree 0.  ``pi`` is the
    batches laid end to end, the machine-1 order.  A bucket queue realizes
    the order: one index heap per degree level, and a ``low`` pointer
    that falls on each decrement and rises past empty levels.  Degrees
    only fall, so a B-operation may hold stale entries at levels above its
    degree; a stale entry is one of an operation already picked (see the
    loop), and is skipped when popped.  The loop ends at its last pick,
    when no B-operation is pending, and the stale entries still in the
    levels are dropped with them, unpopped.  Until then every pending
    B-operation has an entry at its current degree, at least ``low``, so
    ``low`` never passes the last level.

    The same loop lays out the schedule, and it is
    ``complete_m2_erd(inst, pi)``.  The batches run back to back on
    machine 1, and ``r[u]`` (``r[0]`` unused) is overwritten with the
    completion of each predecessor of B_u as it runs, so it ends as B_u's
    release time under ``pi``.  Each pick starts on machine 2 at the later
    of its release and the previous completion, so it remains to see that
    pick order is the ERD order, release time then index.  Pendants,
    released at 0, come first in index order.  A degree pick's release is
    the end of its own batch, which rises from pick to pick; so the batch
    of the pick of B_j at degree d is ``pi[r[j] - d:r[j]]``.  A zero pick
    released in the batch of the degree pick j had degree at least j's
    when j was picked, and its pending predecessors all lie in j's batch,
    so they are exactly that batch: it has j's release time and, the
    degrees being equal, a larger index than j.  The zero picks after j
    follow in index order.
    """
    succ, pred = prof.succ, prof.pred
    deg = [0, *prof.in_deg]
    done_a = [False] * len(succ)
    done_b = [False] * len(deg)
    r = [0] * len(deg)
    start_a = [0] * n
    start_b = [0] * (len(deg) - 1)
    order: list[int] = []
    degree: list[int] = []
    pi: list[int] = []
    levels: list[list[int]] = [[] for _ in range(max(deg) + 1)]
    for j in range(1, len(deg)):
        levels[deg[j]].append(j)  # ascending, so each level is a heap
    heappop, heappush = heapq.heappop, heapq.heappush
    add_pick, add_degree, add_a = order.append, degree.append, pi.append
    low = 0
    left = len(deg) - 1  # B-operations not yet picked
    pos = t = 0  # machine-1 and machine-2 completions so far
    while left:
        level = levels[low]
        if not level:
            low += 1
            continue
        j = heappop(level)
        # An entry is pushed at the degree it then has, and low falls to
        # every new degree, so every B-operation whose degree is below low
        # has already been picked: an entry at level low is current or done.
        if done_b[j]:
            continue
        done_b[j] = True
        left -= 1
        add_pick(j)
        add_degree(low)
        if low:
            # Lazily filtered: each A-operation's flag is set as it runs,
            # and the predecessors of j are distinct.
            for a in filterfalse(done_a.__getitem__, pred[j]):
                done_a[a] = True
                add_a(a)
                start_a[a - 1] = pos
                pos += 1
                for u in succ[a]:
                    r[u] = pos
                    if done_b[u]:
                        continue
                    d = deg[u] - 1
                    deg[u] = d
                    heappush(levels[d], u)
                    if d < low:
                        low = d
        rj = r[j]
        if t < rj:
            t = rj
        start_b[j - 1] = t
        t += 1
    # The done-flags let no A-operation run twice, so this says every one
    # ran: each has a successor, whose pick runs its pending predecessors.
    if pos != n:
        raise AssertionError(f"pd2 ran {pos} of {n} A-operations")
    return order, degree, pi, start_a, start_b, r


class _Run:
    """pd2's run on ``inst``, as ``_run`` writes it, and its schedule.

    ``inst`` is the instance object it ran on; ``order``, ``degree`` and
    ``r`` are ``_run``'s lists, ``pi`` its machine-1 order as a tuple, so
    that a slice of it is a batch.  The triples of ``events`` are built from
    them on first read.  Raises ``NotD2Error`` off the class.
    """

    def __init__(self, inst: Instance) -> None:
        order, degree, pi, start_a, start_b, r = _run(_require_d2(inst), inst.n)
        self.inst, self.order, self.degree, self.pi, self.r = inst, order, degree, tuple(pi), r
        self.schedule = Schedule(start_a=tuple(start_a), start_b=tuple(start_b))

    @cached_property
    def events(self) -> tuple[Step, ...]:
        """``(j, d, pi[r[j] - d:r[j]])`` per pick, so ``(j, 0, ())`` at degree 0."""
        pi, r = self.pi, self.r
        steps = []
        step = steps.append
        for j, d in zip(self.order, self.degree):
            end = r[j]
            step((j, d, pi[end - d:end]))
        return tuple(steps)


def solve_pd2(inst: Instance) -> tuple[Schedule, Pd2Trace]:
    """Run the degree-driven exact algorithm; returns schedule and trace."""
    run = _Run(inst)
    return run.schedule, Pd2Trace._of_run(run)


def lemma1_bound(inst: Instance) -> int:
    """Lemma 1's class bound, which is ``lower_bound`` on this class.

    Lemma 1 bounds a two-successor instance by max{n+2, m} with pendant
    B-operations, else max{n+2, m+1}.  Every out-degree is 2, so
    ``lower_bound`` is max{n+2, m+d} with d = dminB:

    - d = 0 gives max{n+2, m};
    - d = 1 gives max{n+2, m+1};
    - d >= 2: 2n, the sum of the in-degrees, is at least d*m, so
      m + d <= 2n/d + d, which is convex in d and equals n + 2 at d = 2
      and at d = n (d <= n, since each in-degree counts distinct
      A-operations); both bounds are then n + 2.

    Raises ``NotD2Error`` off the class.
    """
    _require_d2(inst)
    return lower_bound(inst)


def blocks(inst: Instance, trace: Pd2Trace) -> tuple[Block, ...]:
    """Cut the trace into blocks and measure each laid out in isolation.

    The block lemma holds for pd2 runs only, and pd2 is deterministic, so
    the trace must equal the run ``solve_pd2(inst)`` returns.  A trace
    ``solve_pd2`` returned for this instance object holds that run, and
    ``blocks`` reads it there; for any other trace it runs pd2 on ``inst``
    again.  A trace holding the run, whose events were never set, needs no
    check.  Any other trace is compared with the run's events, in C and on item
    identity once the solved trace's events are read, which are the run's
    own tuple; on a mismatch the first event that differs, or is missing
    or extra, raises ``ValueError``, whatever that event holds.

    The blocks are cut from the run's flat lists: a block opens at each
    pick whose degree exceeds every degree before it, and that degree is
    its label.  The first pick runs the block's first ``label`` machine-1
    operations and is released as they end, so the offset is the label;
    the overhang is the picks released, by the run's release times ``r``,
    no earlier than the block's machine-1 run ends.  No walk over the
    successors is needed.
    """
    known = trace.__dict__
    held = known.get("_run")
    run = held if held is not None and held.inst is inst else _Run(inst)
    if run is not held or "events" in known:
        events, steps = trace.events, run.events
        if events != steps:
            for k, (got, want) in enumerate(zip_longest(events, steps)):
                if got != want:
                    step = got if k < len(events) else want  # want when got is missing
                    b = f" (B{step[0]})" if _is_step(step) else ""
                    raise ValueError(f"trace is not the pd2 run of this instance at event {k}{b}")
    order, degree, pi, r = run.order, run.degree, run.pi, run.r
    opens = []  # the picks whose degree exceeds every degree before them
    label = -1
    for k, d in enumerate(degree):
        if d > label:
            label = d
            opens.append(k)
    # A block's first pick has degree label, and its batch, which ends at
    # its release, opens the block's machine-1 run; label 0's block holds
    # the pendants alone and runs nothing.
    starts = [r[order[k]] - degree[k] for k in opens]
    result = []
    for first, last, start, end in zip(opens, [*opens[1:], len(order)], starts, [*starts[1:], len(pi)]):
        b_ops = tuple(order[first:last])
        # precedence-forced past the block's machine-1 tail; operations
        # merely queued behind machine 2 do not count.  Picks come in
        # release-time order (see _run), so those released at end or later
        # are the block's last.
        overhang = len(b_ops) - bisect_left(b_ops, end, key=r.__getitem__) if end > start else 0
        result.append(
            Block(
                label=degree[first],
                a_ops=pi[start:end],
                b_ops=b_ops,
                # machine-2 starts never decrease, so the first pick, ready
                # once its batch is done, starts first, label operations in
                offset_len=degree[first],
                overhang_len=overhang,
            )
        )
    return tuple(result)


def _is_step(event: object) -> bool:
    """Whether ``event`` is a (b_index, picked_degree, a_batch) triple."""
    return type(event) is tuple and len(event) == 3 and type(event[2]) is tuple


def trace_to_json(trace: Pd2Trace) -> str:
    """The trace as JSON; an event that is not a step raises ``ValueError``."""
    events = []
    for k, event in enumerate(trace.events):
        if not _is_step(event):
            raise ValueError(f"trace event {k} is not a (b_index, degree, batch) triple: {event!r}")
        j, d, batch = event
        # a run's zero picks have empty batches; a hand-built one keeps its batch
        if d or batch:
            events.append({"type": "deg", "b": j, "degree": d, "a_batch": list(batch)})
        else:
            events.append({"type": "zero", "b": j})
    return json.dumps({"events": events}, indent=2) + "\n"


def blocks_to_json(blks: tuple[Block, ...]) -> str:
    return json.dumps([asdict(b) for b in blks], indent=2) + "\n"
