"""Exact solver for instances where every A-operation has two successors.

The algorithm repeatedly takes the pending B-operation of minimal current
in-degree (zero-degree ones go straight onto machine 2), runs its
remaining predecessors on machine 1, and updates degrees.  The resulting
schedule meets ``lower_bound``, the paper's corrected bound, hence is
optimal; Lemma 1's class bound max{n+2, m} (max{n+2, m+1} without pendant
B-operations) is that bound restricted to this class, and ``lemma1_bound``
returns it.  One private function, ``_run``, is the pick loop, and it
returns the trace alone; ``solve_pd2`` lays the schedule out from the
trace with no walk over the arcs: each A-operation at its position in
``pi``, each pick on machine 2 at the later of its release and the
previous completion.  The bookkeeping keeps no copy of the shared
adjacency: one done-flag per operation marks what has run.  pd2 is the one
reader of predecessor rows, so ``_run`` builds them from the successor
table for its run alone.

The trace is the run itself, three flat tuples and no object per pick:
``order``, the picks in machine-2 order; ``degree``, each pick's degree;
and ``pi``, the machine-1 order, which is the batches laid end to end.
Pick k is released as the first ``c_k = sum(degree[:k + 1])`` machine-1
operations end (see ``solve_pd2``), so its batch is
``pi[c_k - degree[k]:c_k]``: the three tuples fix the rest.
``events`` builds from them one ``(b_index, picked_degree, a_batch)``
triple per pick (a zero pick is ``(j, 0, ())``) when read; solving,
``blocks`` and the CLI read none.  The trace decomposes into blocks: a
block opens whenever the picked degree exceeds the current block's label,
and the label equals the number of machine-1 operations the block runs
before its first machine-2 operation (the block's offset).  The machine-2
operations precedence-forced past the block's last machine-1 completion
(the overhang) number 1 or 2 for labels >= 2, which is what makes the
stitched schedule tight.  Both are read off the release times ``c``.

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
only, so ``blocks`` accepts only a trace equal to its instance's run.  pd2
is deterministic, so an instance has one run: a trace that ``solve_pd2``
returned for the same instance object is that run and needs no check; for
any other trace ``blocks`` runs pd2 again and compares the two.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
from itertools import accumulate, filterfalse, zip_longest

from .greedy import lower_bound
from .instance import DegreeProfile, Instance, classify
from .schedule import Schedule


class NotD2Error(ValueError):
    """Instance outside the two-successor class; carries the offending index."""

    def __init__(self, a_index: int, out_deg: int):
        self.a_index = a_index
        self.out_deg = out_deg
        super().__init__(f"A{a_index} has out-degree {out_deg}, expected 2")


@dataclass(frozen=True)
class Pd2Trace:
    """A pd2 run: the picks in machine-2 order, their degrees, the machine-1 order.

    Each field must be a tuple of ints (else ``TypeError``); the degrees,
    one per pick, must be non-negative and sum to ``len(pi)`` (else
    ``ValueError``).  The trace ``solve_pd2`` returns also records the
    instance object it solved; pickles and copies drop that record, so they
    equal, byte for byte, a trace built by hand around the same tuples.
    """

    order: tuple[int, ...]
    degree: tuple[int, ...]
    pi: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, value in (("order", self.order), ("degree", self.degree), ("pi", self.pi)):
            kinds = set(map(type, value)) if type(value) is tuple else {type(value)}
            if not kinds <= {int}:
                got = min(kind.__name__ for kind in kinds - {int})
                raise TypeError(f"Pd2Trace {name} must be a tuple of ints, got {got}")
        if len(self.order) != len(self.degree):
            raise ValueError(f"Pd2Trace has {len(self.order)} picks but {len(self.degree)} degrees")
        if min(self.degree, default=0) < 0:
            raise ValueError(f"Pd2Trace degree {min(self.degree)} is negative")
        if sum(self.degree) != len(self.pi):
            raise ValueError(f"Pd2Trace degrees sum to {sum(self.degree)}, but pi holds {len(self.pi)}")

    def __getstate__(self) -> dict[str, tuple[int, ...]]:
        return {"order": self.order, "degree": self.degree, "pi": self.pi}

    @property
    def events(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """``(j, d, pi[c - d:c])`` per pick, c the running degree sum; ``(j, 0, ())`` at 0."""
        degree, pi = self.degree, self.pi
        return tuple([(j, d, pi[c - d:c]) for j, d, c in zip(self.order, degree, accumulate(degree))])


@dataclass(frozen=True)
class Block:
    label: int
    a_ops: tuple[int, ...]
    b_ops: tuple[int, ...]
    offset_len: int
    overhang_len: int


def _require_d2(inst: Instance) -> DegreeProfile:
    if not classify(inst).is_d2:
        # the first A-operation off the class names the refusal
        i, d = next((i, d) for i, d in enumerate(inst.profile.out_deg, start=1) if d != 2)
        raise NotD2Error(i, d)
    return inst.profile  # the one classify read


def _run(prof: DegreeProfile) -> tuple[list[int], list[int], list[int]]:
    """The pd2 run on ``prof``: ``(order, degree, pi)``, flat lists.

    ``order`` holds the B-operations in pick order, which is machine-2
    order, and ``degree`` each pick's degree.  Each pick takes the pending
    B-operation B_j of least (current degree, index), and its batch is the
    entries of ``pred[j]`` whose done-flag is still clear:
    as many as its degree, none at degree 0.  ``pred`` is built here, one
    list per B-operation filled from ``prof.succ`` in A-index order, so each
    is sorted; the profile keeps no predecessor table, and these lists are
    dropped when the run returns.  ``pi`` is the batches laid end to end,
    the machine-1 order.  A bucket queue realizes the order: one index heap
    per degree level, and a ``low`` pointer that falls on each decrement
    and rises past empty levels.  Degrees only fall, so a B-operation may
    hold stale entries at levels above its degree; a stale entry is one of
    an operation already picked (see the loop), and is skipped when popped.
    The loop ends at its last pick, when no B-operation is pending, and the
    stale entries still in the levels are dropped with them, unpopped.
    Until then every pending B-operation has an entry at its current
    degree, at least ``low``, so ``low`` never passes the last level.
    """
    succ = prof.succ
    deg = [0, *prof.in_deg]
    pred: list[list[int]] = [[] for _ in deg]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)  # in index order, so each row is sorted
    done_a = [False] * len(succ)
    done_b = [False] * len(deg)
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
                for u in succ[a]:
                    if done_b[u]:
                        continue
                    d = deg[u] - 1
                    deg[u] = d
                    heappush(levels[d], u)
                    if d < low:
                        low = d
    # The done-flags let no A-operation run twice, so this says every one
    # ran: each has a successor, whose pick runs its pending predecessors.
    if len(pi) != len(succ) - 1:
        raise AssertionError(f"pd2 ran {len(pi)} of {len(succ) - 1} A-operations")
    return order, degree, pi


def solve_pd2(inst: Instance) -> tuple[Schedule, Pd2Trace]:
    """Run the degree-driven exact algorithm; returns schedule and trace.

    The schedule is laid out from the trace alone, and it is
    ``complete_m2_erd(inst, pi)``.  Machine 1 runs ``pi`` back to back, and
    each pick starts on machine 2 at the later of ``c_k``, the running sum
    of the picked degrees, and the previous completion.  So it remains to
    see that pick k is released at ``c_k`` and that pick order is the ERD
    order, release time then index.  Pendants, released at 0, come first in
    index order.  A degree pick runs its last pending predecessors, so it
    is released as its own batch ends, at ``c_k``, which rises from pick to
    pick.  A zero pick released in the batch of the degree pick j had
    degree at least j's when j was picked, and its pending predecessors all
    lie in j's batch, so they are exactly that batch: it has j's release
    time and, the degrees being equal, a larger index than j.  The zero
    picks after j follow in index order, and add nothing to the sum.  So
    every pick is released at ``c_k``, the identity ``Pd2Trace`` rests on.
    """
    order, degree, pi = _run(_require_d2(inst))
    start_a = [0] * len(pi)
    for k, a in enumerate(pi):
        start_a[a - 1] = k
    start_b = [0] * len(order)
    t = 0
    for j, c in zip(order, accumulate(degree)):
        if t < c:
            t = c
        start_b[j - 1] = t
        t += 1
    trace = Pd2Trace.__new__(Pd2Trace)
    # _run's lists meet __post_init__'s checks; _inst lets blocks skip its re-run
    trace.__dict__.update(order=tuple(order), degree=tuple(degree), pi=tuple(pi), _inst=inst)
    return Schedule(start_a=tuple(start_a), start_b=tuple(start_b)), trace


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
    ``solve_pd2`` returned for this instance object is that run and needs
    no check.  For any other trace ``blocks`` runs pd2 on ``inst`` again
    and compares the three tuples, in C; on a mismatch the first event that
    differs, or is missing or extra, raises ``ValueError``.

    The blocks are cut from the three tuples: a block opens at each pick
    whose degree exceeds every degree before it, and that degree is its
    label.  The first pick runs the block's first ``label`` machine-1
    operations and is released as they end, so the offset is the label;
    the overhang is the picks released, at their running degree sums, no
    earlier than the block's machine-1 run ends.  No walk over the
    successors is needed.
    """
    if trace.__dict__.get("_inst") is not inst:
        run = solve_pd2(inst)[1]
        if trace != run:
            pairs = enumerate(zip_longest(trace.events, run.events))
            # the first event that differs names its B-operation, want's if got is missing
            k, step = next((k, got or want) for k, (got, want) in pairs if got != want)
            raise ValueError(f"trace is not the pd2 run of this instance at event {k} (B{step[0]})")
    order, degree, pi = trace.order, trace.degree, trace.pi
    opens = []  # the picks whose degree exceeds every degree before them
    label = -1
    for k, d in enumerate(degree):
        if d > label:
            label = d
            opens.append(k)
    result = []
    end = 0
    for first, last in zip(opens, [*opens[1:], len(order)]):
        # A block's first pick has degree label, and its batch, which ends at
        # its release, opens the block's machine-1 run; label 0's block holds
        # the pendants alone and runs nothing.
        start, end = end, end + sum(degree[first:last])
        # precedence-forced past the block's machine-1 tail; operations
        # merely queued behind machine 2 do not count.  A pick is released
        # as the batches up to its own end (see solve_pd2), so those
        # released at end are the block's last degree pick and the zero
        # picks after it.
        tail = last - 1
        while end > start and not degree[tail]:
            tail -= 1
        overhang = last - tail if end > start else 0
        result.append(
            Block(
                label=degree[first],
                a_ops=pi[start:end],
                b_ops=order[first:last],
                # machine-2 starts never decrease, so the first pick, ready
                # once its batch is done, starts first, label operations in
                offset_len=degree[first],
                overhang_len=overhang,
            )
        )
    return tuple(result)


def trace_to_json(trace: Pd2Trace) -> str:
    """The trace as JSON: a ``deg`` event with its batch per degree pick, a ``zero`` event per zero pick."""
    events = [
        {"type": "deg", "b": j, "degree": d, "a_batch": list(batch)} if d else {"type": "zero", "b": j}
        for j, d, batch in trace.events
    ]
    return json.dumps({"events": events}, indent=2) + "\n"


def blocks_to_json(blks: tuple[Block, ...]) -> str:
    return json.dumps([asdict(b) for b in blks], indent=2) + "\n"
