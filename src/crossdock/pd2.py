"""Exact solver for instances where every A-operation has two successors.

The algorithm repeatedly takes the pending B-operation of minimal current
in-degree (zero-degree ones go straight onto machine 2), runs its
remaining predecessors on machine 1, and updates degrees.  The resulting
schedule meets the class lower bound max{n+2, m} (max{n+2, m+1} without
pendant B-operations), hence is optimal.  The bookkeeping keeps no copy of
the shared adjacency: one done-flag per operation marks what has run.

The trace is the one record of a run: one pick event per B-operation, in
machine-2 order, each with the batch it ran on machine 1 (a zero pick reads
as degree 0 with an empty batch).  It decomposes into blocks: a block opens
whenever the picked degree exceeds the current block's label, and the label
equals the number of machine-1 operations the block runs before its first
machine-2 operation (the block's offset).  The machine-2 operations
precedence-forced past the block's last machine-1 completion (the overhang)
number 1 or 2 for labels >= 2, which is what makes the stitched schedule
tight.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
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


def solve_pd2(inst: Instance) -> tuple[Schedule, Pd2Trace]:
    """Run the degree-driven exact algorithm; returns schedule and trace.

    A lazy min-heap on (current degree, index) realizes both steps: stale
    entries are skipped, zero-degree pops are direct machine-2 picks, and
    positive-degree pops run a batch on machine 1: the entries of the
    sorted ``prof.pred[j]`` whose done-flag is still clear.
    """
    prof = _require_d2(inst)
    succ, pred = prof.succ, prof.pred
    deg = [0, *prof.in_deg]
    done_a = [False] * (inst.n + 1)
    done_b = [False] * (inst.m + 1)
    heap = [(d, j) for j, d in enumerate(prof.in_deg, start=1)]
    heapq.heapify(heap)

    events: list[ZeroPick | DegPick] = []
    while heap:
        d, j = heapq.heappop(heap)
        if done_b[j] or d != deg[j]:
            continue
        done_b[j] = True
        if d == 0:
            events.append(ZeroPick(b_index=j))
            continue
        batch = tuple(a for a in pred[j] if not done_a[a])
        events.append(DegPick(b_index=j, picked_degree=d, a_batch=batch))
        for a in batch:
            done_a[a] = True
            for t in succ[a]:
                if done_b[t]:
                    continue
                deg[t] -= 1
                heapq.heappush(heap, (deg[t], t))

    # Every A-operation has a successor, whose pick runs every predecessor
    # not yet done, so the batches cover machine 1 (release_times checks it).
    pi = tuple(a for ev in events for a in ev.a_batch)
    sched = _list_schedule(inst, pi, release_times(inst, pi), [ev.b_index for ev in events])
    return sched, Pd2Trace(events=tuple(events))


def lemma1_bound(inst: Instance) -> int:
    """Class lower bound: max{n+2, m} with pendant B-operations, else max{n+2, m+1}."""
    prof = _require_d2(inst)
    if 0 in prof.in_deg:
        return max(inst.n + 2, inst.m)
    return max(inst.n + 2, inst.m + 1)


def blocks(inst: Instance, trace: Pd2Trace) -> tuple[Block, ...]:
    """Cut the trace into blocks and measure each laid out in isolation."""
    prof = degree_profile(inst)
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    groups: list[tuple[int, list[int], list[int]]] = []  # (label, a_ops, b_ops)
    for ev in trace.events:
        j = ev.b_index
        if j in seen_b or not (1 <= j <= inst.m):
            raise ValueError(f"trace/instance mismatch at B{j}")
        seen_b.add(j)
        if len(ev.a_batch) != ev.picked_degree:
            raise ValueError(f"batch size mismatch at B{j}")
        for a in ev.a_batch:
            if a in seen_a or a not in prof.pred[j]:
                raise ValueError(f"trace/instance mismatch at A{a}")
            seen_a.add(a)
        if not groups or ev.picked_degree > groups[-1][0]:
            groups.append((ev.picked_degree, [], []))
        groups[-1][1].extend(ev.a_batch)
        groups[-1][2].append(j)
    if seen_b != set(range(1, inst.m + 1)):
        raise ValueError("trace does not cover every B-operation")

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
