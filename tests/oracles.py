"""Test-side oracles: brute-force searches that validate the solvers.

``enumerate_exact`` is the n! search ``solve_exact`` used before the
subset DP.  It completes every machine-1 order by the ERD rule and keeps
the lexicographically first optimal one.  It shares no logic with the DP,
so the two cross-check each other at n <= 7.

``all_instances`` yields every instance up to a given n and m, the census
the paper's claims are checked on exhaustively.

``subset_dp_exact`` is the same subset DP as ``solve_exact`` written as
plain Python loops over one list of 2^n entries, as the library ran it
before its bit-parallel kernel: the differential tests check the kernel's
result, schedule and all, against it wherever n <= 14.

``parse_instance_lines`` is the line-by-line instance parser as it was
before the canonical whole-text path, the reference the differential parse
tests compare ``parse_instance`` against.  ``serialize_by_arcs`` is the
per-arc writer ``serialize_instance`` keeps for short rows, the reference
its row-joined writer for long rows must equal byte for byte.

``prefix_q`` is the q statistic over a given machine-1 order.
``lemma1_closed_form`` is Lemma 1's class bound in the form the library
computed it before ``lemma1_bound`` became ``lower_bound`` on the
two-successor class; the property tests require the two to agree.
``best_m2_bruteforce`` tries every machine-2 order for a fixed machine-1
order, the check on the ERD rule.  ``optimal_makespan_statespace`` makes
no modelling assumptions at all (it allows idling on either machine) and
validates the reduction to machine-1 orders on tiny instances.

``check_feasible_by_walk`` is ``check_feasible`` as it was before its
C-level passes over the starts: it walks every start, whatever the
schedule, and the property tests require equal reports, violation order
included.

``list_schedule`` lays out a machine-1 order and a machine-2 order from
given release times, and ``blocks_by_walk`` measures pd2's blocks by
walking the successors of each block's A-operations.  Both are how the
library computed these before pd2's pick loop wrote its schedule and
``blocks`` read its measures off the run's release times.

``pd2_steps_by_scan`` builds pd2's run eagerly, one ``(b_index,
picked_degree, batch)`` triple per pick as the pick loop built them before
the instance kept flat pick lists; it finds each pick by scanning every
pending B-operation for the least (current degree, index), with no bucket
queue.  ``steps_to_trace`` builds the ``Pd2Trace`` whose events are given
triples, as a ``Pd2Trace`` was built by hand when it held them.

``core_numbers`` peels the multigraph on the B-operations whose edges are
a two-successor instance's A-operations, one k-core after another: the
check, sharing no code with pd2, that its block labels are core numbers.

``gen_d2_by_sample`` is ``gen_d2`` as it drew through ``Random.sample``,
the reference its own ``getrandbits`` draws must equal instance for
instance.

``pred_table`` is the predecessor table read from ``arcs``, for the tests
and oracles that walk an instance from its B side; the library keeps no
such table (pd2 builds its own rows for each run).

``old_adjacency``, ``old_greedy_order``, ``old_release_times`` and
``old_complete_m2_erd`` are the adjacency build, the greedy order and the
ERD completion as they were before the instance shared one adjacency
profile: dict-based adjacency read from ``arcs``, a ``Fraction`` ratio key,
a position dict and a sort by release time.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import Iterable, Iterator

from crossdock import (
    Block,
    ExactResult,
    FeasibilityReport,
    Instance,
    InstanceError,
    Pd2Trace,
    Permutation,
    Schedule,
    complete_m2_erd,
    degree_profile,
    makespan,
    release_times,
)


def enumerate_exact(inst: Instance) -> ExactResult:
    """Minimal makespan over every machine-1 order, ERD-completed.

    The orders come in lexicographic order and only a strictly smaller
    makespan replaces the best, so the first optimal order is kept.
    ``permutations_examined`` is n!.
    """
    prof = degree_profile(inst)
    succ0 = [tuple(j - 1 for j in prof.succ[i]) for i in range(1, inst.n + 1)]
    in_deg = list(prof.in_deg)
    n = inst.n

    best_mk: int | None = None
    best_pi: tuple[int, ...] | None = None
    examined = 0
    for pi in itertools.permutations(range(1, n + 1)):
        examined += 1
        r = in_deg.copy()
        for pos, a in enumerate(pi):
            done = pos + 1
            for j in succ0[a - 1]:
                if done > r[j]:
                    r[j] = done
        r.sort()
        t = 0
        for x in r:
            if x > t:
                t = x
            t += 1
        mk = t if t > n else n
        if best_mk is None or mk < best_mk:
            best_mk = mk
            best_pi = pi
    assert best_mk is not None and best_pi is not None
    sched = complete_m2_erd(inst, best_pi)
    assert makespan(sched) == best_mk
    return ExactResult(schedule=sched, optimal_makespan=best_mk, permutations_examined=examined)


def all_instances(max_n: int, max_m: int) -> Iterator[Instance]:
    """Every instance with 1 <= n <= max_n and 1 <= m <= max_m, the sum
    over n and m of 2^(n*m).

    n runs outermost, then m.  For each, a mask counts up from 0 over the
    arc sets: bit (i-1)*m + j-1 holds the arc (i, j).
    """
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            cells = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
            for mask in range(1 << n * m):
                yield Instance(n, m, [arc for k, arc in enumerate(cells) if mask >> k & 1])


def subset_dp_exact(inst: Instance) -> ExactResult:
    """``solve_exact`` by the recurrence in its docstring, one state at a time.

    g[S] holds c(S) after the zeta transform, then G(S), and the order is
    rebuilt forward by the smallest A-operation that keeps G <= opt.
    """
    n, m = inst.n, inst.m
    full = (1 << n) - 1
    # Supersets of S are larger integers, so a descending sweep finds them done.
    g = [0] * (full + 1)
    for row in pred_table(inst)[1:]:
        mask = 0
        for i in row:
            mask |= 1 << (i - 1)
        g[mask] += 1
    # Zeta transform: add each count into every superset, one bit at a time.
    for b in range(n):
        bit = 1 << b
        for hi in range(bit, full + 1, 2 * bit):
            for s in range(hi, hi + bit):
                g[s] += g[s - bit]
    g[full] = max(n, m)
    base = m + 1
    for s in range(full - 1, -1, -1):
        # Walk the A-operations missing from s by lowest set bit.
        rest = full ^ s
        best = g[s | (rest & -rest)]
        rest &= rest - 1
        while rest:
            v = g[s | (rest & -rest)]
            if v < best:
                best = v
            rest &= rest - 1
        h = s.bit_count() + base - g[s]
        g[s] = h if h > best else best
    opt = g[0]
    pi = []
    s = 0
    for _ in range(n):
        a = next(a for a in range(n) if not s >> a & 1 and g[s | 1 << a] <= opt)
        pi.append(a + 1)
        s |= 1 << a
    sched = complete_m2_erd(inst, tuple(pi))
    assert makespan(sched) == opt
    return ExactResult(schedule=sched, optimal_makespan=opt, permutations_examined=full + 1)


def prefix_q(inst: Instance, pi: Permutation) -> int:
    """Smallest q with the out-degrees of pi's first q entries summing to
    more than the arc total minus m: the statistic as the paper defines it,
    over a given machine-1 order."""
    out_deg = degree_profile(inst).out_deg
    prefix = 0
    for q, a in enumerate(pi, start=1):
        prefix += out_deg[a - 1]
        if prefix > len(inst.arcs) - inst.m:
            return q
    raise AssertionError("unreachable: inequality holds at q=n since m >= 1")


def lemma1_closed_form(inst: Instance) -> int:
    """Lemma 1's bound on a two-successor instance: max{n+2, m} with a
    pendant B-operation, else max{n+2, m+1}."""
    if 0 in degree_profile(inst).in_deg:
        return max(inst.n + 2, inst.m)
    return max(inst.n + 2, inst.m + 1)


def best_m2_bruteforce(inst: Instance, pi: Permutation) -> Schedule:
    """Try every machine-2 order; oracle for the ERD rule's optimality.

    Returns the schedule of the lexicographically smallest optimal order.
    Limited to m <= 9.
    """
    if inst.m > 9:
        raise ValueError(f"brute force limited to m <= 9, got m={inst.m}")
    r = release_times(inst, pi)
    start_a = [0] * inst.n
    for idx, a in enumerate(pi):
        start_a[a - 1] = idx
    best_mk = None
    best_starts = None
    for order in itertools.permutations(range(1, inst.m + 1)):
        t = 0
        starts = [0] * inst.m
        for j in order:
            t = max(t, r[j - 1])
            starts[j - 1] = t
            t += 1
        mk = max(t, inst.n)
        if best_mk is None or mk < best_mk:
            best_mk = mk
            best_starts = starts
    assert best_starts is not None
    return Schedule(start_a=tuple(start_a), start_b=tuple(best_starts))


def check_feasible_by_walk(inst: Instance, sched: Schedule) -> FeasibilityReport:
    """Every violation, found by walking each start: non-integer or negative
    starts, then overlaps per machine, then broken arcs in (i, j) order."""
    violations: list[str] = []
    if len(sched.start_a) != inst.n or len(sched.start_b) != inst.m:
        violations.append(
            f"size mismatch: expected {inst.n} A-starts and {inst.m} B-starts, "
            f"got {len(sched.start_a)} and {len(sched.start_b)}"
        )
        return FeasibilityReport(ok=False, violations=tuple(violations))
    typed = True
    for label, starts in (("A", sched.start_a), ("B", sched.start_b)):
        for k, s in enumerate(starts, start=1):
            if type(s) is not int:
                typed = False
                violations.append(f"non-integer start: {label}{k} at {s!r}")
            elif s < 0:
                violations.append(f"negative start: {label}{k} at {s}")
    if not typed:
        return FeasibilityReport(ok=False, violations=tuple(violations))
    for machine, label, starts in ((1, "A", sched.start_a), (2, "B", sched.start_b)):
        seen: dict[int, int] = {}
        for k, s in enumerate(starts, start=1):
            first = seen.setdefault(s, k)
            if first != k:
                violations.append(
                    f"machine-{machine} overlap: {label}{first} and {label}{k} both at {s}"
                )
    start_b = sched.start_b
    for i, row in enumerate(inst._succ[1:], start=1):
        done = sched.start_a[i - 1] + 1
        for j in row:
            if start_b[j - 1] < done:
                violations.append(f"precedence violation on arc ({i},{j})")
    return FeasibilityReport(ok=not violations, violations=tuple(violations))


def list_schedule(
    inst: Instance, pi: Permutation, r: tuple[int, ...], m2_order: Iterable[int]
) -> Schedule:
    """Machine 1 runs ``pi`` back to back from 0, machine 2 runs ``m2_order``,
    each B_j at the later of its release ``r[j-1]`` and the previous completion."""
    start_a = [0] * inst.n
    for idx, a in enumerate(pi):
        start_a[a - 1] = idx
    start_b = [0] * inst.m
    t = 0
    for j in m2_order:
        t = max(t, r[j - 1])
        start_b[j - 1] = t
        t += 1
    return Schedule(start_a=tuple(start_a), start_b=tuple(start_b))


def blocks_by_walk(
    inst: Instance, steps: Iterable[tuple[int, int, tuple[int, ...]]]
) -> tuple[Block, ...]:
    """pd2's blocks for the run ``steps`` ((b_index, picked_degree, batch)
    per pick), each block measured by walking its A-operations' successors.

    A block opens whenever the picked degree exceeds the current label.
    B_j is ready once its last predecessor inside the block is done;
    walking a_ops in order, the last position written is that one.
    """
    succ = degree_profile(inst).succ
    groups: list[tuple[int, list[int], list[int]]] = []
    label = -1
    for j, d, batch in steps:
        if d > label:
            label, a_ops, b_ops = d, [], []
            groups.append((label, a_ops, b_ops))
        a_ops.extend(batch)
        b_ops.append(j)
    result = []
    for label, a_ops, b_ops in groups:
        ready: dict[int, int] = {}
        for done, a in enumerate(a_ops, start=1):
            for j in succ[a]:
                ready[j] = done
        n_a = len(a_ops)
        overhang = sum(1 for j in b_ops if ready.get(j, 0) >= n_a) if n_a else 0
        offset = min(ready.get(b_ops[0], 0), n_a)
        result.append(Block(label, tuple(a_ops), tuple(b_ops), offset, overhang))
    return tuple(result)


def pd2_steps_by_scan(inst: Instance) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """pd2's pick triples on a two-successor instance, by linear scans.

    Each pick takes the pending B-operation of least (current degree,
    index), where the degree counts the predecessors not yet run; its batch
    is those predecessors in index order, and they run before the next pick.
    """
    succ, pred = inst._succ, pred_table(inst)
    deg = [len(p) for p in pred]
    pending = set(range(1, inst.m + 1))
    ran: set[int] = set()
    steps = []
    while pending:
        j = min(pending, key=lambda u: (deg[u], u))
        pending.remove(j)
        batch = tuple(a for a in pred[j] if a not in ran)
        assert len(batch) == deg[j]
        steps.append((j, deg[j], batch))
        for a in batch:
            ran.add(a)
            for u in succ[a]:
                deg[u] -= 1
    return tuple(steps)


def steps_to_trace(steps: Iterable[tuple[int, int, tuple[int, ...]]]) -> Pd2Trace:
    """The trace of the picks ``steps``, ``(b_index, picked_degree, batch)``
    each: their B-operations, their degrees and their batches laid end to
    end.  Its events are ``steps`` when each batch holds as many as its
    degree."""
    steps = tuple(steps)
    return Pd2Trace(
        order=tuple(j for j, _, _ in steps),
        degree=tuple(d for _, d, _ in steps),
        pi=tuple(a for _, _, batch in steps for a in batch),
    )


def core_numbers(inst: Instance) -> list[int]:
    """The core number of each B-operation (entry 0 unused), by peeling.

    Each A-operation is an edge between its two successors, so two
    A-operations with the same successors are two parallel edges, and a
    B-operation without predecessors is an isolated vertex.  The k-core
    is what is left after removing, again and again, every vertex of
    degree below k; the vertices removed on the way to the k-core, and
    present in the (k-1)-core, have core number k - 1.
    """
    ends: dict[int, list[int]] = {}
    for i, j in inst.arcs:
        ends.setdefault(i, []).append(j)
    nbrs: list[list[int]] = [[] for _ in range(inst.m + 1)]
    for u, v in ends.values():
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(vs) for vs in nbrs]
    core = [0] * (inst.m + 1)
    alive = set(range(1, inst.m + 1))
    k = 0
    while alive:
        k += 1
        stack = [v for v in alive if deg[v] < k]
        while stack:
            v = stack.pop()
            if v not in alive:
                continue
            alive.remove(v)
            core[v] = k - 1
            for u in nbrs[v]:
                if u in alive:
                    deg[u] -= 1
                    if deg[u] < k:
                        stack.append(u)
    return core


def gen_d2_by_sample(a_count: int, b_count: int, pendant_count: int, seed: int) -> Instance:
    """``gen_d2``'s instance for valid parameters, each A-operation's two
    successors drawn by ``Random.sample`` from the non-pendant pool."""
    sample = random.Random(seed).sample
    pool = range(1, b_count - pendant_count + 1)
    pairs = [sample(pool, 2) for _ in range(a_count)]
    return Instance(a_count, b_count, [(i, j) for i, pair in enumerate(pairs, start=1) for j in pair])


def optimal_makespan_statespace(inst: Instance) -> int:
    """Exhaustive search over all integer schedules with starts < n+m.

    Breadth-first over (time, set of finished A, set of finished B) with
    idling allowed on both machines; every feasible schedule corresponds
    to some trajectory, so this is assumption-free.  Exponential in n+m.
    """
    pred_mask = [sum(1 << (i - 1) for i in row) for row in pred_table(inst)[1:]]
    full_a = (1 << inst.n) - 1
    full_b = (1 << inst.m) - 1
    horizon = inst.n + inst.m
    states = {(0, 0)}
    for t in range(1, horizon + 1):
        nxt: set[tuple[int, int]] = set()
        for done_a, done_b in states:
            a_moves = [done_a]
            for i in range(inst.n):
                if not done_a >> i & 1:
                    a_moves.append(done_a | 1 << i)
            b_moves = [done_b]
            for j in range(inst.m):
                if not done_b >> j & 1 and pred_mask[j] & done_a == pred_mask[j]:
                    b_moves.append(done_b | 1 << j)
            for na in a_moves:
                for nb in b_moves:
                    nxt.add((na, nb))
        states = nxt
        if (full_a, full_b) in states:
            return t
    raise AssertionError(f"no complete schedule within horizon {horizon}")


# The line parser's character checks, copied so the oracle shares no code
# with the parser under test.
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b"+-_") + b"\t\n"
_COMMENT_IRREGULAR = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
_DATA_IRREGULAR = re.compile(r"[^\t\x20-\x7e]|[-+_]")


def _checked(lines: Iterable[str]) -> Iterator[str]:
    for lineno, raw in enumerate(lines, start=1):
        body = raw.removesuffix("\r")
        line = body.strip()
        comment = line == "c" or line.startswith("c ")
        found = (_COMMENT_IRREGULAR if comment else _DATA_IRREGULAR).search(body)
        if found is not None:
            ch = found.group()
            if ch in "+-_":
                raise InstanceError(f"unexpected character {ch!r}, line {lineno}")
            kind = "control" if ch.isascii() else "non-ASCII"
            raise InstanceError(f"{kind} character U+{ord(ch):04X}, line {lineno}")
        yield raw


def parse_instance_lines(text: str) -> Instance:
    """Parse instance text one line at a time, through the public constructor.

    It has no size cap, so it agrees with ``parse_instance`` on every text
    whose header is within ``MAX_OPS``.
    """
    lines: Iterable[str] = text.split("\n")
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        lines = _checked(lines)
    n = m = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        fields = line.split()
        if fields[0] == "a":
            if n is None:
                raise InstanceError(f"arc before header, line {lineno}")
            if len(fields) != 3:
                raise InstanceError(f"malformed arc line, line {lineno}")
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise InstanceError(f"malformed arc line, line {lineno}") from None
            if not (1 <= i <= n and 1 <= j <= m):
                raise InstanceError(f"index out of range, line {lineno}")
            if (i, j) in arcs:
                raise InstanceError(f"duplicate arc, line {lineno}")
            arcs.add((i, j))
        elif fields[0] == "p":
            if n is not None:
                raise InstanceError(f"duplicate header, line {lineno}")
            if len(fields) != 4 or fields[1] != "cdock":
                raise InstanceError(f"malformed header, line {lineno}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceError(f"malformed header, line {lineno}") from None
            if n < 1 or m < 1:
                raise InstanceError(f"n and m must be positive, line {lineno}")
        else:
            raise InstanceError(f"unrecognized line type {fields[0]!r}, line {lineno}")
    if n is None or m is None:
        raise InstanceError("missing header")
    return Instance(n=n, m=m, arcs=frozenset(arcs))


def serialize_by_arcs(inst: Instance, comments: Iterable[str] = ()) -> str:
    """The canonical text of ``inst`` written one "a <i> <j>" line per arc,
    as ``serialize_instance`` writes every instance whose rows are short;
    the comments are taken as given, unchecked."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cdock {inst.n} {inst.m}")
    lines.extend(f"a {i} {j}" for i, row in enumerate(inst._succ) for j in row)
    return "\n".join(lines) + "\n"


def pred_table(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """The predecessor table of ``inst``, read from ``arcs``: ``pred[j]``
    holds B_j's predecessors in ascending order, and ``pred[0] == ()``."""
    pred: list[list[int]] = [[] for _ in range(inst.m + 1)]
    for i, j in inst.arcs:
        pred[j].append(i)
    return tuple(tuple(sorted(row)) for row in pred)


def old_adjacency(inst: Instance) -> tuple:
    """Out-degrees, in-degrees and the sorted successor and predecessor
    rows, as dicts indexed from 1, read from ``arcs``."""
    succ = {i: [] for i in range(1, inst.n + 1)}
    pred = {j: [] for j in range(1, inst.m + 1)}
    for i, j in inst.arcs:
        succ[i].append(j)
        pred[j].append(i)
    return (
        tuple(len(succ[i]) for i in range(1, inst.n + 1)),
        tuple(len(pred[j]) for j in range(1, inst.m + 1)),
        {i: tuple(sorted(v)) for i, v in succ.items()},
        {j: tuple(sorted(v)) for j, v in pred.items()},
    )


def old_greedy_order(inst: Instance) -> Permutation:
    """``greedy_order`` with the ratio d/S as a ``Fraction``."""
    out_deg, in_deg, succ, _pred = old_adjacency(inst)

    def key(i):
        d = out_deg[i - 1]
        if d == 0:
            ratio = Fraction(0)
        else:
            ratio = Fraction(d, sum(in_deg[j - 1] for j in succ[i]))
        return (-d, -ratio, i)

    return tuple(sorted(range(1, inst.n + 1), key=key))


def old_release_times(inst: Instance, pi: Permutation) -> tuple[int, ...]:
    """``release_times`` through a position dict and a walk over ``arcs``."""
    _out_deg, in_deg, _succ, _pred = old_adjacency(inst)
    pos = {a: idx for idx, a in enumerate(pi)}
    r = list(in_deg)
    for i, j in inst.arcs:
        done = pos[i] + 1
        if done > r[j - 1]:
            r[j - 1] = done
    return tuple(r)


def old_complete_m2_erd(inst: Instance, pi: Permutation) -> Schedule:
    """``complete_m2_erd`` by a sort of the B-operations by release time."""
    r = old_release_times(inst, pi)
    start_a = [0] * inst.n
    for idx, a in enumerate(pi):
        start_a[a - 1] = idx
    order = sorted(range(1, inst.m + 1), key=lambda j: (r[j - 1], j))
    start_b = [0] * inst.m
    t = 0
    for j in order:
        t = max(t, r[j - 1])
        start_b[j - 1] = t
        t += 1
    return Schedule(start_a=tuple(start_a), start_b=tuple(start_b))
