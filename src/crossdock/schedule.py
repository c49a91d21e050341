"""Schedule semantics: feasibility, makespan, release times, machine-2 completion.

Machine 1 has no precedence constraints of its own, so a schedule is
explored through permutations of the A-operations, run back-to-back from
time 0.  Given that assignment, machine 2 is completed by the
earliest-release-date (ERD) rule, which is makespan-optimal; the tests
check it against a factorial brute force over machine-2 orders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .instance import Instance

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    start_a: tuple[int, ...]
    start_b: tuple[int, ...]


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]


def validate_permutation(inst: Instance, pi: Permutation) -> None:
    # n exact ints that cover 1..n, in C-level set passes (about a third of
    # the cost of sorting pi); the type set keeps out True and 1.0.
    n = inst.n
    if len(pi) != n or set(map(type, pi)) != {int} or not set(pi).issuperset(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {pi}")


def makespan(sched: Schedule) -> int:
    # One pass over each machine's starts, with no tuple built; the -1 keeps
    # an empty or all-negative schedule (as a file may hold) at makespan 0.
    return max(max(sched.start_a, default=-1), max(sched.start_b, default=-1), -1) + 1


def release_times(inst: Instance, pi: Permutation) -> tuple[int, ...]:
    """Earliest feasible start of each B-operation, machine-2 load aside.

    With A-operation pi_i starting at i-1, B_j is ready at the latest
    completion among its predecessors, 0 when it has none.  That is never
    below its in-degree: d predecessors cannot all finish before time d.
    Walking pi in order, each assignment overwrites a smaller value, so the
    last one written is the maximum.  Raises ``ValueError`` unless pi is a
    permutation of 1..n.  The instance's own successor table is read, so no
    profile is built.
    """
    validate_permutation(inst, pi)
    succ = inst._succ
    r = [0] * (inst.m + 1)
    for done, a in enumerate(pi, start=1):
        for j in succ[a]:
            r[j] = done
    return tuple(r[1:])


def complete_m2_erd(inst: Instance, pi: Permutation) -> Schedule:
    """Complete machine 2 by the ERD rule for the given machine-1 order.

    Machine 1 runs pi back to back from time 0.  B-operations run in
    non-decreasing release time (ties by index), each at the earliest
    moment past its release and the previous completion.  A stable sort on
    release time gives that order.  Where m is much larger than n it is
    slower than a bucket per time in 0..n: 8.4 against 5.5 ms on
    gen_random(2000, 20000, 0.001) (CPython 3.11, 2 vCPU).  Raises
    ``ValueError`` unless pi is a permutation of 1..n.
    """
    r = release_times(inst, pi)
    start_a = [0] * inst.n
    for idx, a in enumerate(pi):
        start_a[a - 1] = idx
    start_b = [0] * inst.m
    t = 0
    for j in sorted(range(inst.m), key=r.__getitem__):
        rj = r[j]
        if t < rj:
            t = rj
        start_b[j] = t
        t += 1
    return Schedule(start_a=tuple(start_a), start_b=tuple(start_b))


def check_feasible(inst: Instance, sched: Schedule) -> FeasibilityReport:
    """Collect every violation: non-integer or negative starts, overlaps, broken arcs.

    A size mismatch is reported alone, and a start that is not an exact int
    stops the check before overlaps and arcs.  Four C-level passes settle
    the usual case: exact int starts, none negative, none shared on a
    machine.  Only a schedule that fails one of them is walked start by
    start, which names each violation.  Broken arcs follow, in (i, j) order.
    """
    violations: list[str] = []
    if len(sched.start_a) != inst.n or len(sched.start_b) != inst.m:
        violations.append(
            f"size mismatch: expected {inst.n} A-starts and {inst.m} B-starts, "
            f"got {len(sched.start_a)} and {len(sched.start_b)}"
        )
        return FeasibilityReport(ok=False, violations=tuple(violations))
    start_a, start_b = sched.start_a, sched.start_b
    if not (
        set(map(type, start_a)) | set(map(type, start_b)) <= {int}
        and min(start_a) >= 0
        and min(start_b) >= 0
        and len(set(start_a)) == len(start_a)
        and len(set(start_b)) == len(start_b)
    ):
        typed = True
        for label, starts in (("A", start_a), ("B", start_b)):
            for k, s in enumerate(starts, start=1):
                if type(s) is not int:
                    typed = False
                    violations.append(f"non-integer start: {label}{k} at {s!r}")
                elif s < 0:
                    violations.append(f"negative start: {label}{k} at {s}")
        if not typed:
            # Overlaps and arcs compare start times, which only ints are.
            return FeasibilityReport(ok=False, violations=tuple(violations))
        for machine, label, starts in ((1, "A", start_a), (2, "B", start_b)):
            seen: dict[int, int] = {}
            for k, s in enumerate(starts, start=1):
                first = seen.setdefault(s, k)
                if first != k:
                    violations.append(
                        f"machine-{machine} overlap: {label}{first} and {label}{k} both at {s}"
                    )
    # succ rows are sorted, so arcs come out in (i, j) order.  The instance's
    # own table is read, so a check builds no profile.  The starts are ints
    # here, so B_j starting before A_i ends means b_at[j] <= s.
    b_at = (None, *start_b)  # 1-indexed like the table: b_at[j] is B_j's start
    for i, s, row in zip(range(1, inst.n + 1), start_a, inst._succ[1:]):
        for j in row:
            if b_at[j] <= s:
                violations.append(f"precedence violation on arc ({i},{j})")
    return FeasibilityReport(ok=not violations, violations=tuple(violations))


def render_gantt(inst: Instance, sched: Schedule) -> str:
    """Two-row fixed-width chart, one cell per time unit, '.' for idle."""
    report = check_feasible(inst, sched)
    if not report.ok:
        raise ValueError("cannot render infeasible schedule: " + "; ".join(report.violations))
    horizon = makespan(sched)
    row_a = ["."] * horizon
    row_b = ["."] * horizon
    for i, s in enumerate(sched.start_a, start=1):
        row_a[s] = f"A{i}"
    for j, s in enumerate(sched.start_b, start=1):
        row_b[s] = f"B{j}"
    width = max(len(c) for c in row_a + row_b)
    line_a = "M1 | " + " ".join(c.ljust(width) for c in row_a).rstrip()
    line_b = "M2 | " + " ".join(c.ljust(width) for c in row_b).rstrip()
    return line_a + "\n" + line_b + "\n"


def _require_int_starts(key: str, starts) -> None:
    # One C-level pass over the types; the element walk runs only to name
    # the first start that is not an exact int (True and 1.0 included).
    if not set(map(type, starts)) <= {int}:
        for k, x in enumerate(starts):
            if type(x) is not int:
                raise ValueError(f"malformed schedule file: {key}[{k}] = {x!r} is not an integer")


def _json_int_list(starts) -> str:
    # The text json.dumps(..., indent=2) gives a list of ints one level down.
    return "[\n    " + ",\n    ".join(map(str, starts)) + "\n  ]" if starts else "[]"


def schedule_to_json(sched: Schedule) -> str:
    """The schedule file: makespan and both machines' starts, in the text of
    ``json.dumps`` with ``indent=2`` plus a final newline.

    Every start must be an exact int, as ``schedule_from_json`` requires:
    a bool, float, str or any other start raises ``ValueError`` with the
    reader's wording, so no file is written that the reader would refuse.
    The text is joined here, since ``json.dumps`` with an indent runs its
    pure-Python encoder.
    """
    _require_int_starts("start_a", sched.start_a)
    _require_int_starts("start_b", sched.start_b)
    return (
        f'{{\n  "makespan": {makespan(sched)},\n'
        f'  "start_a": {_json_int_list(sched.start_a)},\n'
        f'  "start_b": {_json_int_list(sched.start_b)}\n}}\n'
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads alone keeps the last value of a repeated key.
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def schedule_from_json(text: str) -> Schedule:
    """Read a schedule written by ``schedule_to_json``.

    Starts must be JSON integers (not floats, strings or booleans).  The
    ``makespan`` field may be left out, but if present it must equal the
    makespan of the starts.  Anything else raises ``ValueError``.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also int()'s digit limit, deep nesting
        raise ValueError(f"malformed schedule file: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("malformed schedule file: expected a JSON object")
    for key in data:
        if key not in ("makespan", "start_a", "start_b"):
            raise ValueError(f"malformed schedule file: unknown key {key!r}")
    starts = []
    for key in ("start_a", "start_b"):
        if key not in data:
            raise ValueError(f"malformed schedule file: missing {key!r}")
        values = data[key]
        if not isinstance(values, list):
            raise ValueError(f"malformed schedule file: {key!r} is not a list")
        _require_int_starts(key, values)
        starts.append(tuple(values))
    sched = Schedule(start_a=starts[0], start_b=starts[1])
    if "makespan" in data:
        declared = data["makespan"]
        if type(declared) is not int:
            raise ValueError(f"malformed schedule file: makespan {declared!r} is not an integer")
        if declared != makespan(sched):
            raise ValueError(
                f"malformed schedule file: declared makespan {declared} "
                f"but the starts give {makespan(sched)}"
            )
    return sched
