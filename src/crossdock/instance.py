"""Problem instances: bipartite precedence graphs between the two machines.

An instance of the cross-docking scheduling problem consists of n unload
operations A_1..A_n on machine 1, m assembly operations B_1..B_m on
machine 2, and a set of arcs (i, j) meaning B_j cannot start before A_i
has finished.  All durations are one time unit.  Indices are 1-based, in
memory and on disk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class InstanceError(ValueError):
    """Raised on invalid instance data or a malformed instance file."""


@dataclass(frozen=True)
class Instance:
    n: int
    m: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not isinstance(self.arcs, frozenset):
            object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.n < 1 or self.m < 1:
            raise InstanceError(f"n and m must be positive, got n={self.n}, m={self.m}")
        for i, j in self.arcs:
            if not (1 <= i <= self.n and 1 <= j <= self.m):
                raise InstanceError(f"arc ({i},{j}) out of range for n={self.n}, m={self.m}")

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    @cached_property
    def profile(self) -> DegreeProfile:
        """The instance's adjacency, built on first use; see ``degree_profile``.

        Not a dataclass field, so it stays out of ``==``, ``hash`` and ``repr``.
        """
        return _build_profile(self)


@dataclass(frozen=True)
class DegreeProfile:
    """Adjacency views: out-degrees of the A side, in-degrees of the B side.

    ``out_deg[i-1]`` is the number of B-operations depending on A_i;
    ``in_deg[j-1]`` is the number of A-operations B_j waits for.
    ``succ[i]`` and ``pred[j]`` are the sorted neighbour tuples of A_i and
    B_j, indexed from 1; ``succ[0]`` and ``pred[0]`` are empty placeholders.
    Every field is a tuple, so a profile cannot be changed once built.
    """

    out_deg: tuple[int, ...]
    in_deg: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Classification:
    is_d2: bool
    has_pendant_b: bool


def degree_profile(inst: Instance) -> DegreeProfile:
    """The adjacency of ``inst``, built once per instance and cached on it.

    Every solver, bound and check reads this one copy, so repeated calls
    cost nothing after the first.  The profile is immutable (tuples all the
    way down), which is what makes sharing it safe.
    """
    return inst.profile


def _build_profile(inst: Instance) -> DegreeProfile:
    succ: list[list[int]] = [[] for _ in range(inst.n + 1)]
    pred: list[list[int]] = [[] for _ in range(inst.m + 1)]
    for i, j in inst.arcs:
        succ[i].append(j)
    # Walking A-operations in index order fills every pred list already sorted.
    for i in range(1, inst.n + 1):
        row = succ[i]
        row.sort()
        for j in row:
            pred[j].append(i)
    return DegreeProfile(
        out_deg=tuple(map(len, succ[1:])),
        in_deg=tuple(map(len, pred[1:])),
        succ=tuple(map(tuple, succ)),
        pred=tuple(map(tuple, pred)),
    )


def classify(inst: Instance) -> Classification:
    prof = degree_profile(inst)
    return Classification(
        is_d2=all(d == 2 for d in prof.out_deg),
        has_pendant_b=any(d == 0 for d in prof.in_deg),
    )


# Printable ASCII, tab and newline, less the signs and digit separator that
# int() accepts: text of these alone needs no per-line check.
_PLAIN = bytes(range(0x20, 0x7F)).translate(None, b"+-_") + b"\t\n"
# Per line, once a closing carriage return is dropped: comments may hold any
# text but control characters other than tab, other lines only _PLAIN ones.
_COMMENT_IRREGULAR = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
_DATA_IRREGULAR = re.compile(r"[^\t\x20-\x7e]|[-+_]")


def _checked(lines: Iterable[str]) -> Iterator[str]:
    """Yield the lines, raising lazily at the first irregular character."""
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


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Comment lines start with "c ", the single header line is
    "p cdock <n> <m>", and each arc line is "a <i> <j>".  Duplicate arcs
    and out-of-range indices are errors, reported with their line number.
    Lines end at a newline (a carriage return before it is dropped) and
    numbers are ASCII digits only.  Only comments may hold non-ASCII text,
    so digits from other scripts and a leading byte-order mark are errors,
    as are signs, underscores and control characters other than tab.
    """
    lines: Iterable[str] = text.split("\n")
    # isascii() is a flag lookup and translate() one C-level pass.  Only text
    # holding something irregular gets the per-line check, run lazily so an
    # earlier line's error is still the one reported.
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        lines = _checked(lines)
    n = m = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        fields = line.split()
        # arc lines dominate, so they are tested first
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


def serialize_instance(inst: Instance, comments: Iterable[str] = ()) -> str:
    """Emit the canonical text form: comments, header, arcs in (i, j) order.

    parse_instance(serialize_instance(x)) == x for every valid instance.
    """
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cdock {inst.n} {inst.m}")
    lines.extend(f"a {i} {j}" for i, j in inst.sorted_arcs())
    return "\n".join(lines) + "\n"
