"""Problem instances: bipartite precedence graphs between the two machines.

An instance of the cross-docking scheduling problem consists of n unload
operations A_1..A_n on machine 1, m assembly operations B_1..B_m on
machine 2, and a set of arcs (i, j) meaning B_j cannot start before A_i
has finished.  All durations are one time unit.  Indices are 1-based, in
memory and on disk.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import floordiv, lt, mod
from typing import Iterable

# The largest n or m an instance may have: 50 times the largest instances the
# solvers are benchmarked on (n = m = 200k), and small enough that the O(n)
# and O(m) lists every solver allocates fit in memory.  A larger header is an
# InstanceError before any arc is read, as is a larger constructed Instance.
# How much memory "fit" takes is checked, not assumed: tests/test_memory.py
# bounds the tracemalloc peak of parse, profile, greedy order and ERD
# completion per operation on an arc-free header of 10^5 x 10^5 and per arc on
# gen_d2, and a CI step applies the per-operation bound at 10^6 x 10^6.
MAX_OPS = 10**7


class InstanceError(ValueError):
    """Raised on invalid instance data or a malformed instance file."""


@dataclass(frozen=True, init=False)
class Instance:
    """n A-operations, m B-operations and the arcs (i, j) between them.

    An instance is its successor table ``_succ``: ``_succ[i]`` holds the
    successors of A_i in strictly ascending order, and ``_succ[0] == ()``.
    The table is canonical, so ``==``, ``hash`` and ``repr``, which the
    dataclass generates from ``(n, m, _succ)``, agree with the arc set, and
    the profile shares the table.  ``arcs`` is a view built on first read.
    Pickles and copies carry only ``n``, ``m`` and ``_succ``.
    """

    n: int
    m: int
    _succ: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, m: int, arcs: Iterable[tuple[int, int]]) -> None:
        # Exact ints in range only, so every instance survives
        # parse_instance(serialize_instance(x)) == x.
        if not (type(n) is int and type(m) is int and 1 <= n <= MAX_OPS and 1 <= m <= MAX_OPS):
            raise InstanceError(f"n and m must be integers in 1..{MAX_OPS}, got n={n!r}, m={m!r}")
        try:
            arcs = list(arcs)
            frozenset(arcs)
        except TypeError as exc:  # not iterable, or an item that is not hashable
            raise InstanceError(f"arcs must be an iterable of (i, j) pairs: {exc}") from None
        keys = []  # one int per arc, as _split_keys reads them
        for arc in arcs:
            if type(arc) is not tuple or len(arc) != 2:
                raise InstanceError(f"arc {arc!r} is not a pair of indices")
            i, j = arc
            if not (type(i) is int and type(j) is int and 1 <= i <= n and 1 <= j <= m):
                raise InstanceError(f"arc {arc!r} is not a pair of integers in 1..{n} x 1..{m}")
            keys.append(i * (m + 1) + j)
        keys.sort()
        succ = _succ_table(n, m, *_split_keys(keys, m))
        if succ is None:  # every arc is in range, so one is repeated
            key = next(a for a, b in zip(keys, keys[1:]) if a == b)
            raise InstanceError(f"arc {divmod(key, m + 1)!r} is repeated")
        self.__dict__.update(n=n, m=m, _succ=succ)

    @classmethod
    def _from_succ(cls, n: int, m: int, succ: tuple[tuple[int, ...], ...]) -> Instance:
        """An instance whose successor table the parser or a generator has
        built and checked, so ``__init__``'s checks are skipped."""
        inst = cls.__new__(cls)
        inst.__dict__.update(n=n, m=m, _succ=succ)
        return inst

    def __getstate__(self) -> dict:
        return {"n": self.n, "m": self.m, "_succ": self._succ}  # no arcs, no profile

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arc set, built from the successor table on first read."""
        succ = self._succ
        heads = chain.from_iterable(map(repeat, range(len(succ)), map(len, succ)))
        # A frozenset built straight from an iterator keeps the table it grew,
        # up to twice the size of one copied from a set.
        return frozenset(set(zip(heads, chain.from_iterable(succ))))

    @cached_property
    def profile(self) -> DegreeProfile:
        """The instance's adjacency, built on first use; see ``degree_profile``.

        Not a dataclass field, so it stays out of ``==``, ``hash`` and ``repr``.
        Its ``succ`` is the instance's own successor table, not a copy.
        """
        return _build_profile(self)


@dataclass(frozen=True)
class DegreeProfile:
    """Adjacency views: out-degrees of the A side, in-degrees of the B side.

    ``out_deg[i-1]`` is the number of B-operations depending on A_i;
    ``in_deg[j-1]`` is the number of A-operations B_j waits for.
    ``succ[i]`` is the sorted tuple of A_i's successors, indexed from 1;
    ``succ[0]`` is an empty placeholder.  Every field is a tuple, so a
    profile cannot be changed once built.  No predecessor table is kept:
    pd2, the one reader of predecessor rows, builds its own per run.
    """

    out_deg: tuple[int, ...]
    in_deg: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]


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
    """The profile of ``inst``: the row lengths of its successor table, and
    the in-degrees counted in one pass over that table, which it shares."""
    succ = inst._succ
    in_deg = [0] * (inst.m + 1)
    for row in succ:
        for j in row:
            in_deg[j] += 1
    return DegreeProfile(out_deg=tuple(map(len, succ[1:])), in_deg=tuple(in_deg[1:]), succ=succ)


def classify(inst: Instance) -> Classification:
    prof = degree_profile(inst)
    out_deg = prof.out_deg
    return Classification(is_d2=out_deg.count(2) == len(out_deg), has_pendant_b=0 in prof.in_deg)


# Per line, once a closing carriage return is dropped: comments may hold any
# text but control characters other than tab; other lines only tab and
# printable ASCII, less the signs and digit separator that int() accepts
# (+ 0x2b, - 0x2d, _ 0x5f).  One character class searches about three times
# faster than an alternation of two, and every line is searched.
_COMMENT_IRREGULAR = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")
_DATA_IRREGULAR = re.compile(r"[^\t\x20-\x2a\x2c\x2e-\x5e\x60-\x7e]")


# The mean row length (arcs per A-operation) from which an arc block is read,
# and written, one row at a time; shorter rows take the per-arc paths.  The
# row reader costs about 5 us a row more than the one-pass read, and breaks
# even at rows of 30 to 40 arcs; at 60 to 130 it takes 10 to 30 % less time.
_LONG_ROW = 64

# "a 1 2\n" to " ,1,2 ": after a placeholder 0, an arc block is an array's body.
_ARRAY_BODY = bytes.maketrans(b"a \n", b" , ")
_JSON_ARRAY = json.JSONDecoder().raw_decode  # one C-level scan of a str


def _arc_block(text: str, start: int, n: int, m: int) -> Instance | None:
    """The instance of header n, m and the arc block ``text[start:]``, if
    that block is in the layout ``serialize_instance`` writes, or None.

    That layout is one "a <i> <j>\n" line per arc with single spaces, the
    arcs in (i, j) order.  The layout is checked over the whole block at
    once.  A block of at least ``_LONG_ROW`` lines per A-operation is then
    read one row at a time by ``_long_rows``.  The numbers of any other are
    read as one JSON array, which one ``translate`` makes: each tag becomes
    a space, each space a comma and each newline a space, so "a 1 2\n"
    reads " ,1,2 ", and the block follows a placeholder 0, which only makes
    the text a valid array.  ``_succ_table`` then checks the arcs' order,
    range and uniqueness in the one pass that cuts their rows.  Either way
    "a 01 1" (JSON has no leading zeros), "a  2" (nor empty numbers), arcs
    out of order, a repeated arc or an index out of range give None.
    Returning None is never an error: the line parser then reads the block
    itself, and accepts or rejects it.
    """
    body = text[start:]
    if not body.isascii():
        return None
    block = body.encode("ascii")
    del body
    lines = block.count(b"\n")
    # Less its digits, the block is one line "a  \n" per arc, each tag starts a
    # line and is followed by a space, and no digit follows the last newline:
    # so each line is "a <digits> <digits>", though a number may be empty.
    if (
        block.translate(None, b"0123456789") != b"a  \n" * lines
        or block.count(b"\na ") + block.startswith(b"a ") != lines
        or block[-1:].isdigit()
    ):
        return None
    if lines >= _LONG_ROW * n:
        return _long_rows(block, n, m)
    try:  # an empty number, a leading zero or one past int()'s limit raise
        nums = _JSON_ARRAY((b"[0%b]" % block.translate(_ARRAY_BODY)).decode())[0]
    except ValueError:
        return None
    del block
    heads, tails = nums[1::2], tuple(nums[2::2])  # nums[0] is the placeholder 0
    del nums
    succ = _succ_table(n, m, heads, tails)
    return None if succ is None else Instance._from_succ(n, m, succ)


def _long_rows(block: bytes, n: int, m: int) -> Instance | None:
    """The instance of an arc block that ``_arc_block`` has found in the
    serializer's layout, read one row at a time, or None.

    A row is the run of lines that share the prefix "a <i> ".  Its head is
    read once, from its first line.  Its last line is the last "\na <i> "
    that ``rfind`` meets in a window of about twice the mean row's bytes,
    doubled until the line after it carries another prefix.  The prefix is
    then dropped from every line between, and only the tails are decoded,
    as one JSON array per row.  The head must rise, be at most n and have
    no leading zero; the tails must ascend strictly from at least 1 to at
    most m.  So None means what it means for ``_succ_table``: arcs out of
    order, a repeated arc, an index out of range, or a number that is empty
    or has a leading zero.
    """
    succ: list[tuple[int, ...]] = [()] * (n + 1)
    size, last, pos = len(block), 0, 0
    window = 2 * size // n + 32
    while pos < size:
        sp = block.find(b" ", pos + 2)
        head = block[pos + 2 : sp]  # digits, perhaps none
        if not (b"0" < head[:1] and len(head) <= 8):  # MAX_OPS has 8 digits
            return None
        i = int(head)
        if not last < i <= n:
            return None
        pre = b"\n" + block[pos : sp + 1]
        # The row's last line in the window, or its first if rfind finds no
        # other; the window doubles while the next line is in the row too.
        hi = pos + window
        while True:
            end = block.find(b"\n", max(block.rfind(pre, pos, hi), pos) + 1)
            if not block.startswith(pre, end):
                break
            hi += hi - pos
        # A line without the prefix keeps its tag "a", which JSON refuses,
        # and a row's one empty tail decodes to [].
        try:
            row = _JSON_ARRAY((b"[%b]" % block[sp + 1 : end].replace(pre, b",")).decode())[0]
        except ValueError:
            return None
        if not (row and 1 <= row[0] and row[-1] <= m and all(map(lt, row, row[1:]))):
            return None
        succ[i] = tuple(row)
        last, pos = i, end + 1
    return Instance._from_succ(n, m, tuple(succ))


def _split_keys(keys: list[int], m: int) -> tuple[list[int], tuple[int, ...]]:
    """The heads and tails of sorted arc keys i * (m + 1) + j, which order
    as (i, j) does when 1 <= j <= m."""
    return list(map(floordiv, keys, repeat(m + 1))), tuple(map(mod, keys, repeat(m + 1)))


def _succ_table(
    n: int, m: int, heads: list[int], tails: tuple[int, ...]
) -> tuple[tuple[int, ...], ...] | None:
    """The successor table of arcs in (i, j) order, or None.

    One pass over the arcs cuts a row where the head changes: each head's
    run of the tails, and () for an A-operation without arcs.  At each cut
    the head must rise and be at most n, the new row's first tail at least
    1 and the closed row's last tail at most m; inside a row each tail must
    exceed the one before.  So None means arcs out of order, a repeated arc
    or an index out of range, and a table returned holds only arcs in
    1..n x 1..m, every row strictly ascending.
    """
    succ: list[tuple[int, ...]] = [()] * (n + 1)
    last = lo = prev = 0  # the open row's head and first position, the last tail read
    for k, i, j in zip(count(), heads, tails):
        if i != last:
            if not (last < i <= n and 1 <= j and prev <= m):
                return None
            succ[last] = tails[lo:k]
            last, lo = i, k
        elif j <= prev:
            return None
        prev = j
    succ[last] = tails[lo:]
    # A head of 0 opens no cut, since row 0 is open from the start, so its
    # arcs can only lead the table and fill row 0.
    return None if prev > m or succ[0] else tuple(succ)


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Comment lines start with "c ", the single header line is
    "p cdock <n> <m>", and each arc line is "a <i> <j>".  Duplicate arcs
    and out-of-range indices are errors, reported with their line number.
    Lines end at a newline (a carriage return before it is dropped) and
    numbers are ASCII digits only.  Only comments may hold non-ASCII text,
    so digits from other scripts and a leading byte-order mark are errors,
    as are signs, underscores and control characters other than tab.  n and
    m may not exceed ``MAX_OPS``; a larger header is an error at that line.
    Text that is not a ``str`` raises ``TypeError``.

    The parser reads one line at a time: it checks the line's characters,
    then its grammar, then its indices' range, before it reads the next, so
    an error names its line.  Right after the header it hands the rest of
    the text, once, to ``_arc_block``, which reads an arc block in the
    layout ``serialize_instance`` writes (single spaces, a final newline,
    arcs in (i, j) order) in one pass over the whole block, or, when its
    rows average at least ``_LONG_ROW`` arcs, one row at a time.  Any other
    block (arcs out of order, a carriage return, tab, extra space, blank
    line or comment after the header), and every invalid one, the parser
    reads on line by line; it is the one place that raises.  Either way the
    instance holds its successor table, which the profile shares, and
    builds ``arcs`` only when something reads it.
    """
    if not isinstance(text, str):
        raise TypeError(f"instance text must be a str, got {type(text).__name__}")
    n = m = None
    keys: set[int] = set()  # one int per arc, as _split_keys reads them
    # Each line is found from the end of the last, so a block that
    # _arc_block reads is never split into lines.
    end, lineno = -1, 0
    while end < len(text):
        start, lineno = end + 1, lineno + 1
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        body = text[start:end].removesuffix("\r")
        line = body.strip()
        comment = line == "c" or line.startswith("c ")
        found = (_COMMENT_IRREGULAR if comment else _DATA_IRREGULAR).search(body)
        if found is not None:
            ch = found.group()
            if ch in "+-_":
                raise InstanceError(f"unexpected character {ch!r}, line {lineno}")
            kind = "control" if ch.isascii() else "non-ASCII"
            raise InstanceError(f"{kind} character U+{ord(ch):04X}, line {lineno}")
        if not line or comment:
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
            key = i * width + j
            if key in keys:
                raise InstanceError(f"duplicate arc, line {lineno}")
            keys.add(key)
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
            if n > MAX_OPS or m > MAX_OPS:
                raise InstanceError(f"n and m must be at most {MAX_OPS}, line {lineno}")
            width = m + 1
            if (inst := _arc_block(text, end + 1, n, m)) is not None:
                return inst
        else:
            raise InstanceError(f"unrecognized line type {fields[0]!r}, line {lineno}")
    if n is None or m is None:
        raise InstanceError("missing header")
    # Every arc was range-checked and de-duplicated above, so the result
    # skips __init__'s second walk over them, and no row repeats an arc.
    return Instance._from_succ(n, m, _succ_table(n, m, *_split_keys(sorted(keys), m)))


def serialize_instance(inst: Instance, comments: Iterable[str] = ()) -> str:
    """Emit the canonical text form: comments, header, arcs in (i, j) order.

    parse_instance(serialize_instance(x)) == x for every valid instance,
    and the parser reads the arc block of every text returned in one pass.
    Each comment must be a ``str`` that the parser reads back as one
    comment line: no line break and no control character other than tab.
    Anything else, and a bare ``str`` in place of the iterable, raises
    ``InstanceError`` naming the comment's index.  Arcs are written from
    the successor table, so neither ``arcs`` nor the profile is built: one
    line per arc, or, when the rows average at least ``_LONG_ROW`` arcs and
    there are at least m arcs, one join per row over the decimal strings of
    0..m.  Both write the same bytes.
    """
    if isinstance(comments, str):
        raise InstanceError("comments must be an iterable of str, not a str")
    lines = []
    for k, c in enumerate(comments):
        if type(c) is not str:
            raise InstanceError(f"comment {k} is not a str: {type(c).__name__}")
        found = _COMMENT_IRREGULAR.search(c)
        if found is not None:
            raise InstanceError(f"comment {k} holds control character U+{ord(found.group()):04X}")
        lines.append(f"c {c}")
    lines.append(f"p cdock {inst.n} {inst.m}")
    succ = inst._succ
    if sum(map(len, succ)) < max(_LONG_ROW * inst.n, inst.m):
        lines.extend(f"a {i} {j}" for i, row in enumerate(succ) for j in row)
    else:  # one join per row, over a table no longer than the arc list
        digits = list(map(str, range(inst.m + 1)))
        for i, row in enumerate(succ):
            if row:
                pre = f"a {i} "
                lines.append(pre + ("\n" + pre).join(map(digits.__getitem__, row)))
    return "\n".join(lines) + "\n"
