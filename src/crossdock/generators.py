"""Reproducible instance generators.

All randomness comes from ``random.Random(seed)`` (the stdlib Mersenne
Twister), so a (parameters, seed) pair reproduces the same instance on
any platform; a negative seed is refused, since ``Random(-s)`` draws what
``Random(s)`` does.  ``gen_random`` reads ``random()``; ``gen_d2`` reads
``getrandbits`` itself, in the order the stdlib's ``sample`` reads it, so
its instances are those ``sample`` drew but no longer depend on how the
stdlib implements ``sample``.  Arcs are drawn in a fixed traversal order
into the sorted successor table an ``Instance`` holds, so ``arcs`` is built
on first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from numbers import Real

from .instance import MAX_OPS, Instance


def _require_ints(**params: object) -> None:
    """Raise ValueError naming the first parameter that is not an int;
    bool and None are not ints here, so a seed is never silently the clock."""
    for name, value in params.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _rng(seed: int) -> random.Random:
    """The random stream of a seed that ``_require_ints`` has passed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return random.Random(seed)


def _require_max_ops(**counts: int) -> None:
    """Raise ValueError naming the first operation count above ``MAX_OPS``,
    before anything is drawn; ``Instance`` would refuse it only afterwards."""
    for name, value in counts.items():
        if value > MAX_OPS:
            raise ValueError(f"{name} must be at most {MAX_OPS}, got {value}")


@dataclass(frozen=True)
class TightParams:
    """Parameters of the worst-case family for the greedy ratio bound."""

    k: int
    l: int
    s: int

    def __post_init__(self) -> None:
        _require_ints(k=self.k, l=self.l, s=self.s)
        if self.l < 1 or self.k < self.l:
            raise ValueError(f"need k >= l >= 1, got k={self.k}, l={self.l}")
        if self.s < 3:
            raise ValueError(f"need s >= 3, got s={self.s}")
        _require_max_ops(**{"n = k+l+s": self.k + self.l + self.s, "m = 2k+s": 2 * self.k + self.s})


def gen_random(n: int, m: int, p: float, seed: int) -> Instance:
    """Arc-Bernoulli bipartite instance: each of the n*m arcs kept with prob p."""
    _require_ints(n=n, m=m, seed=seed)
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    _require_max_ops(n=n, m=m)
    if isinstance(p, bool) or not isinstance(p, Real) or not 0 <= p <= 1:
        raise ValueError(f"p must be a real number in [0, 1], got {p!r}")
    rand = _rng(seed).random
    cols = range(1, m + 1)
    succ = ((), *[tuple([j for j in cols if rand() < p]) for _ in range(n)])
    return Instance._from_succ(n, m, succ)


def gen_d2(a_count: int, b_count: int, pendant_count: int, seed: int) -> Instance:
    """Instance in the two-successor class.

    Each A-operation receives two distinct successors sampled uniformly
    from the first b_count - pendant_count B-operations; the remaining
    B-operations are excluded from sampling and stay pendant.  Sampling
    may leave further B-operations uncovered.

    The pair is what ``sorted(Random(seed).sample(pool, 2))`` drew, read
    from ``getrandbits`` in ``sample``'s order, so instances no longer
    depend on how the stdlib implements ``sample``.  An index below a bound
    redraws ``getrandbits(bound.bit_length())`` while the value reaches the
    bound.  A pool of at most 21 draws x below its size and y below one
    less, y = x meaning the last index, which ``sample`` moved into x's
    place; a larger pool redraws y below its size while it equals x.
    """
    _require_ints(a_count=a_count, b_count=b_count, pendant_count=pendant_count, seed=seed)
    if a_count < 1 or b_count < 1:
        raise ValueError(f"counts must be positive, got a={a_count}, b={b_count}")
    _require_max_ops(a_count=a_count, b_count=b_count)
    if pendant_count < 0 or b_count - pendant_count < 2:
        raise ValueError(
            f"need at least 2 non-pendant B-operations, got b={b_count}, pendants={pendant_count}"
        )
    getrandbits = _rng(seed).getrandbits
    size = b_count - pendant_count
    last = size - 1
    k = size.bit_length()
    rows: list[tuple[int, int]] = []
    append = rows.append
    if size <= 21:
        k_last = last.bit_length()
        for _ in range(a_count):
            x = getrandbits(k)
            while x >= size:
                x = getrandbits(k)
            y = getrandbits(k_last)
            while y >= last:
                y = getrandbits(k_last)
            if y == x:
                y = last
            append((x + 1, y + 1) if x < y else (y + 1, x + 1))
    else:
        for _ in range(a_count):
            x = getrandbits(k)
            while x >= size:
                x = getrandbits(k)
            y = getrandbits(k)
            while y >= size or y == x:
                y = getrandbits(k)
            append((x + 1, y + 1) if x < y else (y + 1, x + 1))
    return Instance._from_succ(a_count, b_count, ((), *rows))


def gen_tight(params: TightParams) -> Instance:
    """Worst-case family TF(k, l, s) for the greedy ratio certificate.

    A-side layout: A_1..A_k pair off with the first 2k B-operations
    (A_i -> B_{2i-1}, B_{2i}); A_{k+1}..A_{k+l} each point at all of the
    last s B-operations; A_{k+l+1}..A_n each point at one of them.
    Greedy runs the middle group first and realizes makespan 2k+s+l+1
    against an optimum of 2k+s+1.
    """
    k, l, s = params.k, params.l, params.s
    n = k + l + s
    m = 2 * k + s
    last = tuple(range(2 * k + 1, m + 1))
    pairs = [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    return Instance._from_succ(n, m, ((), *pairs, *[last] * l, *[(j,) for j in last]))
