"""Degree-greedy solver and its worst-case ratio certificate.

Machine-1 operations are ordered by descending out-degree d; ties fall
back to the ratio d/S, larger first, where S is the total in-degree of the
successors, and then to the index.  That is the order of the integer
triple (-d, S, i): within one out-degree d > 0 a larger d/S is exactly a
smaller S (S >= d > 0, since A_i counts toward each successor's
in-degree), and for d = 0 the ratio and S are both 0, leaving the index.
The certificate bounds the greedy makespan by max{q+m, n}, where q is the
shortest order prefix whose out-degree sum exceeds the arc total minus m,
and divides by a proven lower bound on the optimum.

No triple is built: the indices are sorted by S, then by d with
``reverse=True``.  Python's sort is stable, ``reverse`` included, so each
run of equal d keeps the (S, i) order of the first sort.  S is summed by
one C call per row: ``itemgetter(0, 0, *row)`` picks the row's in-degrees
out of ``(0, *in_deg)``, indexed from 1 like ``succ``; the two zeros add
nothing and make a row of 0 or 1 successors give a tuple too.

The lower bound deserves a note.  The published form max{m+dminA, n+dminB}
can exceed the optimum (n=1, m=3, a single arc gives 4 versus an optimum
of 3), so certificates here use max{n+dminA, m+dminB}: the last machine-1
completion (at least n) is followed by at least dminA successors, and
machine 2 carries m operations none of which can start before dminB.
Reports carry the published form alongside, flagged, for comparison.
pd2 meets this corrected bound on every two-successor instance; Lemma 1's
class bound is this bound restricted to that class (see ``lemma1_bound``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import itemgetter

from .instance import Instance, degree_profile
from .schedule import Permutation, Schedule, complete_m2_erd


@dataclass(frozen=True)
class BoundsReport:
    q: int
    d_min_a: int
    d_min_b: int
    lower_bound: int
    lower_bound_printed: int
    greedy_upper: int
    ratio_bound: Fraction


def greedy_order(inst: Instance) -> Permutation:
    """Order A-operations by out-degree, then by the successor-weight ratio.

    A-operations with no successors sort last; both sort keys are integers.
    """
    prof = degree_profile(inst)
    in_deg = (0, *prof.in_deg)  # indexed from 1, like succ
    weight = [sum(itemgetter(0, 0, *row)(in_deg)) for row in prof.succ]
    order = sorted(range(1, inst.n + 1), key=weight.__getitem__)
    order.sort(key=(0, *prof.out_deg).__getitem__, reverse=True)
    return tuple(order)


def solve_greedy(inst: Instance) -> Schedule:
    return complete_m2_erd(inst, greedy_order(inst))


def compute_q(inst: Instance) -> int:
    """Smallest q whose q largest out-degrees sum to more than total arcs - m.

    That is the shortest prefix of any order sorted by descending
    out-degree, the greedy order included, so the tie-break plays no part.
    """
    out_deg = degree_profile(inst).out_deg
    threshold = sum(out_deg) - inst.m
    prefix = 0
    for q, d in enumerate(sorted(out_deg, reverse=True), start=1):
        prefix += d
        if prefix > threshold:
            return q
    raise AssertionError("unreachable: inequality holds at q=n since m >= 1")


def lower_bound(inst: Instance) -> int:
    prof = degree_profile(inst)
    return max(inst.n + min(prof.out_deg), inst.m + min(prof.in_deg))


def lower_bound_printed_form(inst: Instance) -> int:
    """The bound as published; can exceed the optimum, kept for reporting."""
    prof = degree_profile(inst)
    return max(inst.m + min(prof.out_deg), inst.n + min(prof.in_deg))


def bounds_report(inst: Instance) -> BoundsReport:
    prof = degree_profile(inst)
    q = compute_q(inst)
    lb = lower_bound(inst)
    upper = max(q + inst.m, inst.n)
    return BoundsReport(
        q=q,
        d_min_a=min(prof.out_deg),
        d_min_b=min(prof.in_deg),
        lower_bound=lb,
        lower_bound_printed=lower_bound_printed_form(inst),
        greedy_upper=upper,
        ratio_bound=Fraction(upper, lb),
    )


def bounds_report_to_json(report: BoundsReport) -> str:
    data = asdict(report)
    data["ratio_bound"] = [report.ratio_bound.numerator, report.ratio_bound.denominator]
    return json.dumps(data, indent=2) + "\n"
