"""Memory in proportion to the input: the tracemalloc peak of the greedy
pipeline, parse -> profile -> greedy_order -> complete_m2_erd, and of the
pd2 pipeline, parse -> classify -> solve_pd2.

Each bound is the figure measured on the commit that last set it
(CPython 3.11.7, where the peaks are the same from run to run and under
``-X dev``) plus ``MARGIN``; CPython 3.13 read within 2 % of the first
figures and was not run on later ones.  An arc-free header is a valid
instance, and every structure that holds one object per operation shows
in its peak; gen_d2 adds the per-arc ones.  The two greedy bounds were
set when greedy_order's key tuple per operation gave way to two stable
sorts, and complete_m2_erd's bucket list per release time to one sort.
The code before peaked at 131.87 bytes per operation and 209.80 per arc,
so building either structure again fails them.  CI steps apply the header
bound at 10^6 x 10^6 and the pd2 bound at n = m = 200 000.
"""

import gc
import tracemalloc

from crossdock import (
    classify,
    complete_m2_erd,
    degree_profile,
    gen_d2,
    greedy_order,
    parse_instance,
    serialize_instance,
    solve_pd2,
)

MARGIN = 1.15

# 18 769 828 bytes at p cdock 100000 100000, over 2 * 10^5 operations.
HEADER_BYTES_PER_OP = 93.85 * MARGIN
# 6 367 212 bytes for gen_d2(20000, 20000, 400, 3), over its 40 000 arcs.
D2_BYTES_PER_ARC = 159.18 * MARGIN
# 6 854 412 bytes for parse -> classify -> solve_pd2 on the same instance.
D2_PD2_BYTES_PER_ARC = 171.36 * MARGIN


def greedy(inst):
    """Build the profile, order greedily and complete machine 2 by ERD."""
    degree_profile(inst)
    complete_m2_erd(inst, greedy_order(inst))


def pd2(inst):
    """Classify, as the CLI does, and solve by pd2."""
    classify(inst)
    solve_pd2(inst)


def pipeline_peak(text: str, solve) -> int:
    """The tracemalloc peak, in bytes, of parsing ``text`` and solving it."""
    gc.collect()
    tracemalloc.start()
    try:
        solve(parse_instance(text))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bytes_per_arc(inst, solve) -> float:
    """The pipeline peak on ``inst``'s canonical text, per arc."""
    text, arcs = serialize_instance(inst), sum(inst.profile.out_deg)
    return pipeline_peak(text, solve) / arcs


def header_bytes_per_op(size: int) -> float:
    return pipeline_peak(f"p cdock {size} {size}\n", greedy) / (2 * size)


def test_arc_free_header_peak_per_operation():
    per_op = header_bytes_per_op(10**5)
    assert per_op <= HEADER_BYTES_PER_OP, f"{per_op:.2f} bytes per operation"


def test_gen_d2_peak_per_arc():
    per_arc = bytes_per_arc(gen_d2(20000, 20000, 400, 3), greedy)
    assert per_arc <= D2_BYTES_PER_ARC, f"{per_arc:.2f} bytes per arc"


def test_gen_d2_pd2_peak_per_arc():
    per_arc = bytes_per_arc(gen_d2(20000, 20000, 400, 3), pd2)
    assert per_arc <= D2_PD2_BYTES_PER_ARC, f"{per_arc:.2f} bytes per arc"
