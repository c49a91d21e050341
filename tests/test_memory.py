"""Memory in proportion to the input: the tracemalloc peak of the greedy
pipeline, parse -> profile -> greedy_order -> complete_m2_erd.

Each bound is the figure measured on the commit that last set it
(CPython 3.11.7, where the peaks are the same from run to run and under
``-X dev``) plus ``MARGIN``; CPython 3.13 read within 2 % of the first
figures and was not run on later ones.  An arc-free header is a valid
instance, and every structure that holds one object per operation shows
in its peak; gen_d2 adds the per-arc ones.  A CI step applies the header bound at 10^6 x 10^6.
"""

import gc
import tracemalloc

from crossdock import complete_m2_erd, degree_profile, gen_d2, greedy_order, parse_instance, serialize_instance

MARGIN = 1.15

# 26 373 032 bytes at p cdock 100000 100000, over 2 * 10^5 operations.
HEADER_BYTES_PER_OP = 131.87 * MARGIN
# 8 392 032 bytes for gen_d2(20000, 20000, 400, 3), over its 40 000 arcs.
D2_BYTES_PER_ARC = 209.80 * MARGIN


def pipeline_peak(text: str) -> int:
    """The tracemalloc peak, in bytes, of parsing ``text``, building the
    profile, ordering greedily and completing machine 2 by ERD."""
    gc.collect()
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        degree_profile(inst)
        complete_m2_erd(inst, greedy_order(inst))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def header_bytes_per_op(size: int) -> float:
    return pipeline_peak(f"p cdock {size} {size}\n") / (2 * size)


def test_arc_free_header_peak_per_operation():
    per_op = header_bytes_per_op(10**5)
    assert per_op <= HEADER_BYTES_PER_OP, f"{per_op:.2f} bytes per operation"


def test_gen_d2_peak_per_arc():
    inst = gen_d2(20000, 20000, 400, 3)
    text, arcs = serialize_instance(inst), sum(inst.profile.out_deg)
    del inst
    per_arc = pipeline_peak(text) / arcs
    assert per_arc <= D2_BYTES_PER_ARC, f"{per_arc:.2f} bytes per arc"
