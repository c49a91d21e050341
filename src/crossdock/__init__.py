"""Two-machine unit-time cross-docking flow-shop scheduling.

Solvers for the makespan problem where machine-2 operations wait on
subsets of machine-1 operations: a degree-greedy heuristic with a
certified worst-case ratio, an exact polynomial algorithm for the class
where every machine-1 operation has two successors, an exact O(2^n * n)
subset dynamic program for any instance with n <= 20.
"""

from .instance import (
    Classification,
    DegreeProfile,
    Instance,
    InstanceError,
    MAX_OPS,
    classify,
    degree_profile,
    parse_instance,
    serialize_instance,
)
from .schedule import (
    FeasibilityReport,
    Permutation,
    Schedule,
    check_feasible,
    complete_m2_erd,
    makespan,
    release_times,
    render_gantt,
    schedule_from_json,
    schedule_to_json,
)
from .greedy import (
    BoundsReport,
    bounds_report,
    bounds_report_to_json,
    compute_q,
    greedy_order,
    lower_bound,
    lower_bound_printed_form,
    solve_greedy,
)
from .pd2 import (
    Block,
    NotD2Error,
    Pd2Trace,
    blocks,
    blocks_to_json,
    lemma1_bound,
    solve_pd2,
    trace_to_json,
)
from .exact import (
    ExactResult,
    solve_exact,
)
from .generators import TightParams, gen_d2, gen_random, gen_tight

__all__ = [
    "Block",
    "BoundsReport",
    "Classification",
    "DegreeProfile",
    "ExactResult",
    "FeasibilityReport",
    "Instance",
    "InstanceError",
    "MAX_OPS",
    "NotD2Error",
    "Pd2Trace",
    "Permutation",
    "Schedule",
    "TightParams",
    "blocks",
    "blocks_to_json",
    "bounds_report",
    "bounds_report_to_json",
    "check_feasible",
    "classify",
    "complete_m2_erd",
    "compute_q",
    "degree_profile",
    "gen_d2",
    "gen_random",
    "gen_tight",
    "greedy_order",
    "lemma1_bound",
    "lower_bound",
    "lower_bound_printed_form",
    "makespan",
    "parse_instance",
    "release_times",
    "render_gantt",
    "schedule_from_json",
    "schedule_to_json",
    "serialize_instance",
    "solve_exact",
    "solve_greedy",
    "solve_pd2",
    "trace_to_json",
]
