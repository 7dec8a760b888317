"""Reasons shared by the knob census and the reach census.

``tests/workload/test_experiment_knobs.py`` keeps a parameter no caller
sets, and ``tests/test_reach_report.py`` keeps a def no product run
reaches, only with a named reason. The reasons both censuses use are
defined here once, so the two cannot drift apart.
"""

INTENSITY_GATE = "the paper's per-class intensity gate (core/admission.py)"
GRADE_ONE = "DESIGN §13.4's grade-1 consistency, which ROADMAP item 4 checks"
FORKED_DRIVER = "the forked driver, kept until ROADMAP item 9(b) row 2 decides it"
KERNEL_DIFFERENTIAL = "the reference-kernel differential drives it in both kernels"
