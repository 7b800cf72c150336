"""Linear programming over the compiled witness arena: the paper's
primal/dual LP (Section IV.C) and the exact 0/1 ILP, both sliced from
one shared vt × fact incidence matrix and solved with scipy's HiGHS."""

from repro.lp.formulations import (
    CompiledLP,
    dual_vse_lp,
    lp_lower_bound,
    primal_vse_lp,
)
from repro.lp.ilp import CompiledILP, compile_ilp, solve_ilp

__all__ = [
    "CompiledILP",
    "CompiledLP",
    "compile_ilp",
    "dual_vse_lp",
    "lp_lower_bound",
    "primal_vse_lp",
    "solve_ilp",
]
