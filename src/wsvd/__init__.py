"""Weighted SVD, weighted Golub-Kahan bidiagonalization, and weighted LSQR
for discrete ill-posed problems.

The inner product on solution space is x^T M y for a symmetric positive
definite M; orthogonality, norms, and optimality statements below are with
respect to that geometry unless stated otherwise.
"""

from .bidiag import (ApproxTriplet, BidiagState, approx_triplets,
                     project_bidiagonal, wgkb_init, wgkb_run, wgkb_step)
from .decomposition import (WsvdFactorization, covers, low_rank_approx, min_m_norm_ls,
                            tikhonov_wsvd, twsvd_solution,
                            weighted_operator_norm, wsvd)
from .problems import (NoisyData, TestProblem, add_noise, build_problem, kernel_eval,
                       load_problem, save_problem, simpson_weights, true_solution)
from .regularization import (LCurveStop, RunRecord, StoppingRule,
                             lcurve_curvature, lcurve_points, lsqr_baseline,
                             select, spr_solve, stop_dp, stop_lcurve, stop_oracle,
                             tikhonov_opt, twsvd_record)
from .solver import WlsqrState, wlsqr_init, wlsqr_run, wlsqr_step
from .weights import WeightMatrix

__version__ = "0.1.0"

__all__ = [
    "ApproxTriplet",
    "BidiagState",
    "LCurveStop",
    "NoisyData",
    "RunRecord",
    "StoppingRule",
    "TestProblem",
    "WeightMatrix",
    "WlsqrState",
    "WsvdFactorization",
    "add_noise",
    "approx_triplets",
    "build_problem",
    "covers",
    "kernel_eval",
    "lcurve_curvature",
    "lcurve_points",
    "load_problem",
    "low_rank_approx",
    "lsqr_baseline",
    "min_m_norm_ls",
    "project_bidiagonal",
    "save_problem",
    "select",
    "simpson_weights",
    "spr_solve",
    "stop_dp",
    "stop_lcurve",
    "stop_oracle",
    "tikhonov_opt",
    "tikhonov_wsvd",
    "true_solution",
    "twsvd_record",
    "twsvd_solution",
    "weighted_operator_norm",
    "wgkb_init",
    "wgkb_run",
    "wgkb_step",
    "wlsqr_init",
    "wlsqr_run",
    "wlsqr_step",
    "wsvd",
]
