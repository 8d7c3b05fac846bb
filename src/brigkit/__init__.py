"""brigkit: exact arithmetic toolkit for integer binary recurrences.

Sequences u_0 = P, u_1 = Q, u_n = A*u_{n-1} - B*u_{n-2} over the integers:
classification (including every degenerate shape), fast exact terms, a
decision procedure for "is some u_k = 0, and which k", constructors for
sequences vanishing at a prescribed index, and exact verification of growth
lower bounds.  All verdicts are integer/quadratic-surd exact; no floating
point touches any decision.
"""

from .core import (DegenerateInputError, Discriminant, Kind, Reason,
                   SequenceClass, SequenceParams, classify, coeff_gcd,
                   discriminant, normalize_gcd, reduce_d)
from .exactnum import (MismatchedRadicandError, QuadElem, alpha_power,
                       beta_power)
from .growth import (BranchKind, GrowthBranch, GrowthCase, GrowthReport,
                     HeightBoundError, Margin, RatioHeight, check_lucas_growth,
                     check_nonreal_growth, check_real_growth,
                     check_sharp_growth, empirical_nonreal_threshold,
                     height_sandwich_check, nonreal_threshold_formula,
                     ratio_height, ratio_value, real_case_branch)
from .terms import (LucasPair, TermWindow, coeffs, gcd_consecutive_U,
                    lucas_U, lucas_V, lucas_pair, lucas_uv, term_fast,
                    term_iter, term_window)
from .zeros import (AllZero, BoundBasis, ConstructionError,
                    InvariantViolationError, NoZero, PeriodicZeros,
                    SearchBound, ZeroAt, ZeroResult, ZeroTail,
                    construct_zero_at, degenerate_zeros, find_zero,
                    zero_family, zero_search_bound)

__version__ = "0.1.0"
