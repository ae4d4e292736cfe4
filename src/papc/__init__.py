"""Stochastic primal-dual splitting with a correction step.

Solvers for structured monotone inclusions and saddle-point problems, the
product-space reduction for sums of composite terms, stochastic oracles with
summability certificates, and the diagnostics (KKT residuals, step-metric
distance tracking, ergodic duality gaps with their O(1/sum gamma) bound)
needed to verify the convergence behaviour empirically.
"""

from .linop import (LinearMap, OrthoProjector, SpdOperator, certify_tau, coupling_lambda_max,
                    weighted_norm_sq)
from .monotone import (CocoerciveMap, MonotoneBlock, ProductMonotoneBlock, ProxFunction,
                       inverse_resolvent)
from .solver import (BatchRecord, ErgodicAccumulator, PapcState, ProblemSpec, RunRecord,
                     Schedules, ergodic_update, papc_step, run, validate_hypotheses)
from .composite import CompositeBlock, CompositeProblem, lift, stack
from .diagnostics import fejer_tracker, gap_and_bound, kkt_residual, rate_fit, saddle_value
from .stochastic import (DeterministicOracle, GaussianOracle, MinibatchOracle,
                         VarianceSchedule, summability_certificate)

__version__ = "0.1.0"
