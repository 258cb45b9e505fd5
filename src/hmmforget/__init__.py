"""Numerical laboratory for forgetting of the initial condition in
hidden Markov model filters.

Public surface: the model zoo, the deterministic grid filter, the
local-Doeblin bound machinery, exact verification oracles, and repeated
forgetting experiments.
"""

from .bounds import (BoundConfig, BoundReport, ConditionReport, H2UnverifiedError,
                     HypothesisWarning, LDSet, NotCertifiableError, a_n,
                     certify_ld_set, check_conditions, geometric_bound,
                     find_ld_set_for_eta, sharp_bound, log_psi_batch,
                     log_upsilon_batch, phi, rho, upsilon)
from .experiments import (ExperimentConfig, ExperimentResult, RSequenceResult,
                          emit_report, estimate_r_sequences, fit_rate,
                          run_forgetting)
from .gridfilter import (DegenerateFilterError, FilterState, filter_step,
                         init_filter, run_two_filters, transition_kernel,
                         tv_distance)
from .grids import GridSpec, InitialDistribution
from .models import (LGSSM, NLSSM, DomainError, DriftFunction, FiniteStateModel,
                     StochVolModel, TobitModel, Trajectory, simulate)
from .rng import substream
from .verify import (DriftPreconditionError, ExactDeltaResult,
                     counting_inequality_check, exact_delta, exact_denominator_bound,
                     random_finite_model, run_suite, supermartingale_check)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
