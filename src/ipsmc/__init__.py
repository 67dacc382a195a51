"""Simulation and twisted-SMC posterior inference for interacting
continuous-time jump processes on graphs."""

__version__ = "0.1.0"

from .ips import (PathSample, RateModel, SIRSParams, StateSpaceSpec,
                  euler_step_table, gillespie_simulate, make_grid,
                  path_log_density, sirs_model)
from .twisting import (ConstantTwist, ObservationSequence, TwistOracle,
                       emission_log_potential, incremental_ess)
from .smc import (ParticleEnsemble, SMCConfig, bpf_run, effective_sample_size,
                  posterior_marginals_from_ensemble, run_smc,
                  systematic_resample)
