"""Mixed Hamiltonian Monte Carlo: kernels updating discrete and continuous
variables in tandem along one trajectory, plus benchmark models, baselines,
and sampling diagnostics."""

from .core import (
    DegenerateSiteError,
    KineticEnergy,
    MixedPoint,
    ModelSpec,
    default_proposal_sample,
    delta_E,
)
from .diagnostics import ChainOutput, ess, ks_two_sample, mress
from .kernels_general import (
    AuxiliaryState,
    general_step,
    initial_hit_time,
    refract,
    run_chain_general,
    sample_auxiliary,
)
from .kernels_laplace import (
    LaplaceKernelParams,
    get_step_sizes_n_steps,
    laplace_step,
    run_chain,
)
from .baselines import (
    NaiveParams,
    gibbs_mh_sweep,
    naive_mixed_hmc_step,
    run_gibbs_chain,
    run_naive_chain,
)
from .rng import ChainRng

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryState",
    "ChainOutput",
    "ChainRng",
    "DegenerateSiteError",
    "KineticEnergy",
    "LaplaceKernelParams",
    "MixedPoint",
    "ModelSpec",
    "NaiveParams",
    "default_proposal_sample",
    "delta_E",
    "ess",
    "general_step",
    "get_step_sizes_n_steps",
    "gibbs_mh_sweep",
    "initial_hit_time",
    "ks_two_sample",
    "laplace_step",
    "mress",
    "naive_mixed_hmc_step",
    "refract",
    "run_chain",
    "run_chain_general",
    "run_gibbs_chain",
    "run_naive_chain",
    "sample_auxiliary",
]
