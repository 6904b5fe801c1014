"""Mixed Hamiltonian Monte Carlo: kernels updating discrete and continuous
variables in tandem along one trajectory.  The top level holds the library's
entry points; everything else is imported from its own module."""

from .core import KineticEnergy, MixedPoint, ModelSpec
from .diagnostics import ChainOutput
from .kernels_general import run_chain_general
from .kernels_laplace import (LaplaceKernelParams, get_step_sizes_n_steps,
                              run_chain)
from .rng import ChainRng

__version__ = "0.1.0"

__all__ = [
    "ChainOutput",
    "ChainRng",
    "KineticEnergy",
    "LaplaceKernelParams",
    "MixedPoint",
    "ModelSpec",
    "get_step_sizes_n_steps",
    "run_chain",
    "run_chain_general",
]
