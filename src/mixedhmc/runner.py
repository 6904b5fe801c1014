"""Multi-chain orchestration: independent streams, optional process pool.

Chain ``c`` of a run uses ``ChainRng(seed, stream=c)``; results are returned
in stream order regardless of scheduling, so a run is reproducible whether it
executes inline or across worker processes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .baselines import NaiveParams, run_gibbs_chain, run_naive_chain
from .core import KineticEnergy, MixedPoint, ModelSpec
from .kernels_general import run_chain_general
from .kernels_laplace import LaplaceKernelParams, run_chain
from .rng import ChainRng

__all__ = ["default_init", "random_point", "run_chains", "resolve_threads"]

KERNEL_KINDS = ("laplace", "general", "naive", "gibbs")


def random_point(model: ModelSpec, rng: ChainRng) -> MixedPoint:
    """Uniform site values and standard normal coordinates."""
    x = np.array([int(rng.uniform() * model.site_cardinality(j))
                  for j in range(model.n_discrete)], dtype=np.int64)
    q = rng.normal(model.n_continuous) if model.n_continuous else np.zeros(0)
    return MixedPoint(x, q)


def default_init(model: ModelSpec, rng: ChainRng) -> MixedPoint:
    """Model-provided initial point when available, else a generic draw."""
    if hasattr(model, "initial_point"):
        return model.initial_point(rng)
    return random_point(model, rng)


def _chain_task(args):
    kind, model, kw, n_burn, n_samples, seed, stream = args
    rng = ChainRng(seed, stream)
    init = default_init(model, rng)
    if kind == "laplace":
        params = LaplaceKernelParams(
            epsilon=kw["epsilon"], T=kw["T"], L=kw["L"],
            n_D=kw.get("n_D", 1), mass_diag=kw.get("mass_diag"))
        return run_chain(init, params, model, n_burn, n_samples, rng)
    if kind == "general":
        return run_chain_general(
            init, kw["T"], model, KineticEnergy(kw.get("beta", 1.0)),
            kw.get("tau", 1.0), kw["integrator_eps"], n_burn, n_samples, rng,
            resample_positions=kw.get("resample_positions", True))
    if kind == "naive":
        params = NaiveParams(epsilon=kw["epsilon"], L=kw["L"],
                             use_k=kw.get("use_k", True))
        return run_naive_chain(init, params, model, n_burn, n_samples, rng)
    if kind == "gibbs":
        return run_gibbs_chain(init, model, kw["rw_scale"], n_burn,
                               n_samples, rng)
    raise ValueError(f"unknown kernel kind {kind!r}")


def resolve_threads(requested=None, n_chains: int = 1) -> int:
    """--threads flag > MHMC_THREADS env > available cores, capped at chains."""
    if requested is None:
        env = os.environ.get("MHMC_THREADS")
        requested = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(int(requested), n_chains))


def run_chains(kind: str, model: ModelSpec, kernel_kwargs: dict,
               n_chains: int, n_burn: int, n_samples: int, seed: int,
               threads=None):
    """Run ``n_chains`` independent chains; returns ChainOutputs in stream order."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    tasks = [(kind, model, kernel_kwargs, n_burn, n_samples, seed, c)
             for c in range(n_chains)]
    workers = resolve_threads(threads, n_chains)
    if workers <= 1 or n_chains <= 1:
        return [_chain_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chain_task, tasks))
