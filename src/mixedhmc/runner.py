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
from .kernels_laplace import LaplaceKernelParams, run_chain_batch
from .rng import ChainRng

__all__ = ["chain_batches", "default_init", "random_point", "run_chains",
           "resolve_threads"]

KERNEL_KINDS = ("laplace", "general", "naive", "gibbs")

# Fewest chains per Laplace worker.  A lockstep round costs numpy's per-call
# overhead once for the whole batch, so one chain alone pays 3-4x what it
# pays in a batch of 4; below that size a worker costs more CPU per chain
# than it saves in wall time.
LAPLACE_MIN_BATCH = 4


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


def _batch_task(args):
    """Run the chains of one worker: Laplace-kernel chains in one lockstep
    batch, the other kernels' chains one after another."""
    kind, model, kw, n_burn, n_samples, seed, streams = args
    rngs = [ChainRng(seed, stream) for stream in streams]
    inits = [default_init(model, rng) for rng in rngs]
    if kind == "laplace":
        params = LaplaceKernelParams(
            epsilon=kw["epsilon"], T=kw["T"], L=kw["L"],
            n_D=kw.get("n_D", 1), mass_diag=kw.get("mass_diag"))
        return run_chain_batch(inits, params, model, n_burn, n_samples, rngs)
    return [_chain(kind, model, kw, n_burn, n_samples, init, rng)
            for init, rng in zip(inits, rngs)]


def _chain(kind, model, kw, n_burn, n_samples, init, rng):
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


def chain_batches(kind: str, n_chains: int, threads=None) -> list:
    """The streams of each worker's batch: consecutive, sizes differing by at
    most one, at least ``LAPLACE_MIN_BATCH`` per Laplace batch when there
    are that many chains."""
    workers = resolve_threads(threads, n_chains)
    if kind == "laplace":
        workers = min(workers, max(1, n_chains // LAPLACE_MIN_BATCH))
    return [streams.tolist()
            for streams in np.array_split(np.arange(n_chains), workers)
            if streams.size]


def run_chains(kind: str, model: ModelSpec, kernel_kwargs: dict,
               n_chains: int, n_burn: int, n_samples: int, seed: int,
               threads=None):
    """Run ``n_chains`` independent chains; returns ChainOutputs in stream order.

    Each worker gets one batch of consecutive streams, the batches' sizes
    differing by at most one; Laplace runs use no more workers than leave
    ``LAPLACE_MIN_BATCH`` chains in each batch.  A chain's samples do not
    depend on the batch it runs in, so a run's samples do not depend on the
    worker count.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    tasks = [(kind, model, kernel_kwargs, n_burn, n_samples, seed, streams)
             for streams in chain_batches(kind, n_chains, threads)]
    if len(tasks) <= 1:
        batches = [_batch_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            batches = list(pool.map(_batch_task, tasks))
    return [out for batch in batches for out in batch]
