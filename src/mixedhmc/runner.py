"""Multi-chain orchestration: independent streams, optional process pool.

Chain ``c`` of a run uses ``ChainRng(seed, stream=c)``; results are returned
in stream order regardless of scheduling, so a run is reproducible whether it
executes inline or across worker processes.  A worker steps its chains in
one lockstep batch under the Laplace and the event-driven kernels, and one
after another under the baselines; each chain's samples are the same in
any batch.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .baselines import (GibbsParams, NaiveParams, run_gibbs_chain,
                        run_naive_chain)
from .core import DegenerateSiteError, MixedPoint, ModelSpec, site_widths
from .kernels_general import GeneralParams, run_chain_general_batch
from .kernels_laplace import LaplaceKernelParams, run_chain_batch
from .models import GaussianMixture
from .rng import ChainRng

__all__ = ["KERNELS", "chain_batches", "default_init", "kernel_params",
           "random_point", "run_chains", "resolve_threads"]

# Each kind's params class states its settings: names, defaults and checks.
KERNELS = {"laplace": LaplaceKernelParams, "general": GeneralParams,
           "naive": NaiveParams, "gibbs": GibbsParams}

# Fewest chains per Laplace worker.  A lockstep round costs numpy's per-call
# overhead once for the whole batch, so one chain alone pays 2.3-4.0x what it
# pays in a batch of 4 (``run_chain_batch`` on a 2-vCPU x86 host, best of 60,
# µs per chain-iteration at C = 1, 2, 4, 8: gmm1d at the README's settings
# 473, 227, 119, 66; BLR and gmm24 at the benchmark's, 1104, 720, 474, 339
# and 2237, 1133, 583, 323); below that size a worker costs more CPU per
# chain than it saves in wall time.
LAPLACE_MIN_BATCH = 4

# ``concurrent.futures.ProcessPoolExecutor``, imported by the first run that
# takes more than one worker: the import loads ``multiprocessing``, which a
# one-worker run never uses.
ProcessPoolExecutor = None


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


def kernel_params(kind: str, model: ModelSpec, settings):
    """The params object of kernel ``kind`` from ``settings`` (a dict of its
    fields, or the object itself), checked against ``model``; an unknown
    key, a missing field and a bad or unfit value raise
    ``ValueError("<field>: ...")``.  Every kernel
    proposes moves to another value at each site, so a site with a single
    value is unfit for all of them."""
    if kind not in KERNELS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    cls = KERNELS[kind]
    params = settings
    if not isinstance(settings, cls):
        fields = dataclasses.fields(cls)
        unknown = sorted(settings.keys() - {f.name for f in fields})
        if unknown:
            raise ValueError(f"{unknown[0]}: unknown setting of the {kind} "
                             "kernel")
        for f in fields:
            if (f.name not in settings and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise ValueError(f"{f.name}: missing, the {kind} kernel "
                                 "needs it")
        params = cls(**settings)
    try:
        site_widths(model)
    except DegenerateSiteError as exc:
        raise ValueError(f"type: {exc}, and the {kind} kernel proposes a move "
                         "to another value at every site") from None
    if isinstance(params, LaplaceKernelParams):
        params.validate_for(model.n_discrete, model.n_continuous)
    if isinstance(params, NaiveParams) and not (
            isinstance(model, GaussianMixture) and model.n_continuous == 1):
        raise ValueError("type: the naive kernel needs a 1-D Gaussian mixture")
    return params


# The batch runner of each kernel that steps its chains in lockstep, which
# takes (inits, params, model, n_burn, n_samples, rngs), and the chain
# runner of each kind that runs its chains one at a time, which takes
# (init, params, model, n_burn, n_samples, rng), as ``run_chain`` does.
_BATCH_RUNNERS = {LaplaceKernelParams: run_chain_batch,
                  GeneralParams: run_chain_general_batch}
_CHAIN_RUNNERS = {NaiveParams: run_naive_chain, GibbsParams: run_gibbs_chain}


def _batch_task(args):
    """Run the chains of one worker: the kernels' chains in one lockstep
    batch, the baselines' one after another.  A batch costs about as much
    for a few chains as for one, so a lone chain pays numpy's per-call
    overhead alone: on the 6-site binary target, on a 2-vCPU x86 host,
    about 142 µs per event-driven chain-iteration at 1 chain and 40 at 4
    (README gives more)."""
    params, model, n_burn, n_samples, seed, streams = args
    rngs = [ChainRng(seed, stream) for stream in streams]
    inits = [default_init(model, rng) for rng in rngs]
    if type(params) in _BATCH_RUNNERS:
        return _BATCH_RUNNERS[type(params)](inits, params, model, n_burn,
                                            n_samples, rngs)
    run = _CHAIN_RUNNERS[type(params)]
    return [run(init, params, model, n_burn, n_samples, rng)
            for init, rng in zip(inits, rngs)]


def resolve_threads(requested=None, n_chains: int = 1) -> int:
    """The worker count: ``requested`` (the --threads flag) if given, else
    the core count, capped at the chain count."""
    if requested is None:
        requested = os.cpu_count() or 1
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
    worker count.  The settings ``kernel_kwargs`` (see :func:`kernel_params`)
    are checked before any worker starts.
    """
    global ProcessPoolExecutor
    params = kernel_params(kind, model, kernel_kwargs)
    tasks = [(params, model, n_burn, n_samples, seed, streams)
             for streams in chain_batches(kind, n_chains, threads)]
    if len(tasks) <= 1:
        batches = [_batch_task(t) for t in tasks]
    else:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            batches = list(pool.map(_batch_task, tasks))
    return [out for batch in batches for out in batch]
