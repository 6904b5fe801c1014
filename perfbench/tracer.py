"""Per-layer spans for the traced benchmark run, installed from outside.

``install`` replaces public functions and methods of ``mixedhmc`` with
wrappers that count calls and time them; the package itself is not edited.
Each span's self time is its duration minus the time of the spans it
called, so the layers' self times add up to the traced wall time (less the
code no span covers).  Spans are kept in memory and written once at exit.
"""

from __future__ import annotations

import functools
import time

# Methods of the models the benchmark runs; each is one layer for all models.
MODEL_METHODS = ("grad_q", "potential", "site_cond_neglogp")
RNG_METHODS = ("uniform", "normal", "exponential", "gamma", "categorical",
               "permutation", "dirichlet_ones")


class Tracer:
    """Call count, self time and total time per span name."""

    def __init__(self):
        self.spans = {}            # name -> [calls, self_s, total_s]
        self._child_time = []      # one accumulator per open span
        self.discrete_accepts = 0  # summed from the kernels' StepStats

    def wrap(self, name, fn):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = child_time.pop()
                record[0] += 1
                record[1] += duration - children
                record[2] += duration
                if child_time:
                    child_time[-1] += duration
        return traced

    def count_accepts(self, fn, stats_index):
        """Wrap a kernel step so the accepts in its StepStats are summed."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.discrete_accepts += result[stats_index].n_discrete_accepts
            return result
        return counted

    def to_dict(self):
        return {"spans": self.spans, "discrete_accepts": self.discrete_accepts}


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports on."""
    from mixedhmc import cli, diagnostics, kernels_general, kernels_laplace
    from mixedhmc.models import BinaryQuadratic, BlrVarsel, GaussianMixture
    from mixedhmc.rng import ChainRng

    for cls in (GaussianMixture, BlrVarsel, BinaryQuadratic):
        for name in MODEL_METHODS:
            setattr(cls, name, tracer.wrap(f"models.{name}", getattr(cls, name)))
    for name in RNG_METHODS:
        setattr(ChainRng, name, tracer.wrap("rng", getattr(ChainRng, name)))

    # The kernels bind these names at import, so they are replaced where used.
    for module in (kernels_laplace, kernels_general):
        module.propose_and_delta = tracer.wrap(
            "core.propose_and_delta", module.propose_and_delta)
    kernels_laplace.get_step_sizes_n_steps = tracer.wrap(
        "kernels_laplace.get_step_sizes_n_steps",
        kernels_laplace.get_step_sizes_n_steps)
    kernels_laplace.laplace_step = tracer.count_accepts(tracer.wrap(
        "kernels_laplace.laplace_step", kernels_laplace.laplace_step), 1)
    kernels_general.general_step = tracer.count_accepts(tracer.wrap(
        "kernels_general.general_step", kernels_general.general_step), 3)

    for name in ("build_model", "build_summary", "write_samples_csv"):
        setattr(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name)))
    diagnostics.ess = tracer.wrap("diagnostics.ess", diagnostics.ess)
    cli.ess = diagnostics.ess
    cli.ks_two_sample = tracer.wrap("diagnostics.ks_two_sample",
                                    cli.ks_two_sample)
