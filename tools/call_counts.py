"""Print the Python and C calls that one batch-iteration of each config
makes, counts that do not depend on the host.

    python3 tools/call_counts.py [NAME ...] [--src DIR]

For each named config of ``CONFIGS`` (all of them by default) it counts the
``call`` and ``c_call`` events that ``sys.setprofile`` sees during
``runner.run_chains(kind, model, settings, C, 0, n, 5, threads=1)`` at
n = 60 and at n = 20 iterations, after one uncounted run at n = 20 that
takes the imports and first-call caches, and prints ``<name> <python calls>
<c calls>``, each the difference of the two counts divided by 40: the calls
of one iteration of the batch of C chains, without the run's set-up.  The
counts run in a child process, one per config, with the package imported
from ``DIR`` (default: this checkout's ``src/``) and single-threaded BLAS.
Two versions of the sampler compare by one run of each, e.g.

    diff <(python3 tools/call_counts.py) \\
         <(python3 tools/call_counts.py --src ../other/src)

What the counts miss: operators on arrays (``a + b``, ``a[i]``, ``a &=
b``) dispatch from bytecode, not through a call, so neither event sees
them, however much they cost; and a generator's resume counts as a
``call``, as each one enters the generator's frame again.  A ``c_call`` is
any builtin called from Python, cheap ones (``len``, ``int``) too.

Exits 2 if a run fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from samples_hash import _run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_BINARY6 = {"type": "binary", "n_sites": 6, "seed": 2026}
_BINARY6_KERNEL = {"type": "general", "T": 1.0, "beta": 1.0, "tau": 1.0,
                   "integrator_eps": 0.1}

# name: (model section, kernel section, chains C).  The benchmark's three
# workloads, a lone gmm1d Laplace chain and the event-driven kernel's
# round-by-round mode off beta 1, which no workload runs.
CONFIGS = {
    "gmm24_laplace": (
        {"type": "gmm24"},
        {"type": "laplace", "epsilon": 1.7, "T": 136.0, "L": 80, "n_D": 1},
        48),
    "blr_laplace": (
        {"type": "blr", "seed": 0, "n": 100, "d": 20},
        {"type": "laplace", "epsilon": 0.15, "T": 3.0, "L": 20, "n_D": 1},
        8),
    "binary6_general": (_BINARY6, _BINARY6_KERNEL, 4),
    "gmm1d_laplace_c1": (
        {"type": "gmm1d"},
        {"type": "laplace", "epsilon": 0.5, "T": 4.5, "L": 18, "n_D": 1}, 1),
    "binary6_beta2_c4": (_BINARY6, dict(_BINARY6_KERNEL, beta=2.0), 4),
}


def counts(name: str) -> str:
    """``<python calls> <c calls>`` per batch-iteration of config
    ``name``.  It imports the package, so :func:`main` calls it in a child
    process."""
    from mixedhmc.cli import build_kernel, build_model
    from mixedhmc.runner import run_chains

    model_section, kernel_section, chains = CONFIGS[name]
    model = build_model(model_section)
    kind, params = build_kernel(kernel_section, model)

    def run(n):
        seen = [0, 0]

        def profile(frame, event, arg):
            if event == "call":
                seen[0] += 1
            elif event == "c_call":
                seen[1] += 1
        sys.setprofile(profile)
        try:
            run_chains(kind, model, params, chains, 0, n, 5, threads=1)
        finally:
            sys.setprofile(None)
        return seen

    run(20)
    (py_60, c_60), (py_20, c_20) = run(60), run(20)
    return f"{(py_60 - py_20) / 40:.10g} {(c_60 - c_20) / 40:.10g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"one of {', '.join(CONFIGS)} (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the mixedhmc package")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in CONFIGS]
    if unknown:
        parser.error(f"unknown config {unknown[0]!r}")
    for name in args.names or CONFIGS:
        try:
            out = _run(["-c", f"import sys; sys.path.insert(0, "
                        f"{str(HERE)!r}); import call_counts; "
                        f"print(call_counts.counts({name!r}))"],
                       args.src.resolve(), f"{name}'s counts")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{name} {out.strip()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
