"""Check that the tests kill each mutant of ``MUTANTS``.

    python3 tools/mutants.py [NAME ...]

A mutant replaces one exact snippet of a file under ``src/mixedhmc`` with
another.  Each is applied to a copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and only its listed tests run
there, with single-threaded BLAS; the mutant is killed when they fail.
Prints ``<name> killed`` or ``<name> SURVIVED`` per mutant (all of them by
default).  Exits 1 if a mutant survives, 2 if its snippet does not occur
exactly once or its tests cannot be collected or run past ``TIMEOUT_S``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

TIMEOUT_S = 300
_GENERAL = "tests/test_kernels_general.py"
_LOCKSTEP = f"{_GENERAL}::TestLockstepMatchesLoop"


class Mutant(NamedTuple):
    file: str          # under src/mixedhmc
    snippet: str       # occurs exactly once in the file
    replacement: str
    tests: tuple       # node IDs, at least one of which must fail


MUTANTS = {
    # M1: the continuous kinetic energy multiplies by the mass.
    "M1_mass_multiplies": Mutant(
        "core.py", "p if mass is None else p / mass",
        "p if mass is None else p * mass",
        ("tests/test_kernels_laplace.py::TestLaplaceStep"
         "::test_mass_matrix_conserves_energy",)),
    # M3: a refracted clock's speed loses its factor beta.
    "M3_speed_without_beta": Mutant(
        "kernels_general.py", "beta * abs(p) ** (beta - 1.0)",
        "abs(p) ** (beta - 1.0)",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[beta2]",)),
    "metropolis_draw_for_divergent_rows": Mutant(
        "kernels_general.py", "rng.uniform() if run else 1.0",
        "rng.uniform()",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[stuck_3_value_sites]",)),
    "wide_site_draws_for_rows_without_event": Mutant(
        "kernels_general.py", "event & (width > 2)", "width > 2",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[mixed_widths]",)),
    "stuck_rows_go_on": Mutant(
        "kernels_general.py",
        "diverged = stuck if diverged is None else diverged | stuck", "pass",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[stuck_3_value_sites]",)),
    "fresh_gradient_not_counted": Mutant(
        "kernels_general.py", "n_grad += counts + fresh", "n_grad += counts",
        (f"{_GENERAL}::TestGradientReuse::test_shipped_path_equals_the_oracle",)),
    "diverging_refraction_counted": Mutant(
        "kernels_general.py", "accepts[-1] = acc & ~diverged",
        "accepts[-1] = acc",
        (f"{_GENERAL}::TestNonFiniteRefraction"
         "::test_shipped_path_equals_the_oracle[inf-1.0]",)),
    # Off beta 1: a clock's next time is tau / |v| after its event either
    # way, so the direction shows in its end position and momentum.
    "reflection_keeps_direction": Mutant(
        "kernels_general.py", "p, w = -p, -w", "p, w = p, w",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[beta2_kept]",)),
    "fast_clock_not_stopped": Mutant(
        "kernels_general.py", "if not _runs(p, w) or w * T > cap:",
        "if not _runs(p, w):",
        (f"{_LOCKSTEP}::test_event_cap_steps_and_stats[beta2_kept]",)),
    "move_without_live_mask": Mutant(
        "core.py", "moved = live & (left > 0.0)", "moved = left > 0.0",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[binary_T_2.5_tau]",
         f"{_LOCKSTEP}::test_each_chain_equals_the_loop"
         "[mixed_widths_sorted]")),
    "refraction_keeps_energy": Mutant(
        "core.py", "k.put(at, np.where(moved, left, energy))",
        "k.put(at, energy)",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[binary6_T_tau]",)),
    # The beta 1 schedule: equal times go to the lower site, a time equal
    # to T fires, and each lap adds tau; a kept clock ends from the boundary
    # that its velocity leaves.
    "ties_to_the_higher_site": Mutant(
        "kernels_general.py", 'order = times.argsort(axis=0, kind="stable")',
        'order = len(times) - 1 - times[::-1].argsort(axis=0, kind="stable")',
        (f"{_LOCKSTEP}::test_clocks_tied_at_the_end_time",
         f"{_LOCKSTEP}::test_close_hit_times_take_the_per_round_loop[tied]")),
    "hit_at_T_does_not_fire": Mutant(
        "kernels_general.py", "fires = hs <= T", "fires = hs < T",
        (f"{_LOCKSTEP}::test_clocks_tied_at_the_end_time",
         f"{_LOCKSTEP}::test_close_hit_times_take_the_per_round_loop[at_T]")),
    "lap_without_tau": Mutant(
        "kernels_general.py", "laps.append(laps[-1] + tau)",
        "laps.append(laps[-1])",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[binary_T_2.5_tau]",)),
    "end_position_from_the_other_boundary": Mutant(
        "kernels_general.py", "np.where(w > 0.0, 0.0, tau)",
        "np.where(w > 0.0, tau, 0.0)",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[kept_positions]",)),
}


def snippet_count(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's snippet occurs in its file under ``root``."""
    text = (root / "src" / "mixedhmc" / mutant.file).read_text()
    return text.count(mutant.snippet)


def run_mutant(name: str, work: Path) -> str:
    """``killed``, ``SURVIVED``, or an error: apply mutant ``name`` to a
    fresh copy under ``work`` and run its tests there."""
    mutant = MUTANTS[name]
    if snippet_count(mutant) != 1:
        return "error: snippet does not occur exactly once"
    copy = work / name
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    path = copy / "src" / "mixedhmc" / mutant.file
    path.write_text(path.read_text().replace(mutant.snippet,
                                             mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.tests], cwd=copy, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"error: its tests ran past {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode == 1:
        return "killed"
    return f"error: pytest exited with {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"one of {', '.join(MUTANTS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutant {unknown[0]!r}")
    code = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names or MUTANTS:
            outcome = run_mutant(name, Path(tmp))
            print(f"{name} {outcome}", flush=True)
            if outcome == "SURVIVED":
                code = max(code, 1)
            elif outcome != "killed":
                code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
