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
_CSV_BYTES = ("tests/test_cli.py::TestSamplesCsv"
              "::test_bytes_equal_the_per_row_writer")
_LAPLACE = "tests/test_kernels_laplace.py"
_NOISE = f"{_LAPLACE}::TestNoise::test_matches_per_chain_reference"
_MODELS = "tests/test_models.py"
_DIAGNOSTICS = "tests/test_diagnostics.py"


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
    # M3: a clock's speed loses its factor beta.  The lockstep step and
    # the oracle both take it from KineticEnergy.kprime, so a closed form
    # must see it.
    "M3_speed_without_beta": Mutant(
        "core.py", "np.sign(p) * self.beta * np.abs(p)",
        "np.sign(p) * np.abs(p)",
        (f"{_GENERAL}::TestInitialHitTime::test_quadratic_energy_speed",)),
    "metropolis_draw_for_divergent_rows": Mutant(
        "kernels_general.py", "rng.uniform() if run else 1.0",
        "rng.uniform()",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[stuck_3_value_sites]",)),
    "wide_site_draws_for_rows_without_event": Mutant(
        "kernels_general.py", "event & (width > 2)", "width > 2",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[mixed_widths]",)),
    # The site move of the trajectory both lockstep kernels run
    # (core.Trajectory.move): only live rows move, a refraction pays its
    # cost out of the site's energy, a stuck row is done, and a proposal is
    # skipped only when every live row is sure to reject it.
    "move_without_live_mask": Mutant(
        "core.py", "moved = live & (left > 0.0)", "moved = left > 0.0",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[binary_T_2.5_tau]",
         f"{_LOCKSTEP}::test_each_chain_equals_the_loop"
         "[mixed_widths_sorted]")),
    "refraction_keeps_energy": Mutant(
        "core.py", "k.put(at, np.where(moved, left, energy))",
        "k.put(at, energy)",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[binary6_T_tau]",)),
    "stuck_rows_go_on": Mutant(
        "core.py", "self.diverge(stuck)", "pass",
        (f"{_LOCKSTEP}::test_each_chain_equals_the_loop[stuck_3_value_sites]",
         f"{_LAPLACE}::TestStuckChain")),
    "skip_ignores_live": Mutant(
        "core.py", ".all(where=live)", ".all()",
        ("tests/test_core.py::TestTrajectory"
         "::test_sure_rejection_is_skipped",)),
    # The rest of the trajectory: a refreshed gradient is counted, and a
    # moved row's gradient is taken again.
    "fresh_gradient_not_counted": Mutant(
        "core.py", "self.counts.append(fresh)", "pass",
        (f"{_GENERAL}::TestGradientReuse::test_shipped_path_equals_the_oracle",
         f"{_LAPLACE}::TestGradientReuse::test_count_is_calls_alone")),
    "moved_rows_not_marked_stale": Mutant(
        "core.py",
        "self.stale = moved if self.stale is None else self.stale | moved",
        "pass",
        (f"{_GENERAL}::TestGradientReuse::test_shipped_path_equals_the_oracle",)),
    "diverging_refraction_counted": Mutant(
        "kernels_general.py", "accepts[-1] = acc & ~diverged",
        "accepts[-1] = acc",
        (f"{_GENERAL}::TestNonFiniteRefraction"
         "::test_shipped_path_equals_the_oracle[inf-1.0]",)),
    # Off beta 1: a clock's next time is tau / |v| after its event either
    # way, so the direction shows in its end position and momentum.
    "reflection_keeps_direction": Mutant(
        "kernels_general.py", "turned = -w", "turned = w",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[beta2_kept]",)),
    "fast_clock_not_stopped": Mutant(
        "kernels_general.py", "runs & (np.abs(v) * T <= cap)", "runs",
        (f"{_LOCKSTEP}::test_event_cap_steps_and_stats[beta2_kept]",)),
    # At beta 0.5 an infinite energy gives a momentum whose clock stands
    # still: it must diverge, not run.
    "stopped_clock_runs": Mutant(
        "kernels_general.py", "runs = np.isfinite(v) & (v != 0.0)",
        "runs = True",
        (f"{_GENERAL}::TestNonFiniteRefraction"
         "::test_shipped_path_equals_the_oracle[inf-0.5]",)),
    # A flip from value 1 priced as one from value 0.
    "flip_cost_sign_from_1": Mutant(
        "core.py", "_FLIP_SIGNS = np.array([[-1.0, 1.0], [1.0, -1.0]])",
        "_FLIP_SIGNS = np.array([[-1.0, 1.0], [-1.0, 1.0]])",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[binary6_T_tau]",
         "tests/test_core.py::TestFlipCosts")),
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
    # At beta 1 a kept clock's end momentum turns at each reflection only.
    "every_event_reflects": Mutant(
        "kernels_general.py", "at[ev > moved]", "at[ev]",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[kept_positions]",)),
    "end_position_from_the_other_boundary": Mutant(
        "kernels_general.py", "np.where(w > 0.0, 0.0, tau)",
        "np.where(w > 0.0, tau, 0.0)",
        (f"{_LOCKSTEP}::test_steps_and_stats_equal_the_loop[kept_positions]",)),
    # The Laplace kernel's draws: the Dirichlet gaps' last part folded into
    # the first, rounds longer than epsilon subdivided, the draw order, and
    # one uniform per proposal at a site with more than 2 values.
    "dirichlet_fold_dropped": Mutant(
        "kernels_laplace.py", "phi[:, 0] += phi[:, n_sites]", "pass",
        (f"{_LAPLACE}::TestStepSchedule::test_matches_line_by_line_oracle",)),
    "rounds_not_subdivided": Mutant(
        "kernels_laplace.py", "np.ceil(eta / params.epsilon)",
        "np.floor(eta / params.epsilon)",
        (f"{_LAPLACE}::TestStepSchedule::test_forced_invariants",)),
    "momenta_drawn_before_site_energies": Mutant(
        "kernels_laplace.py",
        "        if nd:\n            rng.exponential(out=k[r])\n"
        "        if nc:\n            rng.normal(out=p[r])\n",
        "        if nc:\n            rng.normal(out=p[r])\n"
        "        if nd:\n            rng.exponential(out=k[r])\n",
        (_NOISE,)),
    "binary_sites_draw_uniforms": Mutant(
        "kernels_laplace.py", "width.T > 2", "width.T > 1",
        (f"{_NOISE}[mixed]",)),
    # The shared trajectory again: a moved row's gradient is taken afresh,
    # a done row takes zero-length steps, so it counts the gradients of the
    # rounds it ran, and a rejected chain carries its start potential.
    "moved_rows_keep_their_gradient": Mutant(
        "core.py", "self.g[r] = self.rm.grad_q(self.xs[r], self.qs[r])",
        "pass",
        (f"{_LAPLACE}::TestGradientReuse::test_count_is_calls_alone",)),
    "stuck_rows_count_every_round": Mutant(
        "core.py", "n, lo = np.where(self.ok, n, 0), None", "pass",
        (f"{_LAPLACE}::TestStuckChain",)),
    "rejected_chain_carries_the_end_potential": Mutant(
        "core.py", "np.where(accepted, u_end, self.potential)", "u_end",
        (f"{_LAPLACE}::TestBatchIsolation"
         "::test_run_carries_the_start_potential",)),
    # The models' gradients and site conditionals: a mixture's gradient
    # points away from its component's mean, a BLR column's value 1 adds
    # the column, and a binary site's field enters its local field.
    "gmm_grad_q_sign": Mutant(
        "models/gmm.py",
        "return (q - self.spec.means.take(z, 0)) * self._inv_var",
        "return (self.spec.means.take(z, 0) - q) * self._inv_var",
        (f"{_MODELS}::TestGradients",)),
    "blr_column_toggle_subtracts": Mutant(
        "models/blr.py", "np.add(both[:, 0], col, out=both[:, 1])",
        "np.subtract(both[:, 0], col, out=both[:, 1])",
        (f"{_MODELS}::TestSiteConditionals",
         f"{_MODELS}::TestBlr"
         "::test_in_place_methods_keep_the_reference_bits")),
    "binary_field_subtracted": Mutant(
        "models/binary.py", "h += field", "h -= field",
        (f"{_MODELS}::TestSiteConditionals",)),
    # The ESS: autocorrelations summed in lag pairs, and an odd chain's
    # halves split around its middle draw.
    "ess_without_pair_sums": Mutant(
        "diagnostics.py", "pairs = rho[0::2] + rho[1::2]",
        "pairs = rho[0::2]",
        (f"{_DIAGNOSTICS}::TestEss",
         f"{_DIAGNOSTICS}::TestEssMatchesReference")),
    "ess_split_keeps_the_middle_draw": Mutant(
        "diagnostics.py", "arr[:, -n:]", "arr[:, n:2 * n]",
        (f"{_DIAGNOSTICS}::TestEss",
         f"{_DIAGNOSTICS}::TestEssMatchesReference")),
    # A Laplace worker's batch holds at least LAPLACE_MIN_BATCH chains.
    "laplace_batches_without_floor": Mutant(
        "runner.py", "max(1, n_chains // LAPLACE_MIN_BATCH)",
        "max(1, n_chains)", ("tests/test_cli.py::TestThreads",)),
    # The samples CSV's block writer: coordinates printed as integers, and
    # iteration numbers counted from each block rather than the chain.
    "csv_coordinates_as_integers": Mutant(
        "cli.py", '["%.17g"] * model.n_continuous',
        '["%d"] * model.n_continuous', (_CSV_BYTES,)),
    "csv_iter_restarts_per_block": Mutant(
        "cli.py", "np.arange(lo, hi)", "np.arange(hi - lo)", (_CSV_BYTES,)),
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
