"""The fault matrix: what each fault of the product flips among the verdicts
of a full run of configs/reference.cfg at N=24.

Each fault is patched in with monkeypatch, and every configured suite then
runs on fresh resources.  A row pins the ids of the failing checks and the
names of the non-finite constants, which fail their report too, or else the
error the run raises (exit 3 on the command line).  So a change that makes
a fault invisible fails here.  The fault-free row also pins the report
format, each report's check ids and constant names (`REPORTS`).  A fault that no verdict sees stays as a row
that passes; its comment names the ROADMAP item that should make it fail.
Every check id is flipped by some row or listed in `UNFLIPPED`, so a new
check, or a row that starts flipping a listed one, fails here until the
list follows.
Injecting faults to judge the checks is mutation analysis (DeMillo, Lipton
& Sayward, IEEE Computer 11, 1978).
"""

import dataclasses
import math
import os

import pytest

from landau import cli, evolution, kernel, operator, suites, verify
from landau.config import canonical_text, load_config, validate_config
from landau.errors import CrossCheckError, EigenvalueError, QuadratureError

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "configs", "reference.cfg")
NODE = (12, 12, 12)  # a node near the origin of the N=24 grid


def l2_scaled(factor):
    def patch(mp):
        exact = operator.apply_L2

        def scaled(f, engine, coeffs):
            return factor * exact(f, engine, coeffs)

        # L = L1 + L2 reads the operator module's name, the member pass its own
        mp.setattr(operator, "apply_L2", scaled)
        mp.setattr(verify, "apply_L2", scaled)
    return patch


def scalar_weights(c1_factor=1.0, c2_nan=False):
    def patch(mp):
        exact = kernel.compute_scalar_weights

        def faulty(abar, grid):
            c1, c2 = exact(abar, grid)
            if c2_nan:
                c2[NODE] = math.nan
            return c1_factor * c1, c2

        mp.setattr(kernel, "compute_scalar_weights", faulty)
    return patch


def chebyshev_cut(mp):
    mp.setattr(evolution, "CHEBYSHEV_TOL", 1e-8)


def ladder_forcing_negated(mp):
    # the ladder's rungs read tau phi with the wrong sign; the trajectory
    # keeps the right one
    exact = suites.derivative_ladder

    def faulty(f_t, t, kmax, system):
        model = dataclasses.replace(system.model, amplitude=-system.model.amplitude)
        return exact(f_t, t, kmax, evolution.PropagatedSystem(system.ctx, model))

    mp.setattr(suites, "derivative_ladder", faulty)


def recheck_understated(mp):
    exact = verify.recheck_bilinear
    mp.setattr(verify, "recheck_bilinear", lambda members, constants: exact(
        members, {name: 0.8 * value for name, value in constants.items()}))


def recheck_on_first_ensemble(mp):
    # the fresh ensemble is drawn from the first one's seed
    exact = suites.RunResources.ensemble
    mp.setattr(suites.RunResources, "ensemble", lambda self, fresh=False: exact(self))


def nan_member(mp):
    # one node of member 5 of the verification ensemble, not of the fresh
    # one, in every field built of that member
    exact = verify.make_ensemble

    class Faulty(verify.Ensemble):
        def __getitem__(self, i):
            f = super().__getitem__(i)
            if range(len(self))[i] == 5:
                f.values[NODE] = math.nan
            return f

    def faulty(grid, count, seed, *args):
        members = exact(grid, count, seed, *args)
        if seed == 42:  # verify.seed of reference.cfg; the fresh one is 1042
            members = Faulty(**vars(members))
        return members

    mp.setattr(verify, "make_ensemble", faulty)


def nan_convolution_node(mp):
    # a corner node of the delta = 0.5 convolution, outside every shell
    # that a convolution check reads
    exact = verify.gaussian_convolutions

    def faulty(grid, gamma):
        out = list(exact(grid, gamma))
        out[0][0, 0, 0] = math.nan
        return out

    mp.setattr(verify, "gaussian_convolutions", faulty)


def nan_ladder_entry(mp):
    # the third rung the ladder builds gets a NaN node
    exact = suites.derivative_ladder

    class Faulty(evolution.PropagatedSystem):
        rungs = 0

        def apply(self, f, tau):
            lf, gf = super().apply(f, tau)
            Faulty.rungs += 1
            if Faulty.rungs == 3:
                gf[NODE] = math.nan
            return lf, gf

    mp.setattr(suites, "derivative_ladder", lambda f_t, t, kmax, system: exact(
        f_t, t, kmax, Faulty(system.ctx, system.model)))


def nan_kernel_spectrum(mp):
    # one entry of the first kernel table's spectrum, so every application
    # of L is NaN
    exact = suites.make_context

    def faulty(coeffs):
        ctx = exact(coeffs)
        ctx.engine.hats[0][1, 2, 3] = math.nan
        return ctx

    mp.setattr(suites, "make_context", faulty)


def nan_abar_profile(mp):
    # one radius of l_perp, the second of the two profiles, at both radial
    # orders of the abar gate
    exact = kernel._abar_profiles

    def faulty(s_values, params, radial_order, r_max):
        l_par, l_perp = exact(s_values, params, radial_order, r_max)
        l_perp[len(l_perp) // 2] = math.nan
        return l_par, l_perp

    mp.setattr(kernel, "_abar_profiles", faulty)


BILINEAR = {"C2_finite", "C3_finite", "C4_finite", "gradform_cauchy_schwarz",
            "K_L3_finite"}
RECHECK = {"C2_fresh_within_slack", "C3_fresh_within_slack",
           "C4_fresh_within_slack", "eps1_inequality_fresh_margin"}
SMOOTHING = {"fit_max_positive_residual", "root_variation_under_time_doubling"}

# the report format: every report of the run, in the order the suites
# write them, with the ids of its checks and the names of its constants
REPORTS = [
    ("kernel", ["quadratic_null", "row_null", "divergence_closed_form",
                "first_derivative_homogeneity"], []),
    ("coefficients", ["kernel_alpha0_unit_bound", "abar_psd", "c1_nonnegative",
                      "b_table_vs_kernel_derivatives"], ["K_coef"]),
    ("convolution", ["plateau_delta_0.5", "edge_limit_delta_0.5", "origin_positive_delta_0.5",
                     "plateau_delta_1", "edge_limit_delta_1", "origin_positive_delta_1"],
     ["K_conv"]),
    ("coercivity", ["C1_positive"], ["C1", "C1_sample_min"]),
    ("bilinear", ["C2_finite", "C3_finite", "C4_finite", "gradform_cauchy_schwarz"],
     ["C2", "C3", "C4", "C3_one_sided", "C_eps1", "C_eps2", "K_gradform"]),
    ("l3_embedding", ["K_L3_finite"], ["K_L3"]),
    ("bilinear_recheck", ["C2_fresh_within_slack", "C3_fresh_within_slack",
                          "C4_fresh_within_slack", "eps1_inequality_fresh_margin"], []),
    ("energy", ["residual_dt_slope", "energy_log_lf_gap"],
     ["C5", "C6", "energy_identity_residual", "A_g", "spectral_radius",
      "spectrum_lower_edge"]),
    ("smoothing", ["fit_max_positive_residual", "root_variation_under_time_doubling"],
     ["C", "B"]),
]

MATRIX = [
    pytest.param(None, set(), set(), id="none"),
    pytest.param(l2_scaled(0.0), {"C3_finite", "C4_finite",
                                  "fit_max_positive_residual"}, set(), id="L2x0"),
    pytest.param(l2_scaled(-1.0), {"fit_max_positive_residual"}, set(), id="L2x-1"),
    # blind: item 3, the invariants and the exact spectrum of L
    pytest.param(l2_scaled(1.1), set(), set(), id="L2x1.1"),
    # blind: item 3, once item 4's differences stop hiding it
    pytest.param(scalar_weights(c1_factor=1.05), set(), set(), id="c1x1.05"),
    # blind: item 1, the ladder at T against its last segment in two halves;
    # tier-1's diagonal twin sees it (test_evolution.py,
    # test_diagonal_twin_sees_chebyshev_cut)
    pytest.param(chebyshev_cut, set(), set(), id="chebyshev-cut-1e-8"),
    pytest.param(ladder_forcing_negated, SMOOTHING, set(), id="ladder-forcing-sign"),
    pytest.param(recheck_understated, RECHECK, set(), id="recheck-constants-x0.8"),
    # blind: item 6; the maxima are probe pairs, the same in both ensembles
    pytest.param(recheck_on_first_ensemble, set(), set(), id="recheck-on-first-ensemble"),
    pytest.param(nan_member, BILINEAR | RECHECK | {"C1_positive"},
                 {"C1", "C1_sample_min", "C2", "C3", "C3_one_sided", "C4",
                  "C_eps1", "C_eps2", "K_gradform", "K_L3"}, id="nan-member"),
    pytest.param(nan_convolution_node, set(), {"K_conv"}, id="nan-convolution-node"),
    pytest.param(scalar_weights(c2_nan=True), CrossCheckError, None, id="nan-c2-node"),
    pytest.param(nan_ladder_entry, SMOOTHING, {"C", "B"}, id="nan-ladder-entry"),
    pytest.param(nan_kernel_spectrum, EigenvalueError, None, id="nan-kernel-spectrum"),
    pytest.param(nan_abar_profile, QuadratureError, None, id="nan-abar-profile"),
]

# the check ids that no row flips yet, each with the ROADMAP item that
# would add its row
UNFLIPPED = {
    # item 23: kernel mutants; its record holds one that flips
    # first_derivative_homogeneity alone
    "quadratic_null", "row_null", "divergence_closed_form", "first_derivative_homogeneity",
    # item 23: mutants of abar and the scalar weights
    "kernel_alpha0_unit_bound", "abar_psd", "c1_nonnegative",
    # item 16: the b tables' Nyquist planes
    "b_table_vs_kernel_derivatives",
    # item 9: the lattice convolution against its radial reference
    "plateau_delta_0.5", "edge_limit_delta_0.5", "origin_positive_delta_0.5",
    "plateau_delta_1", "edge_limit_delta_1", "origin_positive_delta_1",
    # item 23: its record holds mutants that flip each of these alone
    "residual_dt_slope", "energy_log_lf_gap",
}


@pytest.fixture(scope="module")
def reference_n24():
    return validate_config(dataclasses.replace(load_config(REFERENCE), grid_N=24))


@pytest.mark.parametrize("fault, failing, non_finite", MATRIX)
def test_fault_matrix(reference_n24, monkeypatch, fault, failing, non_finite):
    if fault is not None:
        fault(monkeypatch)
    res = suites.RunResources(reference_n24, log=None)
    if isinstance(failing, type):
        with pytest.raises(failing):
            suites.run_suites(reference_n24.verify_suites, res)
        return
    reports = suites.run_suites(reference_n24.verify_suites, res)
    if fault is None:
        assert [(rep.suite, [c["id"] for c in rep.checks], [c["name"] for c in rep.constants])
                for rep in reports] == REPORTS
    checks = {cid for rep in reports for cid in rep.failures[0]}
    constants = {name for rep in reports for name in rep.failures[1]}
    assert (checks, constants) == (failing, non_finite)
    assert all(rep.passed for rep in reports) == (not failing and not non_finite)


@pytest.mark.parametrize("fault, error", [(nan_kernel_spectrum, "EigenvalueError"),
                                          (nan_abar_profile, "QuadratureError")])
def test_non_finite_fault_exit_code(reference_n24, monkeypatch, tmp_path, capsys,
                                    fault, error):
    # the energy suite's run stops at the judge of each NaN: exit 3, with
    # the error named on stderr
    fault(monkeypatch)
    cfg = dataclasses.replace(reference_n24, io_out_dir=str(tmp_path / "out"))
    path = tmp_path / "run.cfg"
    path.write_text(canonical_text(cfg))
    assert cli.main(["verify", "--config", str(path), "--suite", "energy"]) == 3
    assert f"[{error}]" in capsys.readouterr().err


def test_every_check_is_flipped_or_listed():
    # every check id of the report format is flipped by some row, or named
    # in UNFLIPPED with the item that would add its row, and not both
    flipped = set().union(*(row.values[1] for row in MATRIX
                            if not isinstance(row.values[1], type)))
    assert {cid for _, checks, _ in REPORTS for cid in checks} == flipped | UNFLIPPED
    assert not flipped & UNFLIPPED
