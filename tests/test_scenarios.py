import math

import numpy as np
import pytest

from laue_lab.exterior import Signature
from laue_lab.checkers import classical_laue_report
from laue_lab.cli import run_scenario_suite
from laue_lab.fields import MetricField, divergence, stationarity_residual
from laue_lab.poincare import standard_boost
from laue_lab.quadrature import four_momentum, laue_integrals
from laue_lab.scenarios import (
    SCENARIO_NAMES,
    build,
    virial_check,
)

SIG = Signature.mostly_minus(4)
ETA = MetricField.minkowski(4)
RNG = np.random.default_rng(31337)


# --- builders ---


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        build("black_body_cavity")
    with pytest.raises(ValueError, match="unknown parameters"):
        build("gaussian_dust", charge=2.0)


FLOAT_PARAMS = [
    ("gaussian_dust", "rho0"), ("gaussian_dust", "sigma"),
    *[(shell, key) for shell in ("coulomb_shell", "completed_shell")
      for key in ("q", "R", "r_out", "mollify")],
    ("uniform_field_box", "E0"), ("uniform_field_box", "tilt"),
    ("moving_dust", "rho0"), ("moving_dust", "sigma"), ("moving_dust", "v"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan", "inf"])
@pytest.mark.parametrize("name, key", FLOAT_PARAMS)
def test_non_finite_parameter_rejected(name, key, value):
    with pytest.raises(ValueError, match=f"{name} parameter {key} must be a finite number"):
        build(name, **{key: value})


@pytest.mark.parametrize("box", [(1.0, math.nan, 1.0), (1.0, 1.0, math.inf), "1,nan,1", "1,2"])
def test_non_finite_or_short_box_rejected(box):
    with pytest.raises(ValueError, match="box must be 3 finite numbers"):
        build("uniform_field_box", box=box)


@pytest.mark.parametrize("rho0", [0.0, -1.0])
def test_moving_dust_needs_positive_density(rho0):
    with pytest.raises(ValueError, match="positive rho0"):
        build("moving_dust", rho0=rho0)


def test_parameters_typed_from_defaults():
    # text parses as a config file's would; a tuple default takes a comma list
    _, spec = build("uniform_field_box", E0="2", box="1, 2, 3")
    assert spec.analytic["P0"] == pytest.approx(0.5 * 4.0 * 6.0, rel=1e-15)
    _, spec = build("coulomb_shell", q=1, R="2")
    assert spec.analytic["P0"] == pytest.approx(1.0 / (8.0 * math.pi) * (0.5 - 1.0 / 2e3))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_builtin_tensor_is_symmetric(name):
    T, spec = build(name)
    pts = RNG.uniform(-2.0, 2.0, (200, 4))
    Tv = T(pts)
    assert np.max(np.abs(Tv - np.swapaxes(Tv, -1, -2))) == 0.0


def test_coulomb_shell_energy_radial_oracle():
    T, spec = build("coulomb_shell", q=1.0, R=1.0)
    patch = spec.slice_patch(SIG)
    P = four_momentum(T, patch)
    # radial oracle: q^2/(8 pi) (1/R - 1/R_out)
    exact = 1.0 / (8.0 * math.pi) * (1.0 - 1e-3)
    assert P[0] == pytest.approx(exact, rel=1e-4)
    assert np.max(np.abs(P[1:])) < 1e-15 * (1 + abs(P[0]))


def test_coulomb_shell_trace_identity_pointwise():
    T, _ = build("coulomb_shell")
    pts = RNG.uniform(-3.0, 3.0, (300, 4))
    Tv = T(pts)
    trace_spatial = Tv[..., 1, 1] + Tv[..., 2, 2] + Tv[..., 3, 3]
    assert np.max(np.abs(Tv[..., 0, 0] - trace_spatial)) < 1e-15


def test_coulomb_shell_stress_integral_is_third_of_energy():
    T, spec = build("coulomb_shell")
    patch = spec.slice_patch(SIG)
    P0 = four_momentum(T, patch)[0]
    out = laue_integrals(T, patch)
    # individual moments carry the cos(theta)-midpoint O(N^-2) error;
    # their sum is the energy integral exactly
    for key in ("T11", "T22", "T33"):
        assert abs(out[key] - P0 / 3.0) < 1e-3 * P0
    assert out["T11"] + out["T22"] + out["T33"] == pytest.approx(P0, rel=1e-12)
    for key in ("T01", "T02", "T03", "T12", "T13", "T23"):
        assert abs(out[key]) < 1e-12 * P0


def test_completed_shell_stress_integrals_cancel():
    T, spec = build("completed_shell")
    patch = spec.slice_patch(SIG)
    P0 = four_momentum(T, patch)[0]
    out = laue_integrals(T, patch)
    assert max(abs(v) for v in out.values()) < 1e-3 * P0


def test_completed_shell_stress_converges_to_its_closed_form():
    # the field stops at r_out and leaves a traction there: each diagonal
    # stress integral is -q^2 / (24 pi r_out), not 0, and the quadrature
    # error against that value falls 4x per doubling of the grid scale
    T, spec = build("completed_shell")
    closed = spec.analytic["stress_11"]
    assert closed == pytest.approx(-1.0 / (24.0 * math.pi * 1e3), rel=1e-15)
    errors = {}
    for scale in (1.0, 2.0):
        patch = spec.slice_patch(SIG, scale=scale)
        P0 = four_momentum(T, patch)[0]
        out = laue_integrals(T, patch)
        errors[scale] = [abs(out[key] - closed) / P0 for key in ("T11", "T22", "T33")]
    assert max(errors[2.0]) < 1e-4
    for coarse, fine in zip(errors[1.0], errors[2.0]):
        assert 3.0 <= coarse / fine <= 5.0


def test_completed_shell_conserved_across_surface():
    # the interior tension restores radial stress continuity; the bare shell
    # keeps a finite jump
    T_bare, _ = build("coulomb_shell", q=1.0, R=1.0)
    T_full, _ = build("completed_shell", q=1.0, R=1.0)
    x_in = np.array([0.0, 0.999999, 0.0, 0.0])
    x_out = np.array([0.0, 1.000001, 0.0, 0.0])
    rr = lambda T, x: T(x[None])[0, 1, 1]
    assert abs(rr(T_full, x_in) - rr(T_full, x_out)) < 1e-4
    assert abs(rr(T_bare, x_in) - rr(T_bare, x_out)) > 1e-3


def test_coulomb_divergence_off_shell_and_on_shell():
    T, _ = build("coulomb_shell", q=1.0, R=1.0)
    # off the shell: smooth vacuum stress balance, fd residual O(h^2)
    pts = np.zeros((8, 4))
    pts[:, 1] = 2.0  # r = 2R
    pts[:, 2] = 0.3
    res_h = np.max(np.abs(divergence(T, ETA, 2e-3)(pts)))
    res_h2 = np.max(np.abs(divergence(T, ETA, 1e-3)(pts)))
    assert res_h < 1e-4
    assert 2.5 < res_h / res_h2 < 6.0
    # on the shell the sharp field is not conserved: fd blows up like 1/h
    on_shell = np.array([[0.0, 1.0, 0.0, 0.0]])
    res_shell = np.max(np.abs(divergence(T, ETA, 1e-3)(on_shell)))
    assert res_shell > 1.0


def test_gaussian_dust_analytic_momentum():
    T, spec = build("gaussian_dust", rho0=2.0, sigma=0.5)
    patch = spec.slice_patch(SIG)
    P = four_momentum(T, patch)
    assert P[0] == pytest.approx(spec.analytic["P0"], rel=1e-6)
    assert spec.analytic["P0"] == pytest.approx(2.0 * math.pi**1.5 * 0.125)


def test_moving_dust_is_not_stationary():
    T, spec = build("moving_dust", v=0.5)
    assert not spec.stationary
    pts = RNG.uniform(-1, 1, (50, 4))
    assert stationarity_residual(T, 1e-3, pts) > 1e-3


def test_uniform_field_box_stress():
    T, spec = build("uniform_field_box", E0=1.0, tilt=math.pi / 4, box=(1.0, 1.0, 1.0))
    patch = spec.slice_patch(SIG)
    out = laue_integrals(T, patch)
    assert out["T12"] == pytest.approx(-0.5, rel=1e-12)
    assert out["T33"] == pytest.approx(0.5, rel=1e-12)
    assert out["T11"] == pytest.approx(0.0, abs=1e-14)


def test_adapted_patch_boosted_shell_energy():
    # direct quadrature of the boosted shell over the fixed slice, nodes
    # adapted to the contracted geometry
    from laue_lab.fields import boost_emt_analytic

    beta = 0.6
    gamma = 1.0 / math.sqrt(1 - beta**2)
    T, spec = build("coulomb_shell")
    P0 = four_momentum(T, spec.slice_patch(SIG))[0]
    patch_b = spec.adapted_slice_patch(standard_boost(1, beta), SIG)
    Pb = four_momentum(boost_emt_analytic(T, beta), patch_b)
    assert abs(Pb[0] - gamma * (1 + beta**2 / 3.0) * P0) < 1e-3 * P0
    assert abs(Pb[1] - gamma * beta * (4.0 / 3.0) * P0) < 1e-3 * P0


def test_scenario_quadrature_deterministic():
    T, spec = build("coulomb_shell")
    patch = spec.slice_patch(SIG)
    a = four_momentum(T, patch)
    b = four_momentum(T, spec.slice_patch(SIG))
    assert np.array_equal(a, b)


# --- weak-field coupling ---


def scenario_rows(name, params=None, scale=1.0):
    """The scenario command's rows, name -> value."""
    return {r.name: r.value for r in run_scenario_suite(name, params, scale)}


def test_tolman_passive_mass_dust():
    out = scenario_rows("gaussian_dust")
    assert out["passive_mass"] == pytest.approx(out["P0"], rel=1e-12)
    assert out["tolman_integrand_residual"] < 1e-12


def test_tolman_passive_mass_bare_shell_doubles():
    out = scenario_rows("coulomb_shell")
    assert out["passive_mass"] == pytest.approx(2.0 * out["P0"], rel=1e-6)
    assert out["tolman_integrand_residual"] < 1e-12


def test_tolman_passive_mass_completed_shell():
    # r_out large enough that the tail truncation stays below the tolerance
    out = scenario_rows("completed_shell", {"r_out": 1e4})
    assert out["passive_mass"] == pytest.approx(out["P0"], rel=1e-3)


# --- virial ---


def test_virial_residual_is_roundoff():
    for q, d, m1, m2 in [(1.0, 1.0, 1.0, 1.0), (0.3, 2.5, 1.0, 7.0), (2.0, 0.1, 5.0, 0.5)]:
        assert virial_check(q, -q, d, m1, m2) < 1e-12


def test_virial_scale_invariance():
    assert virial_check(1.0, -1.0, 1.0) == pytest.approx(
        virial_check(1.0, -1.0, 2.0), abs=1e-12
    )


def test_virial_rejects_repulsive_and_bad_params():
    with pytest.raises(ValueError, match="non-attractive"):
        virial_check(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        virial_check(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        virial_check(1.0, -1.0, -1.0)


# --- tilted box transverse momentum ---


def transverse_momentum(tilt, beta):
    """The boosted tilted-field box's transverse momentum, integrated by the
    boost report, and its closed form (beta * stress_12, 0)."""
    T, spec = build("uniform_field_box", tilt=tilt)
    P_direct = classical_laue_report(T, spec, [beta]).entries[0].P_direct
    return P_direct[2:], np.array([beta * spec.analytic["stress_12"], 0.0])


def test_trouton_noble_aligned_field_no_transverse_momentum():
    for tilt in (0.0, math.pi / 2):
        direct, closed_form = transverse_momentum(tilt, 0.5)
        assert np.max(np.abs(closed_form)) < 1e-15
        assert np.max(np.abs(direct)) < 1e-12


def test_trouton_noble_45_degrees():
    direct, closed_form = transverse_momentum(math.pi / 4, 0.5)
    assert direct[0] == pytest.approx(-0.25, abs=1e-10)
    assert closed_form[0] == pytest.approx(-0.25)
    assert abs(direct[1]) < 1e-12


def test_trouton_noble_sign_flips_with_tilt():
    plus, _ = transverse_momentum(0.3, 0.4)
    minus, _ = transverse_momentum(-0.3, 0.4)
    assert plus[0] == pytest.approx(-minus[0], abs=1e-12)


# --- mollified shells and the result container ---


def test_mollified_shell_bounds_surface_divergence():
    # the sharp shell violates conservation distributionally at the surface;
    # the C^2 blend keeps the fd divergence finite there while leaving the
    # field untouched away from the blend zone
    T_sharp, _ = build("coulomb_shell", q=1.0, R=1.0)
    T_soft, _ = build("completed_shell", q=1.0, R=1.0, mollify=True)
    on_shell = np.array([[0.0, 1.0, 0.0, 0.0]])
    sharp = np.max(np.abs(divergence(T_sharp, ETA, 1e-3)(on_shell)))
    soft = np.max(np.abs(divergence(T_soft, ETA, 1e-3)(on_shell)))
    assert sharp > 50.0 * max(soft, 1e-12)
    # away from the blend zone the mollified field is the sharp one
    far = np.array([[0.0, 2.0, 0.0, 0.0]])
    assert np.allclose(T_soft(far), build("completed_shell")[0](far))


def test_mollified_width_validation():
    with pytest.raises(ValueError, match="mollifier"):
        build("coulomb_shell", mollify=2.0)


def test_shell_finite_at_origin():
    T, _ = build("coulomb_shell")
    val = T(np.zeros((1, 4)))
    assert np.all(np.isfinite(val)) and np.max(np.abs(val)) == 0.0


def test_scenario_suite_rows():
    records = run_scenario_suite("gaussian_dust", {"sigma": 0.5}, scale=0.5)
    res = {r.name: r.value for r in records}
    assert all(r.verdict != "fail" for r in records)
    assert {r.grid for r in records} == {"cartesian:scale=0.5"}
    assert res["P0"] == pytest.approx(math.pi**1.5 * 0.125, rel=1e-5)
    assert res["passive_mass"] == pytest.approx(res["P0"], rel=1e-9)
    assert res["tolman_integrand_residual"] < 1e-12
    assert {name for name in res if name.startswith("stress_")} == {
        f"stress_{c}" for c in ("T01", "T02", "T03", "T11", "T12", "T13", "T22", "T23", "T33")
    }
    # a non-stationary system has no stress integrals or passive mass
    assert list(scenario_rows("moving_dust", scale=0.25)) == ["P0", "P1", "P2", "P3"]


# --- component-major shell samples ---


def node_major_shell(points, completed, q=1.0, R=1.0, mollify=0.0):
    """The shell's T^{ab} written node by node into (..., 4, 4), the layout
    the component-major closure replaced; kept as the bitwise reference."""
    points = np.asarray(points, float)
    x = points[..., 1:]
    r2 = np.sum(x * x, axis=-1)
    r = np.sqrt(r2)
    r_safe = np.maximum(r, 1e-60 * R)
    out = np.zeros(points.shape[:-1] + (4, 4))
    e2 = (q / (4.0 * math.pi)) ** 2 / r_safe**4
    dirs = x / r_safe[..., None]
    if mollify > 0.0:
        t = np.clip((r - (R - 0.5 * mollify)) / mollify, 0.0, 1.0)
        w = t**3 * (10.0 + t * (-15.0 + 6.0 * t))
    else:
        w = (r > R).astype(float)
    half_e2 = w * 0.5 * e2
    out[..., 0, 0] = half_e2
    for a in range(3):
        for b in range(a, 3):
            ee = -w * e2 * (dirs[..., a] * dirs[..., b])
            out[..., 1 + a, 1 + b] = ee
            out[..., 1 + b, 1 + a] = ee
        out[..., 1 + a, 1 + a] += half_e2
    if completed:
        p = q**2 / (32.0 * math.pi**2 * R**4)
        for a in range(3):
            out[..., 1 + a, 1 + a] -= (1.0 - w) * p
    return out


def shell_points(shape):
    """Points inside, outside and across the mollified surface; the origin is
    the first one unless there is only one point."""
    pts = RNG.uniform(-2.5, 2.5, shape)
    pts[..., 1:] *= RNG.uniform(0.0, 1.0, shape[:-1] + (1,))  # many inside r = 1
    if pts.size > 4:
        pts.reshape(-1, 4)[0] = 0.0
    return pts


SHELLS = [
    ("coulomb_shell", {}, dict(completed=False)),
    ("completed_shell", {}, dict(completed=True)),
    ("completed_shell", {"mollify": True}, dict(completed=True, mollify=0.05)),
]
SHELL_IDS = ["bare", "completed", "mollified"]


@pytest.mark.parametrize("shape", [(4096, 4), (2, 3, 4), (1, 4)])
@pytest.mark.parametrize("name, params, ref", SHELLS, ids=SHELL_IDS)
def test_shell_samples_bitwise_node_major(name, params, ref, shape):
    T, _ = build(name, **params)
    pts = shell_points(shape)
    got = T(pts)
    assert got.shape == shape[:-1] + (4, 4)
    assert np.array_equal(got, node_major_shell(pts, **ref))  # bitwise


@pytest.mark.parametrize("name, params", [(n, p) for n, p, _ in SHELLS], ids=SHELL_IDS)
def test_shell_rows_are_contiguous_views(name, params):
    # patch_moments reads reshape(m, 16).T; it must be a view of the sample,
    # not a strided copy of node-major components
    T, _ = build(name, **params)
    Tv = T(shell_points((1000, 4)))
    rows = Tv.reshape(1000, 16).T
    assert np.shares_memory(rows, Tv) and rows.flags.c_contiguous


@pytest.mark.parametrize("shape", [(10_000, 3), (7, 5, 3), (1, 3), (3,)])
def test_spatial_r2_is_bitwise_the_axis_sum(shape):
    from laue_lab.fields import _spatial_r2

    x = RNG.choice([-1.0, 1.0], shape) * 10.0 ** RNG.uniform(-9.0, 4.0, shape)
    assert np.array_equal(_spatial_r2(x), np.sum(x * x, axis=-1))


def touched_closures():
    from laue_lab.cli import (
        CONSERVED_BLOB,
        CONSERVED_CURRENT,
        CURVED_METRIC,
        GENERIC_CURRENT,
        LAM,
        PHI,
        SOURCED_CURRENT,
        STATIC_CHARGE,
    )

    fields = {sid: build(name, **params)[0] for sid, (name, params, _) in zip(SHELL_IDS, SHELLS)}
    fields.update({name: build(name)[0]
                   for name in ("gaussian_dust", "uniform_field_box", "moving_dust")})
    fields.update(lam=LAM, phi=PHI, conserved_blob=CONSERVED_BLOB,
                  conserved_current=CONSERVED_CURRENT, sourced_current=SOURCED_CURRENT,
                  static_charge=STATIC_CHARGE, generic_current=GENERIC_CURRENT,
                  curved_metric=CURVED_METRIC)
    return fields


@pytest.mark.parametrize("m", [500, 1])
@pytest.mark.parametrize("name", list(touched_closures()))
def test_closure_leaves_its_points_unchanged(name, m):
    # the closures read coordinate columns as views of the caller's array (for
    # one point even np.ascontiguousarray of a column is one), so an in-place
    # operation on a column would rewrite the caller's points
    pts = shell_points((m, 4))
    before = pts.copy()
    field = touched_closures()[name]
    field(pts)
    assert np.array_equal(pts, before)
    # the field's __call__ is the one conversion the closure relies on: integer
    # points, one as a list or many as an array, sample as their float copies
    ints = np.rint(pts).astype(int)
    given = ints[0].tolist() if m == 1 else ints
    assert np.array_equal(field(given), field(np.asarray(given, float)))
