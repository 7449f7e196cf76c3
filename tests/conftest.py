import numpy as np
import pytest

from laue_lab.exterior import Signature
from laue_lab.fields import MetricField, ScalarField, SymTensorField, VectorField


@pytest.fixture(scope="session")
def sig4():
    return Signature.mostly_minus(4)


@pytest.fixture(scope="session")
def eta4():
    return MetricField.minkowski(4)


def make_tilted_metric():
    """Non-diagonal, point-dependent Lorentzian metric: g_01 = 0.3 sin x2,
    g_23 = 0.2 cos x1, g_11 = -(1 + 0.1 x3^2), other entries Minkowski."""

    def func(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = out[..., 1, 0] = 0.3 * np.sin(points[..., 2])
        out[..., 1, 1] = -(1.0 + 0.1 * points[..., 3] ** 2)
        out[..., 2, 2] = -1.0
        out[..., 2, 3] = out[..., 3, 2] = 0.2 * np.cos(points[..., 1])
        out[..., 3, 3] = -1.0
        return out

    return MetricField(Signature.mostly_minus(4), func, flat=False)


def make_conserved_blob(rho0=1.0, amp=0.5):
    """Static, smooth, rapidly decaying, analytically conserved T^{ab}.

    The energy density is a Gaussian; the spatial stress block is the
    double-curl form [delta_ab (r^2 - 2) - x_a x_b] exp(-r^2/2), whose
    spatial divergence vanishes identically.
    """

    def func(points):
        points = np.asarray(points, float)
        x = points[..., 1:]
        r2 = np.sum(x * x, axis=-1)
        chi = amp * np.exp(-r2 / 2.0)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = rho0 * np.exp(-r2 / 2.0)
        for a in range(3):
            for b in range(3):
                out[..., 1 + a, 1 + b] = -x[..., a] * x[..., b] * chi
            out[..., 1 + a, 1 + a] += (r2 - 2.0) * chi
        return out

    def div_func(points):
        points = np.asarray(points, float)
        return np.zeros_like(points)

    return SymTensorField(func, stationary=True, analytic_divergence=div_func)


@pytest.fixture(scope="session")
def conserved_blob():
    return make_conserved_blob()


def make_spatial_bump(width=2.0, amp=1.0):
    """Smooth time-independent scalar bump exp(-r^2 / width^2)."""

    def func(points):
        points = np.asarray(points, float)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        return amp * np.exp(-r2 / width**2)

    def grad(points):
        points = np.asarray(points, float)
        out = np.zeros_like(points)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        val = amp * np.exp(-r2 / width**2)
        out[..., 1:] = -2.0 * points[..., 1:] / width**2 * val[..., None]
        return out

    return ScalarField(func, grad=grad, stationary=True)


@pytest.fixture(scope="session")
def sample_points4():
    rng = np.random.default_rng(2718)
    return rng.uniform(-1.5, 1.5, size=(40, 4))


def make_static_dust(rho0=1.0, sigma=1.0):
    def func(points):
        points = np.asarray(points, float)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = rho0 * np.exp(-r2 / sigma**2)
        return out

    return SymTensorField(func, stationary=True)


@pytest.fixture(scope="session")
def static_dust():
    return make_static_dust()


def constant_field(v):
    v = np.asarray(v, float)

    def func(points):
        points = np.asarray(points, float)
        return np.broadcast_to(v, points.shape[:-1] + v.shape)

    return VectorField(func, stationary=True)
