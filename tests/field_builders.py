"""Field builders shared by the test modules (imported by name, so they
live outside ``conftest.py``, whose module name other test trees share)."""

from dataclasses import replace

import numpy as np

from laue_lab.cli import CONSERVED_BLOB
from laue_lab.exterior import Signature
from laue_lab.fields import MetricField, ScalarField, SymTensorField, VectorField


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


def make_conserved_blob():
    """The identities suite's static blob, whose spatial stress is
    divergence-free by construction, with that zero divergence supplied."""

    def div_func(points):
        return np.zeros_like(np.asarray(points, float))

    return replace(CONSERVED_BLOB, analytic_divergence=div_func)


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

    return ScalarField(func, grad=grad)


def make_static_dust(rho0=1.0, sigma=1.0):
    def func(points):
        points = np.asarray(points, float)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = rho0 * np.exp(-r2 / sigma**2)
        return out

    return SymTensorField(func)


def constant_field(v):
    v = np.asarray(v, float)

    def func(points):
        points = np.asarray(points, float)
        return np.broadcast_to(v, points.shape[:-1] + v.shape)

    return VectorField(func)
