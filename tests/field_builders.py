"""Field builders shared by the test modules (imported by name, so they
live outside ``conftest.py``, whose module name other test trees share)."""

from dataclasses import replace

import numpy as np

from laue_lab.exterior import Signature
from laue_lab.fields import MetricField, ScalarField, SymTensorField, VectorField
from laue_lab.quadrature import ProductRule
from laue_lab.scenarios import ScenarioSpec


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

    return MetricField(Signature.mostly_minus(4), func)


def make_spatial_bump(width=2.0, amp=1.0):
    """Smooth time-independent scalar bump exp(-r^2 / width^2)."""

    def func(points):
        points = np.asarray(points, float)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        return amp * np.exp(-r2 / width**2)

    return ScalarField(func)


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


def box_spec(half_width, n):
    """A stationary, conserved scenario spec whose rule at every scale is the
    midpoint box of ``n`` cells a side: the plain time-slice box as the
    domain the checkers take."""
    rule = lambda scale, outer: ProductRule.box((half_width,) * 3, (n,) * 3)
    return ScenarioSpec("box", "cartesian", True, True, rule)


def with_rule(patch, nodes, weights):
    """``patch`` carrying the rule of the given node (m, dim) and weight (m,)
    arrays, tiled by slicing.  The nodes are stored column by column, so each
    tile of them is component-major, as the streamed rules emit theirs."""
    nodes = np.asfortranarray(nodes, float)
    weights = np.asarray(weights, float)
    rule = ProductRule(len(weights), nodes.shape[1], 1,
                       lambda i0, i1: (nodes[i0:i1], weights[i0:i1]))
    return replace(patch, rule=rule)
