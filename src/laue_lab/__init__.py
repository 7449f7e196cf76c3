"""Numerical workbench for exterior algebra, the inhomogeneous isometry
group, and global energy-momentum flux integrals on affine charts."""

__version__ = "0.1.0"

from .exterior import PForm, Signature, hodge, inner_norm, insert, musical, volume_form, wedge
from .poincare import (
    PoincareElement,
    PoinLieElement,
    ad,
    coad,
    compose,
    fundamental_field,
    invert,
    lie_bracket,
    pairing,
    rotation,
    standard_boost,
    translation,
)
from .fields import (
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    active_transform,
    boost_emt_analytic,
    divergence,
    emt_to_form,
    identity_residuals,
    killing_residual,
    lie_derivative,
)
from .quadrature import (
    HyperplanePatch,
    flux_charge,
    four_momentum,
    integrate_form,
    laue_integrals,
    momentum_map,
    patch_moments,
    transform_patch,
)
from .scenarios import build, virial_check
from .checkers import (
    classical_laue_report,
    conservation_check,
    equivariance_report,
    exact_current_factory,
    fake_covariance_check,
    gauss_residual,
    geometric_laue_residuals,
)
