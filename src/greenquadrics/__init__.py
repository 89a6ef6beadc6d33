"""greenquadrics: exact toolkit for the semigroup of 2x2 real matrices.

Structure (Green's relations, idempotents, nilpotents, semigroup inverses,
the natural partial order) and the quadric geometry it traces out in
4-space (hyperboloid of one sheet, right circular cone, hyperbolic
paraboloid, punctured plane pairs), all in exact rational arithmetic:
scalars are `fractions.Fraction`, matrices integer content over one
common denominator.

The public names below resolve on first use (PEP 562): importing the
package loads none of its modules, and `greenquadrics.Mat2` imports
`greenquadrics.mat2` when it is first read.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact": "QuadExt Rational SQRT2 to_float",
    "green": "PlaneInVariety ProjLine class_plane classify_plane colspace green_eq h_class_line rowspace",
    "mat2": "IDENTITY Mat2 ZERO format_mat2 inner inverse_mat parse_mat2",
    "quadrics": "QuadricClass",
    "sections": "AffineQuadric3 BellPoint Hyperplane SectionClass SectionVerdict bell_residual "
    "classify_affine_quadric classify_section from_bell hyperboloid_metrics restrict_quadric to_bell",
    "semigroup": "GeneratorLine InverseChart chart_eval generator_line idempotent_from_spaces "
    "inverse_chart inverse_membership is_idempotent is_inverse_pair is_nilpotent line_meet "
    "minus_le natural_le order_section_report",
    "surfaces": "SurfaceSample sample_surface write_csv write_obj",
}

# public name -> the module that defines it
_SOURCE = {name: f"greenquadrics.{module}" for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
