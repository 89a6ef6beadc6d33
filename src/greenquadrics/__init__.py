"""greenquadrics: exact toolkit for the semigroup of 2x2 real matrices.

Structure (Green's relations, idempotents, nilpotents, semigroup inverses,
the natural partial order) and the quadric geometry it traces out in
4-space (hyperboloid of one sheet, right circular cone, hyperbolic
paraboloid, punctured plane pairs), all in exact rational arithmetic:
scalars are `fractions.Fraction`, matrices integer content over one
common denominator.
"""

from greenquadrics.exact import QuadExt, Rational, SQRT2, to_float
from greenquadrics.green import (
    GreenDescriptor,
    PlaneInVariety,
    ProjLine,
    class_plane,
    classify_plane,
    colspace,
    descriptor,
    green_eq,
    h_class_line,
    rowspace,
)
from greenquadrics.mat2 import (
    IDENTITY,
    Mat2,
    ZERO,
    format_mat2,
    inner,
    inverse_mat,
    parse_mat2,
)
from greenquadrics.quadrics import QuadricClass, classify_quadric, inertia
from greenquadrics.sections import (
    AffineQuadric3,
    BellPoint,
    Hyperplane,
    SectionClass,
    SectionVerdict,
    bell_residual,
    classify_affine_quadric,
    classify_section,
    from_bell,
    hyperboloid_metrics,
    restrict_quadric,
    to_bell,
)
from greenquadrics.semigroup import (
    GeneratorLine,
    InverseChart,
    chart_eval,
    generator_line,
    idempotent_from_spaces,
    inverse_chart,
    inverse_membership,
    is_idempotent,
    is_inverse_pair,
    is_nilpotent,
    line_meet,
    minus_le,
    natural_le,
    order_section_report,
    pinv_rank1,
)
from greenquadrics.surfaces import SurfaceSample, sample_surface, write_csv, write_obj

__version__ = "0.1.0"
