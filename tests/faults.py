"""The fault table: one row per hand-written fault that some check of
`gq check` must kill at seed 42 (mutation analysis; DeMillo, Lipton &
Sayward, IEEE Computer 11(4), 1978).

A row names its target as a module of the package and a qualified name,
one exact-text patch `old -> new` of the target's source, the `check_*`
functions to run with their trial counts (`None` for the default), the
result names that must FAIL (and no other result of those runs), and why
the fault is worth a row.  `install` recompiles the target with the patch
in a copy of its module's namespace and puts it, behind a call counter,
at every attribute that holds the target: the globals of each loaded
module of the package (a `from ... import` copy of a name included) and
the attributes of each class those modules define (an alias such as
`QuadExt.__radd__ = __add__` included).  The scan cannot see a reference
captured in a `partial`, a default argument or a container, nor a module
loaded after `install`; the call counter shows a row whose runs never
reach the mutant, so a binding it misses shows as a mutant that never
ran, not as one killed.  Every row is killed: a fault that no check kills
is a `FOUND:` line of CHANGES.md and a stronger check, and its row is
never deleted.  `tests/kill_matrix.py` runs every row against every check
of a full seed-42 run.
"""

import importlib
import inspect
import sys
import textwrap
from typing import NamedTuple


class Fault(NamedTuple):
    id: str
    target: str  # "module.qualname" under greenquadrics
    old: str
    new: str
    runs: tuple  # (check function name, trials or None)
    fails: tuple  # result names that must FAIL
    why: str


def _rows(target, runs, fails, *patches):
    """One row per (id, old, new, why) patch of one target."""
    return [Fault(name, target, old, new, runs, fails, why) for name, old, new, why in patches]


# (runs, fails) of the rows that share them
_ORDER = (("check_natural_order_equivalence", None),), ("natural_order_equals_minus_order",)
_IDEMPOTENTS = (("check_rank1_idempotent_characterization", None),), ("rank1_idempotent_iff_trace1_det0",)
_NILPOTENTS = (("check_nilpotent_characterization", None),), ("nilpotent_iff_trace0_det0",)
_CHART = (("check_inverse_set_theorem", None),), ("chart_points_are_inverses",)
_LINES = (("check_line_combinatorics", None),), ("generator_line_combinatorics",)
_SECTIONS = (
    (("check_classifier_agreement", 60), ("check_affine_invariance", None)),
    ("table_matches_generic_classifier", "affine_invariance_of_class"),
)
_CAYLEY = (("check_cayley_hamilton", None),), ("cayley_hamilton",)
_DET_TRACE = (("check_det_trace_laws", None),), ("det_multiplicative_trace_commutes",)
_INNER = (("check_inner_vs_trace", None),), ("inner_product_equals_trace_form",)
_INVERSE_IMAGE = (("check_inverse_image_law", None),), ("section_is_inverse_image_of_idempotents",)
_RESTRICTION = (("check_restriction_identity", None),), ("restriction_identity",)
_CLEAR = (("check_restriction_identity", 8),), ("restriction_identity",)
_FRAME = (("check_bell_identity", None),), ("frame_identity_exact",)
_TRACE = (("check_bell_identity", None), ("check_rank1_idempotent_characterization", None)), (
    "frame_identity_exact",
    "rank1_idempotent_iff_trace1_det0",
)
_ROUNDTRIP = (("check_bell_roundtrip", None),), ("frame_roundtrip_exact",)
_FIELD = (("check_quadext_field", None),), ("quadext_field_axioms",)
_SIGN = (("check_quadext_sign", None),), ("quadext_sign_float_bridge",)
_NORM = (
    (("check_nilpotent_cone_identity", None), ("check_inverse_set_theorem", None)),
    ("nilpotent_cone_45_degree_identity", "chart_points_are_inverses"),
)
_MEMBERSHIP = (("check_inverse_set_theorem", None), ("check_membership_equals_triple_products", None)), (
    "chart_points_are_inverses",
    "section_membership_iff_inverse_pair",
)
# the integer forms of x x = x and x x = 0, each a whole return line
_SQUARE_IS_X = "return x1 * x1 + x2 * x3 == d * x1 and x2 * t == d * x2 and x3 * t == d * x3 and x2 * x3 + x4 * x4 == d * x4"
_SQUARE_IS_ZERO = "return x1 * x1 + x2 * x3 == 0 and x2 * t == 0 and x3 * t == 0 and x2 * x3 + x4 * x4 == 0"
# (check, result) of the checks that read row and column spaces, in the
# order in which the faults of `green` reach more of them
_SPACE_CHECKS = (
    ("check_class_plane_membership", "class_plane_points_stay_in_class"),
    ("check_plane_classification_roundtrip", "plane_classification_roundtrip"),
    ("check_h_class_is_punctured_line", "h_class_is_punctured_line"),
    ("check_generator_lines", "generator_lines_lie_on_surface"),
    ("check_line_combinatorics", "generator_line_combinatorics"),
    ("check_classifier_agreement", "table_matches_generic_classifier"),
    ("check_affine_invariance", "affine_invariance_of_class"),
)


def _spaces(n):
    """(runs, fails) of the first `n` checks of `_SPACE_CHECKS`."""
    return tuple((check, None) for check, _ in _SPACE_CHECKS[:n]), tuple(name for _, name in _SPACE_CHECKS[:n])


FAULTS = [
    *_rows("semigroup.natural_le", *_ORDER,
        ("natural-le-dropped-denominator", "b1, b2, b3 = y._d * r0, y._d * r1, ", "b1, b2, b3 = r0, r1, ",
         "solving Y^T w = R instead of dy R is still exact on integer y"),
        ("natural-le-cofactor-sign", "- b2 * (y1 * c1 - y3 * c0)", "+ b2 * (y1 * c1 - y3 * c0)",
         "a cofactor sign of the invertible-y branch"),
        ("natural-le-no-proportionality", "return u * b3 == b1 * w and v * b3 == b2 * w", "return True",
         "the rank-1 y branch without its right-hand side test"),
        ("natural-le-no-column-minors", "if c0 * y3 != c1 * y1 or c0 * y4 != c1 * y2:", "if False:",
         "the rank-1 y branch without its column-space test")),
    *_rows("semigroup.minus_le", *_ORDER,
        ("minus-le-equal-rank-not-equal", "return k == 0 and x == y", "return k == 0", "equal ranks: below iff equal"),
        ("minus-le-dropped-denominator", "return x._d * (y1 * y4", "return (y1 * y4", "the scale of the det identity"),
        ("minus-le-no-zero-case", "if rx == 0:", "if False:", "a zero x is below everything")),
    *_rows("mat2._polar", *_ORDER,
        ("minus-le-polar-sign", "- x2 * y3 - y2 * x3", "+ x2 * y3 - y2 * x3", "the polar form of the det identity")),
    *_rows("semigroup.is_idempotent", *_IDEMPOTENTS,
        ("idempotent-trace-only", _SQUARE_IS_X, "return x1 * x1 + 2 * x2 * x3 + x4 * x4 == d * t",
         "x^2, x equal in trace"),
        ("idempotent-times-trace", "d = x._d", "d = x1 + x4", "x^2 = tr(x) x at rank 1")),
    *_rows("semigroup.is_nilpotent", *_NILPOTENTS,
        ("nilpotent-trace-only", _SQUARE_IS_ZERO, "return x1 * x1 + 2 * x2 * x3 + x4 * x4 == 0", "x^2 traceless only"),
        ("nilpotent-det-only", _SQUARE_IS_ZERO, "return x1 * x4 == x2 * x3", "singular is not nilpotent")),
    *_rows("checks.idempotent_characterization_holds", *_IDEMPOTENTS,
        ("rank-at-most-1", "x.rank() == 1", "x.rank() <= 1", "the zero matrix is idempotent of rank 0"),
        ("no-rank-test", " and x.rank() == 1", "", "the rank test of the characterization dropped"),
        ("characterization-trace-against-one", "_trace_is(x, 1, 1)", "_trace_is(x, 1, x._d)",
         "the trace's numerator sum against 1: right on integer matrices")),
    *_rows("mat2._trace_of_product_is",
        (*_MEMBERSHIP[0], ("check_order_section_reports", None)),
        (*_MEMBERSHIP[1], "order_below_a_is_inverse_section"),
        ("membership-one-denominator", "num * a._d * x._d", "num * x._d",
         "tr(a x) over dx only, in the inverse-set test and both report columns: right whenever a has integer entries")),
    *_rows("semigroup.is_inverse_pair", _MEMBERSHIP[0], ("section_membership_iff_inverse_pair",),
        ("inverse-pair-xax-optional", "    return (\n        x1 * p1", "    return True or (\n        x1 * p1",
         "a x a = a alone: true of an invertible x whenever a is rank 1 and tr(a x) = 1")),
    *_rows("semigroup.is_inverse_pair", *_CHART,
        ("inverse-pair-scale-no-dx", "k = a._d * x._d", "k = a._d",
         "both products scaled by da only: right whenever x has integer entries")),
    *_rows("semigroup.order_section_report", (("check_order_section_reports", None),),
        ("order_below_a_is_inverse_section",),
        ("report-inverse-section-one-denominator", "_trace_of_product_is(ainv, x, 1, 1)",
         "_trace_of_product_is(ainv, x, 1, ainv._d)",
         "the inverse section's trace test over dx only: right whenever inv(a) has integer entries")),
    *_rows("semigroup.chart_eval", *_CHART,
        ("chart-swapped-denominators", "sn, sd = _parts(s)\n    tn, td = _parts(t)",
         "sn, td = _parts(s)\n    tn, sd = _parts(t)",
         "the swapped point (d0 + sn/td d1)(q0 + tn/sd q1)^T is still an inverse"),
        ("chart-one-denominator-twice", "f * td)", "f * sd)",
         "s's denominator in place of t's: right where the two are equal, as on the grid's diagonal"),
        ("chart-row-factor-gcd", "g = gcd(x0, x1, den)", "g = 1",
         "a point reduced by one factor's gcd only is the right value in the wrong storage form"),
        ("chart-column-factor-gcd", "g = gcd(y0, y1, den)", "g = 1",
         "a point reduced by one factor's gcd only is the right value in the wrong storage form")),
    *_rows("semigroup.line_meet", *_LINES,
        ("meet-no-minor-test", "if p1 * (q2 * r3", "if False and p1 * (q2 * r3", "the consistency test of the meet"),
        ("meet-cramer-numerator", "(r1 * q2 - r2 * q1)", "(r1 * q2 + r2 * q1)", "the Cramer numerator of s"),
        ("meet-dropped-denominator", "m * diff._d", "m", "the denominator of b2 - b1 that s is scaled by")),
    *_rows("quadrics.classify_content", *_SECTIONS,
        ("classify-centre-sign", "k = work[3][3]", "k = -work[3][3]",
         "the border residue's sign swaps one sheet for two; the invariance check sees it through the table"),
        ("classify-no-centre-test", "if any(work[i][3] for i in rest):", "if False:",
         "without the non-central test a paraboloid reads as a centred quadric")),
    *_rows("quadrics._eliminate", *_SECTIONS,
        ("eliminate-pivot-sign", "if d > 0:", "if d < 0:", "each pivot counted into the other sign")),
    *_rows("mat2.Mat2.__sub__", *_CAYLEY,
        ("sub-clearing-slip", "sa, sb = db // g, da // g", "sa, sb = da // g, db // g",
         "each side scaled by its own denominator: only mixed denominators reach it")),
    *_rows("mat2.Mat2.__matmul__", *_DET_TRACE,
        ("matmul-swapped-terms", "a1 * b1 + a2 * b3,\n        a1 * b2 + a2 * b4,",
         "a1 * b1 + a2 * b4,\n        a1 * b2 + a2 * b3,", "the (1,1) and (1,2) entries swap their a2 terms")),
    *_rows("mat2.Mat2.det", *_DET_TRACE,
        ("det-skipped-second-gcd", "h = gcd(num, g)", "h = 1", "without h = gcd(num / g, d) 4 / 4 stays 2 / 2")),
    *_rows("mat2.inner", *_INNER,
        ("inner-denominator", "x._d * y._d", "x._d * x._d", "x's denominator squared: equal denominators hide it")),
    *_rows("mat2.inverse_mat", *_INVERSE_IMAGE,
        ("inverse-off-by-content", "c * det)", "det)", "c inv(a) is still an inverse's direction: a x == y sees it")),
    *_rows("sections.section_membership", *_INVERSE_IMAGE,
        ("section-membership-no-det", "_det_is(x, 0, 1) and ", "", "without det = 0 the section is the whole plane")),
    *_rows("sections.AffineQuadric3.evaluate", *_RESTRICTION,
        ("evaluate-linear-term", "+ dd * (b1 * u1", "+ (b1 * u1", "the linear term over D^2: integer points hide it"),
        ("evaluate-no-s12", "s11 * u1 + s12 * u2 + s13 * u3", "s11 * u1 + s13 * u3", "one cross term dropped"),
        ("evaluate-constant-term", "c * dd * dd", "c * dd", "constant term over D: only a recentred chart has one")),
    *_rows("sections.AffineQuadric3.point", *_RESTRICTION,
        ("point-no-denominator", "o[k] * dd + ", "o[k] + ", "the origin not scaled by D: integer points hide it")),
    *_rows("sections._clear", *_CLEAR,
        ("clear-slip", "u2 * (dd // e2)", "u2 * (dd // e3)", "u2 scaled by lcm/e3 moves `point` and `evaluate` alike")),
    *_rows("sections.bell_residual", *_FRAME,
        ("bell-dropped-half", "2 * x._d * x._d", "x._d * x._d",
         "twice the residual is zero on every singular slice: only -2 det x sees it"),
        ("bell-scale-slip", "2 * x._d * x._d", "2 * x._d", "a residual over 2d is still zero on the variety")),
    *_rows("mat2._det_is", (_RESTRICTION[0][0], _FRAME[0][0]), (_RESTRICTION[1][0], _FRAME[1][0]),
        ("det-is-one-denominator", "num * x._d * x._d", "num * x._d", "det x over dx, not dx^2: right on integer x")),
    *_rows("checks.frame_residual_holds", *_FRAME,
        ("frame-residual-no-factor-two", "2 * rd", "rd", "the residual against -det x: zero on the singular slices")),
    *_rows("mat2._trace_is", *_TRACE,
        ("trace-is-one-denominator", "num * x._d", "num",
         "tr x against lam or the characterization's 1 over 1, not dx: right on integer x")),
    *_rows("mat2._inner_is", *_CHART,
        ("chart-read-one-denominator", "num * x._d * m._d", "num * x._d",
         "the read-back of s and t without m's denominator: right whenever |m|^2 divides m")),
    *_rows("checks._nilpotent_point",
        (("check_traceless_singular_squares_to_zero", None), ("check_nilpotent_cone_identity", None)),
        ("traceless_singular_is_square_zero", "nilpotent_cone_45_degree_identity"),
        ("nilpotent-point-one-pd", "kn * b * b", "kn * b * qn",
         "the q^2 entry over pd, not pd^2: right whenever p is an integer")),
    *_rows("checks._nilpotent_point",
        (("check_traceless_singular_squares_to_zero", None), ("check_nilpotent_cone_identity", None)),
        ("traceless_singular_is_square_zero",),
        ("nilpotent-point-scaled", "kd * e * e", "kd * e",
         "every point times pd qd: x^2 = 0, tr = det = 0 and the cone hold for every multiple of x")),
    *_rows("sections.hyperboloid_metrics",
        (("check_symmetric_slice", None), ("check_metrics_family", None)),
        ("symmetric_idempotents_form_radius_circle", "metrics_family_shares_axis_and_cone"),
        ("metrics-center-no-half", "center=IDENTITY * (lam * _HALF)", "center=IDENTITY * lam",
         "the centre lam I on the scalar line, off the centre of the slice")),
    *_rows("sections.hyperboloid_metrics", (("check_metrics_family", None),), ("metrics_family_shares_axis_and_cone",),
        ("metrics-radius-no-lam-squared", "lam * lam * _HALF", "lam * _HALF",
         "a radius^2 of lam / 2: right at lam = 0 and 1")),
    *_rows("sections.to_bell", *_ROUNDTRIP,
        ("to-bell-swapped-coordinate", "Y=_quadext(0, n2 + n3", "Y=_quadext(0, n2 - n3",
         "Y from x2 - x3 is still rational, and right whenever x3 = 0")),
    *_rows("exact.QuadExt.__add__", *_FIELD,
        ("quadext-sum-one-denominator", "o._q * d1, d1 * d2)", "o._q * d1, d1)", "right whenever d2 = 1")),
    *_rows("exact.QuadExt.__sub__", *_ROUNDTRIP,
        ("quadext-difference-adds-root2-parts", "self._q * d2 - o._q * d1", "self._q * d2 + o._q * d1",
         "the sqrt 2 parts added when the denominators differ: of the generated mutants, the one that only a tail "
         "point kills (the third 64-bit point of the frame round trip)")),
    *_rows("exact.QuadExt.sign", *_SIGN,
        ("sign-zero-positive", "return sp\n", "return sp or 1\n", "zero called positive"),
        ("sign-p2-vs-q2", "> 2 * self._q * self._q", "> self._q * self._q", "|p| against |q| instead of |q| sqrt 2")),
    *_rows("exact.QuadExt.__eq__", *_FIELD,
        ("quadext-eq-rational-or", "return self._q == 0 and self._d == other.denominator",
         "return self._q == 0 or self._d == other.denominator",
         "every rational element equal to every Fraction: only a comparison with an unequal rational sees it"),
        ("quadext-eq-rational-false", "return self._q == 0 and self._d == other.denominator and self._p == other.numerator",
         "return False",
         "no element equal to any Fraction: only a comparison of an element with the rational it equals sees it")),
    *_rows("exact.to_float", *_SIGN,
        ("to-float-no-root2-denominator", "/ (x._d * _SQRT2_D)", "/ x._d",
         "every float 10**50 times too large: each sign stays right, so only a rational value's float sees it"),
        ("to-float-scales-irrational", "/ (x._d * _SQRT2_D)", "/ (x._d * _SQRT2_D) * (3 if x._q else 1)",
         "every irrational value's float times 3: each sign stays right, so only its value sees it")),
    *_rows("exact._divide", (("check_bell_roundtrip", None), ("check_quadext_field", None)),
        ("frame_roundtrip_exact", "quadext_field_axioms"),
        ("divide-no-sign-flip", "e, norm = -e, -norm", "norm = -norm", "a negative norm made positive, its sign lost")),
    *_rows("mat2.outer", (("check_symmetric_slice", None),), ("symmetric_idempotents_form_radius_circle",),
        ("outer-swapped-scale", "c1 * (e2 // g), c2 * (e1 // g)", "c1 * (e1 // g), c2 * (e2 // g)",
         "each column entry scaled by its own denominator: only a column of mixed denominators sees it")),
    *_rows("mat2.Mat2.norm_sq", *_NORM,
        ("norm-cross-term", "a2 * a2 + a3 * a3", "a2 * a3 + a3 * a2", "2 x2 x3 in place of x2^2 + x3^2"),
        ("norm-no-d-squared", "d * d)", "d)", "|x|^2 over d: right on integer matrices")),
    *_rows("exact._from_ints", *_DET_TRACE,
        ("from-ints-no-gcd", "g = gcd(num, den)", "g = 1", "an unreduced value: equal values compare unequal")),
    *_rows("green.green_eq", (("check_d_is_rank", None),), ("d_class_is_rank_class",),
        ("green-eq-no-rank-test", "if rank != b.rank():", "if False:", "D and J without the rank test")),
    *_rows("green.PuncturedLine.contains", (("check_h_class_is_punctured_line", None),), ("h_class_is_punctured_line",),
        ("punctured-line-any-nonzero", "return proportional(x, self.direction)", "return not x.is_zero()",
         "every nonzero matrix on the line")),
    *_rows("green.class_plane", *_spaces(2),
        ("class-plane-l-reads-columns", "r = rowspace(a).direction", "r = colspace(a).direction",
         "the L plane spanned from the column space")),
    *_rows("green.green_eq", *_spaces(4),
        ("green-eq-l-reads-columns", "rowspace(a) == rowspace(b)", "colspace(a) == colspace(b)",
         "L decided by column spaces, the same test as R")),
    *_rows("green.colspace", *_spaces(5),
        ("colspace-reads-rows", "ProjLine(n1, n3) if n1 or n3 else ProjLine(n2, n4)",
         "ProjLine(n1, n2) if n1 or n2 else ProjLine(n3, n4)", "the column space read from the rows")),
    *_rows("green.rowspace", *_spaces(7),
        ("rowspace-second-row-first", "ProjLine(n1, n2) if n1 or n2 else ProjLine(n3, n4)",
         "ProjLine(n3, n4) if n1 or n2 else ProjLine(n1, n2)", "the second row read when the first is nonzero")),
]

BY_ID = {fault.id: fault for fault in FAULTS}


def _resolve(path):
    """(owner, attribute) of "module.qualname" under greenquadrics."""
    module, *names = path.split(".")
    owner = importlib.import_module(f"greenquadrics.{module}")
    for name in names[:-1]:
        owner = getattr(owner, name)
    return owner, names[-1]


def _mutant(func, old, new):
    """`func` recompiled from its source with the one text `old` replaced by
    `new`, in a copy of its module's namespace (the module is untouched)."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{old!r} is not in {func.__qualname__} exactly once"
    namespace = dict(func.__globals__)
    exec(compile(src.replace(old, new), f"<mutant of {func.__qualname__}>", "exec"), namespace)
    return namespace[func.__name__]


def _holders(target):
    """(owner, name) of every attribute that is `target`: among the globals
    of each loaded module of the package and the attributes of each class
    those modules define."""
    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "greenquadrics"]
    classes = (v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__)
    owners = dict.fromkeys([*modules, *classes])
    return [(owner, name) for owner in owners for name, value in vars(owner).items() if value is target]


def bind(monkeypatch, target, mutant):
    """Put `mutant`, behind a call counter, at every attribute that holds
    `target`; return the call count, a one-item list.  A `property` or
    `staticmethod` target is replaced by one of the same kind around the
    counter, and `mutant` is its plain function."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return mutant(*args, **kwargs)

    value = type(target)(counted) if isinstance(target, (property, staticmethod)) else counted
    for owner, name in _holders(target):
        monkeypatch.setattr(owner, name, value)
    return calls


def install(monkeypatch, fault):
    """Put the mutant of `fault` at every attribute that holds its target;
    return its call count, a one-item list."""
    target = getattr(*_resolve(fault.target))
    return bind(monkeypatch, target, _mutant(target, fault.old, fault.new))


class Undo(list):
    """The one method of pytest's `monkeypatch` that `install` and `bind`
    call, with each replaced attribute kept in a plain list for `undo`:
    the runners outside pytest (`kill_matrix.py`, `mutants.py`) pass one."""

    def setattr(self, owner, name, value):
        self.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self):
        while self:
            setattr(*self.pop())
