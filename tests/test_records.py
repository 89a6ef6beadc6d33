"""The package's small result records keep their dataclass-era surface.

Frozen records are `NamedTuple`s; `Hyperplane` (which coerces its level)
and `OrderSectionReport` (which `order_section_report` fills in) are
`__slots__` classes.  Each keeps the repr text, equality and hashing of
the dataclass it replaced, and a frozen record refuses assignment.  A
`NamedTuple` record also equals the plain tuple of its fields and can be
iterated (README discloses this).
"""

from fractions import Fraction

import pytest

from greenquadrics import checks, green, sections, semigroup
from greenquadrics.mat2 import IDENTITY, Mat2

A = Mat2(1, 2, 2, 4)

# (factory, repr printed by the dataclass records, a field name)
FROZEN = {
    "GreenDescriptor": (
        lambda: green.descriptor(A),
        "GreenDescriptor(kind='rank_one', rowspace=ProjLine(1, 2), colspace=ProjLine(1, 2))",
        "kind",
    ),
    "GreenDescriptor-invertible": (
        lambda: green.descriptor(IDENTITY),
        "GreenDescriptor(kind='invertible', rowspace=None, colspace=None)",
        "rowspace",
    ),
    "PuncturedLine": (lambda: green.h_class_line(A), "PuncturedLine(direction=Mat2(1, 2, 2, 4))", "direction"),
    "PlaneInVariety": (
        lambda: green.classify_plane(Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)),
        "PlaneInVariety(basis=(Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0)), kind='R', rep=Mat2(1, 0, 0, 0))",
        "rep",
    ),
    "Hyperplane": (
        lambda: sections.Hyperplane(A, Fraction(1, 2)),
        "Hyperplane(a=Mat2(1, 2, 2, 4), lam=Fraction(1, 2))",
        "lam",
    ),
    "BellPoint": (
        lambda: sections.to_bell(Mat2(1, 2, 3, 4), 5),
        "BellPoint(X=QuadExt(Fraction(0, 1), Fraction(-3, 2)), Y=QuadExt(Fraction(0, 1), Fraction(5, 2)), "
        "Z=QuadExt(Fraction(0, 1), Fraction(1, 2)), lam=Fraction(5, 1))",
        "X",
    ),
    "SectionVerdict": (
        lambda: sections.classify_section(IDENTITY, 0),
        "SectionVerdict(kind=<SectionClass.CONE: 'cone'>, l_rep=None, r_rep=None)",
        "kind",
    ),
    "SectionVerdict-planes": (
        lambda: sections.classify_section(A, 0),
        "SectionVerdict(kind=<SectionClass.TWO_PUNCTURED_PLANES: 'two punctured planes plus origin'>, "
        "l_rep=Mat2(4, -2, -2, 1), r_rep=Mat2(4, -2, -2, 1))",
        "l_rep",
    ),
    "HyperboloidMetrics": (
        lambda: sections.hyperboloid_metrics(Fraction(3, 2)),
        "HyperboloidMetrics(center=Mat2(3/4, 0, 0, 3/4), axis_dir=Mat2(0, 1, -1, 0), radius_sq=Fraction(9, 8), "
        "asymptotic_form=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(-1, 1))))",
        "radius_sq",
    ),
    "GeneratorLine": (
        lambda: semigroup.generator_line("L1", Mat2(1, 0, 0, 0)),
        "GeneratorLine(base=Mat2(1, 0, 0, 0), direction=Mat2(0, 0, 1, 0), family='L1')",
        "family",
    ),
    "CheckResult": (
        lambda: checks.CheckResult("core", "cayley_hamilton", True, "5/5 trials ok"),
        "CheckResult(suite='core', name='cayley_hamilton', ok=True, detail='5/5 trials ok', certified=0)",
        "ok",
    ),
}


@pytest.mark.parametrize("make,text,field", FROZEN.values(), ids=FROZEN.keys())
class TestFrozenRecords:
    def test_repr_is_unchanged(self, make, text, field):
        assert repr(make()) == text

    def test_equal_records_compare_and_hash_equal(self, make, text, field):
        x, y = make(), make()
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_assignment_raises(self, make, text, field):
        x = make()
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            x.extra = 1
        with pytest.raises(AttributeError):
            delattr(x, field)


def test_unequal_records_differ():
    assert sections.classify_section(IDENTITY, 0) != sections.classify_section(IDENTITY, 1)
    assert sections.Hyperplane(A, 1) != sections.Hyperplane(A, 2)
    assert sections.Hyperplane(A, 1) != sections.Hyperplane(IDENTITY, 1)


def test_named_tuple_records_equal_their_field_tuple():
    # the one disclosed change: a NamedTuple record is a tuple
    verdict = sections.classify_section(IDENTITY, 0)
    assert verdict == (sections.SectionClass.CONE, None, None)
    kind, l_rep, r_rep = verdict
    assert kind is sections.SectionClass.CONE and l_rep is None is r_rep


class TestHyperplane:
    def test_level_is_coerced_to_a_fraction(self):
        lam = sections.Hyperplane(A, 1).lam
        assert type(lam) is Fraction and lam == Fraction(1, 1)
        assert sections.Hyperplane(A, 1) == sections.Hyperplane(A, Fraction(1))
        assert hash(sections.Hyperplane(A, 1)) == hash(sections.Hyperplane(A, Fraction(1)))

    @pytest.mark.parametrize("lam", [0.5, "1", None])
    def test_inexact_level_is_rejected(self, lam):
        with pytest.raises(TypeError):
            sections.Hyperplane(A, lam)

    def test_keywords_and_fields(self):
        h = sections.Hyperplane(a=A, lam=Fraction(3, 4))
        assert h.a == A and h.lam == Fraction(3, 4)

    def test_not_equal_to_a_tuple(self):
        # a __slots__ record compares only with its own type
        assert sections.Hyperplane(A, 1) != (A, Fraction(1))


class TestOrderSectionReport:
    def make(self, seed=3):
        return semigroup.order_section_report(Mat2(1, 2, 3, 5), 7, seed)

    def test_repr_is_unchanged(self):
        assert repr(self.make()) == (
            "OrderSectionReport(a=Mat2(1, 2, 3, 5), trials=7, seed=3, agree_le_vs_inv_section=7, "
            "agree_le_vs_section=3, counterexamples=[])"
        )

    def test_defaults(self):
        report = semigroup.OrderSectionReport(A, 4, 2)
        assert (report.agree_le_vs_inv_section, report.agree_le_vs_section) == (0, 0)
        assert report.counterexamples == []
        assert report.counterexamples is not semigroup.OrderSectionReport(A, 4, 2).counterexamples

    def test_equality_follows_every_field(self):
        assert self.make() == self.make()
        assert self.make() != self.make(seed=4)
        other = self.make()
        other.counterexamples.append({"x": "[0,0;0,0]"})
        assert other != self.make()

    def test_mutable_but_unhashable(self):
        report = self.make()
        report.agree_le_vs_section += 1
        assert report.agree_le_vs_section == 4
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(AttributeError):
            report.extra = 1
