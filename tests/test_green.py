from fractions import Fraction

import pytest
from draws import wide

from greenquadrics import checks
from greenquadrics.errors import DependentBasisError, NotRankOneError, UnknownKindError
from greenquadrics.exact import Rational
from greenquadrics.green import (
    ProjLine,
    class_plane,
    classify_plane,
    colspace,
    green_eq,
    h_class_line,
    rowspace,
)
from greenquadrics.mat2 import Mat2, ZERO
from greenquadrics.sampling import rand_nonzero_rational, rand_rank1, rand_rational, rng_for
from greenquadrics.semigroup import generator_line
from greenquadrics.surfaces import sample_surface

E = Mat2(1, 0, 0, 0)


class TestProjLine:
    def test_normalization(self):
        assert ProjLine(Rational(2), Rational(4)).direction == (1, 2)
        # sign convention: first nonzero coordinate positive
        assert ProjLine(Rational(-1, 2), Rational(3, 2)).direction == (1, -3)
        assert ProjLine(Rational(0), Rational(-5)).direction == (0, 1)

    def test_equality_is_proportionality(self):
        assert ProjLine(Rational(2), Rational(-6)) == ProjLine(Rational(-1, 3), Rational(1))
        assert ProjLine(Rational(1), Rational(0)) != ProjLine(Rational(0), Rational(1))

    def test_perp(self):
        assert ProjLine(Rational(1), Rational(0)).perp().direction == (0, 1)
        (a, b), (c, d) = ProjLine(Rational(3), Rational(4)).perp().direction, (3, 4)
        assert a * c + b * d == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjLine(Rational(0), Rational(0))

    def test_text_hash_and_foreign_operands(self):
        line = ProjLine(Rational(2), Rational(-4))
        assert (repr(line), str(line)) == ("ProjLine(1, -2)", "(1,-2)")
        assert hash(line) == hash(ProjLine(Rational(-1, 3), Rational(2, 3)))
        assert len({line, ProjLine(Rational(-1), Rational(2))}) == 1
        # a line is not its direction tuple
        assert line != (1, -2) and not line == (1, -2)


def _rank1_fraction_entries(rng, bits, zero_row, zero_col):
    """Entries c_i r_j of a rank-1 matrix, computed on `Fraction`s."""

    def draw():
        if bits is None:
            return rand_nonzero_rational(rng, 4, 3)
        return wide(rng, bits)

    c = (Fraction(0) if zero_row else draw(), draw())
    r = (Fraction(0) if zero_col else draw(), draw())
    return (c[0] * r[0], c[0] * r[1], c[1] * r[0], c[1] * r[1])


class TestSpacesFromFirstNonzeroLine:
    @pytest.mark.parametrize("bits", [None, 256], ids=["small", "256-bit"])
    @pytest.mark.parametrize(
        "zero_row,zero_col", [(False, False), (True, False), (False, True), (True, True)]
    )
    def test_matches_first_nonzero_row_and_column(self, bits, zero_row, zero_col):
        for i in range(40):
            x = _rank1_fraction_entries(rng_for(83, i), bits, zero_row, zero_col)
            a = Mat2(*x)
            rows = [(x[0], x[1]), (x[2], x[3])]
            cols = [(x[0], x[2]), (x[1], x[3])]
            assert rowspace(a) == ProjLine(*next(v for v in rows if any(v)))
            assert colspace(a) == ProjLine(*next(v for v in cols if any(v)))
            assert (rows[0] == (0, 0)) == zero_row and (cols[0] == (0, 0)) == zero_col


class TestGreenEq:
    def test_paper_listings(self):
        assert green_eq("L", E, Mat2(2, 0, 3, 0))
        assert green_eq("R", E, Mat2(2, 3, 0, 0))
        assert not green_eq("L", E, Mat2(2, 3, 0, 0))

    def test_trivial_classes(self):
        assert green_eq("L", ZERO, ZERO) and green_eq("R", ZERO, ZERO)
        assert green_eq("H", Mat2(1, 0, 0, 1), Mat2(1, 2, 3, 4) @ Mat2(1, 2, 3, 4) + Mat2(1, 0, 0, 1))
        assert not green_eq("L", ZERO, E)

    def test_d_equals_rank_and_j(self):
        for i in range(200):
            rng = rng_for(5, i)
            a, b = rand_rank1(rng), rand_rank1(rng)
            assert green_eq("D", a, b)
            assert green_eq("J", a, b) == green_eq("D", a, b)

    def test_h_is_l_and_r(self):
        a = Mat2(2, 0, 3, 0)
        assert green_eq("H", a, a * Rational(-7, 2))
        assert not green_eq("H", a, Mat2(1, 0, 0, 0))


class TestClassPlane:
    def test_examples(self):
        assert class_plane("L", E) == (Mat2(1, 0, 0, 0), Mat2(0, 0, 1, 0))
        assert class_plane("R", E) == (Mat2(1, 0, 0, 0), Mat2(0, 1, 0, 0))
        assert class_plane("L", Mat2(0, 0, 0, 1)) == (Mat2(0, 1, 0, 0), Mat2(0, 0, 0, 1))

    def test_membership_randomized(self):
        for i in range(300):
            rng = rng_for(11, i)
            a = rand_rank1(rng)
            for rel in ("L", "R"):
                b1, b2 = class_plane(rel, a)
                x = b1 * rand_rational(rng) + b2 * rand_rational(rng)
                if not x.is_zero():
                    assert green_eq(rel, x, a)

    def test_rank_errors(self):
        with pytest.raises(NotRankOneError):
            class_plane("L", ZERO)
        with pytest.raises(NotRankOneError):
            class_plane("R", Mat2(1, 0, 0, 1))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: green_eq("l", E, E), ValueError),
        (lambda: class_plane("r", E), ValueError),
        (lambda: generator_line("l1", E), ValueError),
        (lambda: sample_surface("generator_lines", 3, 0, e=E), UnknownKindError),
        (lambda: sample_surface("Idempotents", 3, 0), UnknownKindError),
    ],
    ids=["green_eq", "class_plane", "generator_line", "sample_surface-underscore", "sample_surface-case"],
)
def test_names_have_one_spelling(call, error):
    # a relation, family or kind is accepted only as the CLI's choices spell it
    with pytest.raises(error):
        call()


class TestHClassLine:
    def test_scaling_is_h(self):
        line = h_class_line(Mat2(2, 0, 3, 0))
        assert line.contains(Mat2(2, 0, 3, 0) * Rational(-5, 7))
        assert green_eq("H", line.point(Rational(3)), Mat2(2, 0, 3, 0))

    def test_membership_iff_h(self):
        a = Mat2(2, 0, 3, 0)
        line = h_class_line(a)
        for i in range(200):
            b = rand_rank1(rng_for(13, i))
            assert line.contains(b) == green_eq("H", b, a)

    def test_zero_rejected(self):
        with pytest.raises(NotRankOneError):
            h_class_line(ZERO)


class TestClassifyPlane:
    def test_examples(self):
        v = classify_plane(Mat2(0, 0, 1, 0), Mat2(0, 0, 0, 1))
        assert v.kind == "R" and colspace(v.rep).direction == (0, 1)
        v = classify_plane(E, Mat2(0, 0, 1, 0))
        assert v.kind == "L" and rowspace(v.rep).direction == (1, 0)
        v = classify_plane(E, Mat2(0, 0, 0, 1))
        assert v.kind == "not_contained"

    def test_dependent_basis(self):
        with pytest.raises(DependentBasisError):
            classify_plane(E, E * Rational(3, 2))
        with pytest.raises(DependentBasisError):
            classify_plane(E, ZERO)

    def test_roundtrip_randomized(self):
        # the property is the check's; this runs it at a seed of its own
        r = checks.check_plane_classification_roundtrip(17, trials=200)
        assert r.ok and r.detail == "200/200 trials ok", r.line()

    def test_polarization_matches_sampling(self):
        for i in range(100):
            rng = rng_for(19, i)
            b1, b2 = rand_rank1(rng), rand_rank1(rng)
            try:
                verdict = classify_plane(b1, b2)
            except DependentBasisError:
                continue
            contained = verdict.kind != "not_contained"
            sampled_all_zero = True
            for _ in range(100):
                s, t = rand_nonzero_rational(rng, 6, 4), rand_nonzero_rational(rng, 6, 4)
                if (b1 * s + b2 * t).det() != 0:
                    sampled_all_zero = False
                    break
            assert contained == sampled_all_zero
