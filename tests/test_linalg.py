from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifusion.errors import DimensionMismatchError, NonFiniteError, NotPdError, NotPsdError
from cifusion.linalg import (
    DEFAULT_TOL,
    PETERSEN_WIDTH,
    LoewnerRelation,
    adjugate,
    inv_pd,
    loewner_compare,
    newton_weights,
    psd_certify,
    sym_data,
)

from conftest import (
    feasible_weight_interval,
    first_feasible_weight,
    joint_from_cross_parameter,
    random_joint,
    random_spd,
    sqrt_psd,
)


class TestSymData:
    def test_symmetrizes_an_array(self):
        np.testing.assert_allclose(sym_data([[1.0, 2.0], [0.0, 3.0]]), [[1.0, 1.0], [1.0, 3.0]])

    def test_certified_array_is_frozen(self):
        m = psd_certify(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_halves_before_adding(self):
        # finite at the float limit, and the bits of 0.5 * (a + a.T) where that sum is finite
        huge = np.array([[1e308, -1e308], [-1e308, 1.7e308]])
        np.testing.assert_array_equal(sym_data(huge), huge)
        a = np.random.default_rng(2).standard_normal((5, 5))
        assert sym_data(a).tobytes() == (0.5 * (a + a.T)).tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            sym_data(np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            psd_certify(np.ones((2, 3)))


class TestLoewnerCompare:
    def test_strictly_greater(self):
        assert loewner_compare(np.diag([2.0, 2.0]), np.eye(2)) is LoewnerRelation.STRICTLY_GREATER

    def test_incomparable_pair(self):
        # difference diag(-0.2, 9) mixes signs well beyond tolerance
        rel = loewner_compare(np.diag([1.0, 1.0]), np.diag([0.8, 10.0]))
        assert rel is LoewnerRelation.INCOMPARABLE

    def test_equal_to_itself(self):
        a = random_spd(np.random.default_rng(3), 4)
        assert loewner_compare(a, a) is LoewnerRelation.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_compare(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_operand_raises(self, bad, first):
        # no order can be read off a spectrum that is not finite
        a, b = np.diag([bad, 1.0]), np.eye(2)
        with pytest.raises(NonFiniteError):
            loewner_compare(*((a, b) if first else (b, a)))

    def test_antisymmetry_randomized(self):
        rng = np.random.default_rng(11)
        swap = {
            LoewnerRelation.STRICTLY_GREATER: LoewnerRelation.STRICTLY_LESS,
            LoewnerRelation.GREATER_EQUAL: LoewnerRelation.LESS_EQUAL,
            LoewnerRelation.EQUAL: LoewnerRelation.EQUAL,
            LoewnerRelation.LESS_EQUAL: LoewnerRelation.GREATER_EQUAL,
            LoewnerRelation.STRICTLY_LESS: LoewnerRelation.STRICTLY_GREATER,
            LoewnerRelation.INCOMPARABLE: LoewnerRelation.INCOMPARABLE,
        }
        for _ in range(300):
            d = int(rng.integers(1, 6))
            a = random_spd(rng, d, lo=0.1, hi=4.0)
            b = random_spd(rng, d, lo=0.1, hi=4.0)
            if rng.uniform() < 0.3:
                b = a + rng.uniform(0.0, 1.0) * np.eye(d)
            assert loewner_compare(b, a) is swap[loewner_compare(a, b)]

    @given(
        d=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        shift=st.floats(0.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_shifted_matrix_dominates(self, d, seed, shift):
        a = random_spd(np.random.default_rng(seed), d)
        assert loewner_compare(a + shift * np.eye(d), a).is_ge


class TestPsdCertify:
    def test_identity_strict(self):
        cert = psd_certify(np.eye(2))
        assert cert.strict and cert.min_eig == pytest.approx(1.0)

    def test_boundary_accepted_non_strict(self):
        cert = psd_certify(np.diag([1.0, 0.0]))
        assert not cert.strict

    def test_indefinite_rejected_with_eigenvalue(self):
        with pytest.raises(NotPsdError) as err:
            psd_certify(np.diag([1.0, -0.5]))
        assert err.value.min_eig == pytest.approx(-0.5)

    def test_symmetrises_an_array_once(self):
        # an input asymmetric within rounding is averaged with its transpose
        # once: symmetrising the average again would give the same bits,
        # so the data must be exactly 0.5 * (a + a.T)
        a = random_spd(np.random.default_rng(11), 4)
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        a[3, 2] *= 1.0 + 4.0 * np.finfo(float).eps
        assert (a != a.T).any()
        cert = psd_certify(a)
        assert cert.data.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert not np.shares_memory(cert.data, a)
        assert not cert.data.flags.writeable

    def test_symmetric_input_is_used_without_a_copy(self):
        cert = psd_certify(random_spd(np.random.default_rng(12), 3))
        assert psd_certify(cert).data is cert.data
        assert sym_data(cert) is cert.data

    @pytest.mark.parametrize("entries", [
        [[np.nan]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[-np.inf]],
        [[np.inf]],
    ])
    def test_matrix_that_is_not_finite_is_rejected(self, entries):
        # its spectrum holds a NaN, which no comparison with the bound
        # accepts, or an infinity, which makes the bound infinite
        with pytest.raises(NotPsdError):
            psd_certify(entries)

    @pytest.mark.parametrize("top", [3e-9, 0.5, 2.0, 1e6])
    def test_strictness_and_rejection_exactly_at_the_bound(self, top):
        # bound = DEFAULT_TOL * max(1, |lambda|_max); a smallest eigenvalue
        # of exactly -bound is accepted and one of exactly +bound is not
        # strict, the next doubles beyond each are rejected and strict
        bound = DEFAULT_TOL * max(1.0, top)

        def spectrum(low):
            m = np.diag([top, low])
            assert np.linalg.eigvalsh(m).tolist() == [low, top]
            return m

        on_lower = psd_certify(spectrum(-bound))
        assert on_lower.min_eig == -bound and not on_lower.strict
        below = np.nextafter(-bound, -np.inf)
        with pytest.raises(NotPsdError) as err:
            psd_certify(spectrum(below))
        assert err.value.min_eig == below
        assert not psd_certify(spectrum(bound)).strict
        assert psd_certify(spectrum(np.nextafter(bound, np.inf))).strict


class TestSqrtPsd:
    def test_diagonal(self):
        s = sqrt_psd(psd_certify(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(s, np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(psd_certify(np.eye(3))), np.eye(3))

    def test_roundtrip_rebuilds_input(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        a = m @ m.T
        s = sqrt_psd(psd_certify(a))
        assert np.abs(s @ s - a).max() <= 1e-10 * max(1.0, np.abs(a).max())

    def test_roundtrip_property(self):
        # 500 seeded PSD matrices across dims 1..6, relative error <= 1e-9
        rng = np.random.default_rng(17)
        for _ in range(500):
            d = int(rng.integers(1, 7))
            m = rng.standard_normal((d, d))
            a = m @ m.T
            s = sqrt_psd(psd_certify(a))
            scale = max(1.0, np.abs(a).max())
            assert np.abs(s @ s - a).max() <= 1e-9 * scale


class TestAdjugate:
    def test_two_by_two_swaps_diagonal(self):
        np.testing.assert_allclose(
            adjugate(np.diag([0.9, 5.5])), np.diag([5.5, 0.9])
        )

    def test_identity_three(self):
        np.testing.assert_allclose(adjugate(np.eye(3)), np.eye(3))

    def test_singular_input(self):
        np.testing.assert_allclose(adjugate(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_dim_one_convention(self):
        np.testing.assert_allclose(adjugate([[7.0]]), [[1.0]])

    def test_identity_property(self):
        # A @ adj(A) = det(A) I on 500 seeded symmetric matrices, dims 1..6,
        # including singular projections
        rng = np.random.default_rng(23)
        for k in range(500):
            d = int(rng.integers(1, 7))
            a = random_spd(rng, d, lo=-1.5, hi=2.0)  # indefinite allowed
            if k % 5 == 0 and d > 1:
                w, v = np.linalg.eigh(a)
                w[0] = 0.0
                a = (v * w) @ v.T
            adj = adjugate(a)
            det = np.linalg.det(a)
            scale = max(1.0, abs(det), np.abs(a).max() * np.abs(adj).max())
            assert np.abs(a @ adj - det * np.eye(d)).max() <= 1e-9 * scale

    @pytest.mark.parametrize("d", range(1, 7))
    def test_exact_integer_cofactors(self, d):
        # symmetric integer matrices of full rank, of rank d - 1 and d - 2,
        # and zero, against cofactors computed exactly over the rationals
        rng = np.random.default_rng(2800 + d)
        cases = [np.zeros((d, d))]
        for _ in range(4):
            b = rng.integers(-4, 5, size=(d, d))
            cases.append(b + b.T)
            for rank in range(max(d - 2, 1), d):
                c = rng.integers(-3, 4, size=(d, rank))
                cases.append(c @ c.T)
        for a in cases:
            exact = exact_adjugate(a)
            scale = max(1.0, np.linalg.norm(a, axis=1).max() ** (d - 1))
            assert np.abs(adjugate(a) - exact).max() <= 1e-12 * scale


def exact_det(rows) -> Fraction:
    """Determinant of an integer matrix by Gaussian elimination over the rationals."""
    m = [[Fraction(int(x)) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def exact_adjugate(a) -> np.ndarray:
    """``adj(A)[j, i] = (-1)^(i+j) det(A without row i and column j)``, exactly."""
    d = len(a)
    out = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            out[j, i] = (-1) ** (i + j) * exact_det(minor)
    return out


def normalized_cross(joint) -> np.ndarray:
    """``X = P1^{-1/2} P12 P2^{-1/2}``, the inverse roots taken by ``eigh``."""
    def inv_root(p):
        w, v = np.linalg.eigh(p.data)
        return (v / np.sqrt(w)) @ v.T

    return inv_root(joint.P1) @ joint.P12 @ inv_root(joint.P2)


class TestCrossParameter:
    def test_zero_cross(self):
        joint = joint_from_cross_parameter(np.eye(2), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(joint.P12, np.zeros((2, 2)))

    def test_scalar_case(self):
        joint = joint_from_cross_parameter([[4.0]], [[0.5]], [[1.0]])
        np.testing.assert_allclose(joint.P12, [[1.0]])

    def test_pd_joint_has_contractive_factor(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            joint = random_joint(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            assert joint.pd
            assert np.linalg.svd(normalized_cross(joint), compute_uv=False)[0] < 1.0

    def test_inverse_map_roundtrip(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            joint = random_joint(rng, 3, 2)
            rebuilt = joint_from_cross_parameter(joint.P1, normalized_cross(joint), joint.P2).P12
            assert np.abs(rebuilt - joint.P12).max() <= 1e-10 * max(1.0, np.abs(joint.P12).max())


class TestInverses:
    def test_inv_pd_matches_numpy(self):
        rng = np.random.default_rng(41)
        a = random_spd(rng, 4)
        np.testing.assert_allclose(inv_pd(a), np.linalg.inv(a), atol=1e-10)

    def test_inv_pd_rejects_indefinite(self):
        with pytest.raises(NotPdError):
            inv_pd(np.diag([1.0, -1.0]))


def _poles(shift: float):
    """``M = [[1/a + 1/(1 - a) - 4 - shift]]``, infinite at both ends, least at 1/2."""

    def m(a):
        return None if a in (0.0, 1.0) else np.array([[1.0 / a + 1.0 / (1.0 - a) - 4.0 - shift]])

    def dm(a):
        return (np.array([[(1.0 - a) ** -2 - a**-2]]),
                np.array([[2.0 * a**-3 + 2.0 * (1.0 - a) ** -3]]))

    return m, dm


class TestWeightSearch:
    def test_interval_between_two_poles(self):
        # 1/a + 1/(1 - a) <= 4 + tol exactly on the roots of a(1 - a) = 1/(4 + tol)
        tol = 0.01
        lo, hi = feasible_weight_interval(*_poles(0.0), tol, 0.1)
        half = 0.5 * np.sqrt(1.0 - 4.0 / (4.0 + tol))
        # each end qualifies, so it lies inside the exact end up to rounding
        assert -1e-14 <= lo - (0.5 - half) <= PETERSEN_WIDTH
        assert -1e-14 <= (0.5 + half) - hi <= PETERSEN_WIDTH

    @pytest.mark.parametrize("start", [0.0, 1.0, 1e-9, 0.3])
    def test_infinite_ends_are_never_evaluated(self, start):
        seen = []
        m, dm = _poles(0.0)

        def spied(a):
            value = m(a)
            if value is not None:
                seen.append(a)
            return value

        assert 0.49 < first_feasible_weight(spied, dm, 1e-3, start) < 0.51
        assert seen and all(0.0 < a < 1.0 for a in seen)

    @pytest.mark.parametrize("start", [1e-300, 0.1, 0.95])
    def test_overflowing_slopes_are_never_evaluated(self, start):
        # M' is infinite below 0.2 and above 0.9, as where a tiny weight
        # overflows it: those weights bound the bracket like the ends
        m, dm = _poles(0.0)
        seen = []

        def clipped(a):
            inside = 0.2 <= a <= 0.9
            return dm(a) if inside else (np.full((1, 1), -np.inf), np.full((1, 1), np.inf))

        def spied(a):
            value = m(a)
            if value is not None and 0.2 <= a <= 0.9:
                seen.append(a)
            return value

        assert 0.49 < first_feasible_weight(spied, clipped, 1e-3, start) < 0.51
        iterates = [a for a, *_ in newton_weights(spied, clipped, start)]
        assert iterates and all(0.2 <= a <= 0.9 for a in iterates)

    def test_infinite_curvature_drops_only_the_newton_step(self):
        # with M'' infinite everywhere the cut and bisection still find the
        # minimiser, and no numpy warning is raised
        m, dm = _poles(0.0)
        flat = first_feasible_weight(m, lambda a: (dm(a)[0], np.full((1, 1), np.inf)), 1e-3, 0.1)
        assert 0.49 < flat < 0.51

    def test_nothing_evaluable_ends_the_iterates(self):
        # every weight overflows: each one shrinks the bracket until it closes
        assert list(newton_weights(lambda a: None, None, 0.3)) == []

    def test_tangents_prove_an_empty_set(self):
        # the minimum is 1 above the tolerance: two tangents prove it
        m, dm = _poles(-1.0)
        calls = []
        assert first_feasible_weight(lambda a: calls.append(a) or m(a), dm, 0.0, 0.3) is None
        assert feasible_weight_interval(m, dm, 0.0, 0.3) is None
        assert len(calls) <= 20

    def test_feasible_end_is_exact(self):
        # M = [[a - 1/4]]: every weight up to 1/4 qualifies, so 0.0 exactly
        zero = np.zeros((1, 1))
        lo, hi = feasible_weight_interval(
            lambda a: np.array([[a - 0.25]]), lambda a: (np.ones((1, 1)), zero), 0.0, 0.9
        )
        assert lo == 0.0 and 0.25 - PETERSEN_WIDTH <= hi <= 0.25

    def test_kink_of_two_eigenvalues(self):
        # lambda_max(diag(3/2 - 3a, 3a - 3/2)) = |3a - 3/2|: Newton's second
        # derivative is zero, and the tangents' crossing lands on the kink
        zero = np.zeros((2, 2))
        tol = 1e-6
        lo, hi = feasible_weight_interval(
            lambda a: np.diag([1.5 - 3.0 * a, 3.0 * a - 1.5]),
            lambda a: (np.diag([-3.0, 3.0]), zero), tol, 0.0,
        )
        assert abs(lo - (0.5 - tol / 3.0)) <= PETERSEN_WIDTH
        assert abs(hi - (0.5 + tol / 3.0)) <= PETERSEN_WIDTH
