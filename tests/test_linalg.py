import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifusion.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotPdError,
    NotPsdError,
)
from cifusion.linalg import (
    DEFAULT_TOL,
    PETERSEN_WIDTH,
    PINV_RTOL,
    LoewnerRelation,
    SymMatrix,
    _block_psd_margin,
    _pinv_eigs,
    adjugate,
    block_psd_check,
    feasible_weight_interval,
    first_feasible_weight,
    inv_pd,
    loewner_compare,
    pinv_sym,
    psd_certify,
    sqrt_psd,
)
from cifusion.known_cross import JointCovariance
from cifusion.optimizer import Cost, solve_ci
from cifusion.verifier import q_pair

from conftest import block_psd_margin_reference, random_joint, random_problem, random_spd


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(m.data, [[1.0, 1.0], [1.0, 3.0]])

    def test_backing_array_is_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            SymMatrix(np.ones((2, 3)))


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
        sym = SymMatrix(random_spd(np.random.default_rng(12), 3))
        cert = psd_certify(sym)
        assert cert.base is sym and cert.data is sym.data
        assert psd_certify(cert).base is sym

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
        np.testing.assert_allclose(s.data, np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(psd_certify(np.eye(3))).data, np.eye(3))

    def test_roundtrip_rebuilds_input(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        a = m @ m.T
        s = sqrt_psd(psd_certify(a))
        assert np.abs(s.data @ s.data - a).max() <= 1e-10 * max(1.0, np.abs(a).max())

    def test_roundtrip_property(self):
        # 500 seeded PSD matrices across dims 1..6, relative error <= 1e-9
        rng = np.random.default_rng(17)
        for _ in range(500):
            d = int(rng.integers(1, 7))
            m = rng.standard_normal((d, d))
            a = m @ m.T
            s = sqrt_psd(psd_certify(a)).data
            scale = max(1.0, np.abs(a).max())
            assert np.abs(s @ s - a).max() <= 1e-9 * scale


class TestAdjugate:
    def test_two_by_two_swaps_diagonal(self):
        np.testing.assert_allclose(
            adjugate(np.diag([0.9, 5.5])).data, np.diag([5.5, 0.9])
        )

    def test_identity_three(self):
        np.testing.assert_allclose(adjugate(np.eye(3)).data, np.eye(3))

    def test_singular_input(self):
        np.testing.assert_allclose(adjugate(np.diag([1.0, 0.0])).data, np.diag([0.0, 1.0]))

    def test_dim_one_convention(self):
        np.testing.assert_allclose(adjugate([[7.0]]).data, [[1.0]])

    def test_identity_property(self):
        # A @ adj(A) = det(A) I on 500 seeded symmetric matrices, dims 1..6,
        # including singular projections to exercise the fallback paths
        rng = np.random.default_rng(23)
        for k in range(500):
            d = int(rng.integers(1, 7))
            a = random_spd(rng, d, lo=-1.5, hi=2.0)  # indefinite allowed
            if k % 5 == 0 and d > 1:
                w, v = np.linalg.eigh(a)
                w[0] = 0.0
                a = (v * w) @ v.T
            adj = adjugate(a).data
            det = np.linalg.det(a)
            scale = max(1.0, abs(det), np.abs(a).max() * np.abs(adj).max())
            assert np.abs(a @ adj - det * np.eye(d)).max() <= 1e-9 * scale


class TestBlockPsdCheck:
    def test_diagonal_identity(self):
        assert block_psd_check(np.eye(2), np.zeros((2, 2)), np.eye(2)) is True

    def test_failing_schur_complement(self):
        assert block_psd_check([[1.0]], [[2.0]], [[1.0]]) is False

    def test_rank_one_boundary(self):
        assert block_psd_check([[1.0]], [[1.0]], [[1.0]]) is True

    def test_agrees_with_direct_eigenvalues(self):
        # 1000 randomized blocks, PSD and non-PSD mixed, zero inconsistencies
        rng = np.random.default_rng(29)
        tol = 1e-8
        for _ in range(1000):
            nq = int(rng.integers(1, 4))
            nr = int(rng.integers(1, 4))
            if rng.uniform() < 0.5:
                g = rng.standard_normal((nq + nr, nq + nr + 1))
                t = g @ g.T
            else:
                t = random_spd(rng, nq + nr, lo=-1.0, hi=2.0)
            q, s, r = t[:nq, :nq], t[:nq, nq:], t[nq:, nq:]
            expected = bool(np.linalg.eigvalsh(t)[0] >= -tol * max(1.0, np.abs(np.linalg.eigvalsh(t)).max()))
            assert block_psd_check(q, s, r) == expected


    def test_verdict_matches_assembled_block_for_general_r(self):
        # R non-diagonal PSD, singular PSD (S in its range or not) or
        # indefinite: the verdict in R's eigenbasis is the assembled block's
        # wherever its smallest eigenvalue is clear of the tolerance band
        rng = np.random.default_rng(43)
        kinds = set()
        for k in range(600):
            nq, nr = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            kind = ("pd", "singular", "singular_off_range", "indefinite")[k % 4]
            g = rng.standard_normal((nq + nr, nq + nr + 1))
            if kind != "pd":
                g[nq:, : nr - 1] = 0.0  # R = B B.T of rank one, S = A B.T in its range ...
                g[nq:, nr:] = 0.0
            t = g @ g.T
            if kind == "pd" and k % 8 == 0:
                t[:nq, :nq] -= rng.uniform(0.0, 3.0) * np.eye(nq)  # Q may lose the block
            elif kind == "singular_off_range":
                t[:nq, nq:] += rng.standard_normal((nq, nr))  # ... S leaves its range
            elif kind == "indefinite":
                t[nq:, nq:] -= rng.uniform(0.1, 1.0) * np.eye(nr)
            t = 0.5 * (t + t.T)
            q, s, r = t[:nq, :nq], t[:nq, nq:], t[nq:, nq:]
            assert np.any(r != np.diag(np.diag(r)))
            eigs = np.linalg.eigvalsh(t)
            band = 1e-8 * max(1.0, np.abs(eigs).max())
            if abs(eigs[0]) <= 10.0 * band:
                continue
            kinds.add((kind, bool(eigs[0] > 0.0)))
            assert block_psd_check(q, s, r) == bool(eigs[0] > 0.0), kind
        assert kinds >= {("pd", True), ("pd", False), ("singular_off_range", False),
                         ("indefinite", False)}

    def test_diagonal_form_with_a_zero_r_block(self):
        # the LMI at alpha = 0 or 1: one R block is zero, so the block is
        # PSD only if the matching columns of S vanish
        q = np.diag([2.0, 1.0])
        s = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.3]])
        for r_eigs, cols in (([0.0, 0.0, 1.0], slice(0, 2)), ([1.0, 0.0, 0.0], slice(1, 3))):
            s_alpha = np.roll(s, 0 if cols.start == 0 else -2, axis=1)
            block = np.block([[q, s_alpha], [s_alpha.T, np.diag(r_eigs)]])
            passed, min_eig = _block_psd_margin(q, s_alpha, np.array(r_eigs))
            assert passed is True
            assert min_eig == np.linalg.eigvalsh(block)[0]
            leaked = s_alpha.copy()
            leaked[0, cols.start] = 1e-3
            assert _block_psd_margin(q, leaked, np.array(r_eigs))[0] is False
            assert block_psd_check(q, leaked, np.diag(r_eigs)) is False

    def test_diagonal_pseudo_inverse_threshold(self):
        r = np.array([1.0, 2.0 * PINV_RTOL, 0.5 * PINV_RTOL, 0.0, -0.5])
        np.testing.assert_array_equal(_pinv_eigs(r), np.diag(pinv_sym(np.diag(r))))
        np.testing.assert_array_equal(
            _pinv_eigs(r), [1.0, 1.0 / (2.0 * PINV_RTOL), 0.0, 0.0, -2.0]
        )
        # an R eigenvalue below the threshold counts as zero: S must vanish
        # on it for the Schur route, and here the two routes agree
        q = np.eye(1)
        for tiny in (0.5 * PINV_RTOL, 2.0 * PINV_RTOL):
            r_eigs = np.array([1.0, tiny])
            assert _block_psd_margin(q, np.array([[0.5, 0.0]]), r_eigs)[0] is True
            assert _block_psd_margin(q, np.array([[0.5, 1e-3]]), r_eigs)[0] is False

    def test_margin_matches_its_reference_bit_for_bit(self):
        # random blocks at scales 1e-8 to 1e8, with Q losing the block, R
        # slightly indefinite or below the pseudo-inverse threshold, zero
        # coupling, the certificate's blocks at alpha = 0, 1 and the
        # optimum, and the leaked coupling of a zero R block.  An R
        # eigenvalue slightly below zero yet above the pseudo-inverse
        # threshold, with S coupled to it, turns the Schur route's verdict
        # and raises in both
        verdicts = set()
        for q, s, r_eigs in margin_cases():
            want = margin_outcome(block_psd_margin_reference, q, s, r_eigs)
            assert margin_outcome(_block_psd_margin, q, s, r_eigs) == want
            verdicts.add(want if want == "raised" else want[0])
        assert verdicts == {True, False, "raised"}

    @pytest.mark.parametrize("size, below, expected", [
        (5, 5.0, "raised"),   # the block's spectrum clearly below zero
        (5, 1e-7, False),     # past its band (3e-8), inside ten: the direct verdict
        (2, 5.0, "raised"),   # the Schur complement's clearly below zero
        (2, 5e-8, True),      # past its band (1e-8), inside ten: the direct verdict
        (3, 5.0, True),       # neither spectrum moved
    ])
    def test_disagreement_raises_where_the_reference_raises(self, monkeypatch, size, below,
                                                           expected):
        # the two routes cannot disagree in exact arithmetic on a PSD R, so
        # an eigvalsh that lowers the spectrum of one size to ``below``
        # under zero makes them: of the 5 x 5 block or of the 2 x 2 Schur
        # complement
        q = np.diag([3.0, 2.0])
        s = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        r_eigs = np.array([1.0, 1.0, 0.5])
        real = np.linalg.eigvalsh
        lowest = {5: real(np.block([[q, s], [s.T, np.diag(r_eigs)]]))[0],
                  2: real(q - s @ s.T)[0], 3: 0.0}[size]
        assert lowest >= 0.0

        def lowered(m):
            eigs = real(m)
            return eigs - (lowest + below) if m.shape[-1] == size else eigs

        monkeypatch.setattr(np.linalg, "eigvalsh", lowered)
        want = margin_outcome(block_psd_margin_reference, q, s, r_eigs)
        got = margin_outcome(_block_psd_margin, q, s, r_eigs)
        assert got == want
        assert (got if got == "raised" else got[0]) == expected


def margin_outcome(fn, q, s, r_eigs):
    """``fn(q, s, r_eigs)``, or ``"raised"`` if it raised :class:`InternalInconsistencyError`."""
    try:
        verdict, min_eig = fn(q, s, r_eigs)
    except InternalInconsistencyError:
        return "raised"
    assert type(verdict) is bool and type(min_eig) is float
    return verdict, np.float64(min_eig).tobytes()


def margin_cases():
    """``(q, s, r_eigs)`` blocks for the block margin against its reference."""
    rng = np.random.default_rng(2301)
    for k in range(400):
        nq, nr = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        g = rng.standard_normal((nq + nr, nq + nr + 1)) * 10.0 ** rng.uniform(-4.0, 4.0)
        t = g @ g.T
        if k % 4 == 1:
            t[:nq, :nq] -= rng.uniform(0.0, 3.0) * np.abs(t).max() * np.eye(nq)
        q = 0.5 * (t[:nq, :nq] + t[:nq, :nq].T)
        r_eigs = np.diagonal(t)[nq:].copy()
        if k % 4 == 2:
            r_eigs[0] = -rng.uniform(0.0, 1e-7) * np.abs(t).max()
        elif k % 4 == 3:
            r_eigs[0] *= rng.choice([0.0, 0.5 * PINV_RTOL, 2.0 * PINV_RTOL])
        yield q, t[:nq, nq:].copy(), r_eigs
        yield q, np.zeros((nq, nr)), r_eigs
    # the certificate's blocks at the singular ends alpha = 0 and 1
    for seed in range(30):
        problem = random_problem(np.random.default_rng(seed))
        result = solve_ci(problem, Cost.DET if seed % 2 else Cost.TRACE)
        q1, q2 = q_pair(result, problem)
        for alpha in (0.0, 1.0, result.alpha):
            r_eigs = np.array([alpha] * problem.p1 + [1.0 - alpha] * problem.p2)
            yield result.P_hat.data, np.hstack([q1, q2]), r_eigs
    # the zero-R block of the LMI at an end, and its leaked coupling
    q = np.diag([2.0, 1.0])
    for s in ([[0.0, 0.0, 0.5], [0.0, 0.0, 0.3]], [[1e-3, 0.0, 0.5], [0.0, 0.0, 0.3]]):
        yield q, np.array(s), np.array([0.0, 0.0, 1.0])


def normalized_cross(joint) -> np.ndarray:
    """``X = P1^{-1/2} P12 P2^{-1/2}``, the inverse roots taken by ``eigh``."""
    def inv_root(p):
        w, v = np.linalg.eigh(p.data)
        return (v / np.sqrt(w)) @ v.T

    return inv_root(joint.P1) @ joint.P12 @ inv_root(joint.P2)


class TestCrossParameter:
    def test_zero_cross(self):
        joint = JointCovariance.from_cross_parameter(np.eye(2), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(joint.P12, np.zeros((2, 2)))

    def test_scalar_case(self):
        joint = JointCovariance.from_cross_parameter([[4.0]], [[0.5]], [[1.0]])
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
            rebuilt = JointCovariance.from_cross_parameter(
                joint.P1, normalized_cross(joint), joint.P2
            ).P12
            assert np.abs(rebuilt - joint.P12).max() <= 1e-10 * max(1.0, np.abs(joint.P12).max())


class TestInverses:
    def test_inv_pd_matches_numpy(self):
        rng = np.random.default_rng(41)
        a = random_spd(rng, 4)
        np.testing.assert_allclose(inv_pd(a), np.linalg.inv(a), atol=1e-10)

    def test_inv_pd_rejects_indefinite(self):
        with pytest.raises(NotPdError):
            inv_pd(np.diag([1.0, -1.0]))

    def test_pinv_on_singular_matrix(self):
        a = np.diag([2.0, 0.0])
        np.testing.assert_allclose(pinv_sym(a), np.diag([0.5, 0.0]))


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
