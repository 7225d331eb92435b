import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from uqd import models
from uqd.errors import NumericalError, ValidationError
from uqd.linalg import (
    DEFAULT_TOL,
    Tolerance,
    density,
    frobenius,
    identity_shift,
    kron_sum_core,
    kron_sum_norm,
    matrix_exponential,
    normalize,
    numerical_rank,
    proportionality_coefficient,
    stack_factor,
    superoperator_matrix,
    unvec,
    vec,
)
from uqd.representation import Representation, _generator_terms, liouvillian_matrix
from conftest import ket
import dense_reference
from helpers import (
    haar_isometry,
    qme_gauge_variant,
    random_minimal_representation,
    random_pure_state,
    random_unitary,
)


def dyad(i, j, dim=3):
    return np.outer(ket(dim, i), ket(dim, j).conj())


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.atol == 1e-10 and DEFAULT_TOL.rtol == 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Tolerance(atol=-1.0)

    @pytest.mark.parametrize(
        "atol, rtol",
        [(np.nan, 1e-10), (1e-10, np.nan), (np.inf, 1e-10), (1e-10, np.inf)],
        ids=["atol-nan", "rtol-nan", "atol-inf", "rtol-inf"],
    )
    def test_non_finite_rejected(self, atol, rtol):
        # a NaN cutoff fails every comparison, which read as a wrong verdict
        with pytest.raises(ValidationError, match="finite"):
            Tolerance(atol, rtol)

    def test_cutoff_mixes_absolute_and_relative(self):
        tol = Tolerance(atol=1e-10, rtol=1e-6)
        assert tol.cutoff(1e-3) == 1e-9
        assert tol.cutoff(1e-6) == 1e-10


class TestNumericalRank:
    def test_dyad_is_rank_one(self):
        assert numerical_rank(dyad(0, 1)) == 1

    def test_shared_dephasing_operator_is_rank_two(self):
        # two nonzero eigenvalues by construction
        assert numerical_rank(models.shared_dephasing_operator()) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_unitary_invariance(self, rng):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat[:, 3] = mat[:, 0]  # force rank deficiency
        base = numerical_rank(mat)
        for seed in range(5):
            u = random_unitary(4, np.random.default_rng(seed))
            v = random_unitary(4, np.random.default_rng(seed + 100))
            assert numerical_rank(u @ mat @ v, Tolerance(1e-10, 1e-10)) == base


class TestProportionality:
    def test_exact_scaling(self):
        b = dyad(0, 1)
        lam = proportionality_coefficient(2j * b, b)
        assert lam == pytest.approx(2j)

    def test_dephasing_pair_coefficient(self):
        # J_5 with lam=2, split angle pi/3, zero phase reduces to sqrt(3) times
        # the shared operator: 2 * sin(pi/3) = sqrt(3).
        rep = models.qutrit_a()
        lam = proportionality_coefficient(rep.jumps[4], models.shared_dephasing_operator())
        assert lam == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_orthogonal_dyads_not_proportional(self):
        assert proportionality_coefficient(dyad(0, 1), dyad(0, 2)) is None

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError, match="degenerate reference"):
            proportionality_coefficient(dyad(0, 1), np.zeros((3, 3)))

    @given(
        re=st.floats(-5, 5),
        im=st.floats(-5, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_coefficients(self, re, im, seed):
        lam = complex(re, im)
        if abs(lam) < 1e-3:
            return
        gen = np.random.default_rng(seed)
        b = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        a = lam * b
        forward = proportionality_coefficient(a, b)
        backward = proportionality_coefficient(b, a)
        assert forward is not None and backward is not None
        assert forward * backward == pytest.approx(1.0, abs=1e-9)


class TestSuperoperatorMatrix:
    def test_identity_channel(self):
        assert np.allclose(superoperator_matrix([np.eye(2)]), np.eye(4))

    def test_reset_block_recombination_matches(self):
        # splitting a reset block differently leaves the summed action intact
        a = models.qutrit_a()
        a_min = models.qutrit_a_minimal()
        lhs = superoperator_matrix(a.jumps[:3])
        rhs = superoperator_matrix(a_min.jumps[:2])
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dephasing_pair_matches_merged_operator(self):
        a = models.qutrit_a()
        merged = superoperator_matrix([2.0 * models.shared_dephasing_operator()])
        assert np.allclose(superoperator_matrix(a.jumps[3:]), merged, atol=1e-12)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            superoperator_matrix([np.eye(2), np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            superoperator_matrix([])

    def test_vectorization_consistency(self, rng):
        # acting on vec(|psi><psi|) must reproduce the direct Kraus sum
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            kraus = [
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(int(rng.integers(1, 4)))
            ]
            psi = random_pure_state(dim, rng)
            rho = density(psi)
            direct = sum(k @ rho @ k.conj().T for k in kraus)
            via_matrix = unvec(superoperator_matrix(kraus) @ vec(rho))
            assert np.max(np.abs(via_matrix - direct)) < 1e-12 * max(1, np.abs(direct).max())


class TestKronSumNorm:
    @staticmethod
    def terms(rng, rep, m):
        """``m`` random combinations of the model's operators, as factors."""
        pool = [rep.hamiltonian, np.eye(rep.dim), *rep.jumps, *(j.conj() for j in rep.jumps)]

        def draw():
            weights = rng.standard_normal(len(pool)) + 1j * rng.standard_normal(len(pool))
            return sum(w * op for w, op in zip(weights, pool))

        return [draw() for _ in range(m)], [draw() for _ in range(m)]

    @staticmethod
    def assert_cores_match_dense(lefts, rights, split):
        """Both column subsets of one factored stack, and their difference,
        against the dense norms of those terms."""
        r_lefts, r_rights = stack_factor(lefts), stack_factor(rights)
        head = kron_sum_core(r_lefts, r_rights, slice(None, split))
        tail = kron_sum_core(r_lefts, r_rights, slice(split, None))
        negated = rights[:split] + [-r for r in rights[split:]]
        for core, dense in (
            (head, dense_reference.kron_sum_norm(lefts[:split], rights[:split])),
            (tail, dense_reference.kron_sum_norm(lefts[split:], rights[split:])),
            (head + tail, dense_reference.kron_sum_norm(lefts, rights)),
            (head - tail, dense_reference.kron_sum_norm(lefts, negated)),
        ):
            assert abs(frobenius(core) - dense) <= 1e-12 * dense

    def test_equals_dense_norm(self, rng):
        # m below and above dim^2, where the factors' QR becomes rank-deficient
        for dim in range(2, 7):
            rep = random_minimal_representation(rng, dim, n_reset=1, n_nonreset=1)
            for m in (1, 3, dim * dim + 3):
                lefts, rights = self.terms(rng, rep, m)
                dense = dense_reference.kron_sum_norm(lefts, rights)
                assert abs(kron_sum_norm(lefts, rights) - dense) <= 1e-12 * dense
                if m > 1:
                    self.assert_cores_match_dense(lefts, rights, int(rng.integers(1, m)))

    def test_generator_cores_equal_dense_generators(self, rng):
        # the generator comparison's stacks: one generator, rewritten by an
        # averaged-state gauge, against the other with one level moved by
        # 1e-3, so the gap (the difference of the two cores) cancels most of
        # the terms
        for dim in (2, 3, 5):
            rep = random_minimal_representation(rng, dim, n_reset=2, n_nonreset=1)
            gauged = qme_gauge_variant(rng, rep)
            other = Representation(
                gauged.hamiltonian + np.diag([1e-3] + [0.0] * (dim - 1)), gauged.jumps
            )
            lefts_a, rights_a = _generator_terms(rep)
            lefts_b, rights_b = _generator_terms(other)
            self.assert_cores_match_dense(lefts_a + lefts_b, rights_a + rights_b, len(lefts_a))

    def test_cancelling_terms_resolve_small_gaps(self, rng):
        # a gap 1e-11 below the terms' size is resolved to 1e-3 of itself;
        # the Gram-trace form of the norm would lose it to rounding
        rep = random_minimal_representation(rng, 4, n_reset=1, n_nonreset=2)
        lefts, rights = self.terms(rng, rep, 5)
        scale = kron_sum_norm(lefts, rights)
        exact = kron_sum_norm(lefts * 2, rights + [-r for r in rights])
        assert exact <= 1e-14 * scale
        gap = kron_sum_norm(lefts * 2, rights + [-(1 - 1e-11) * r for r in rights])
        assert gap == pytest.approx(1e-11 * scale, rel=1e-3)

    def test_unequal_lists_rejected(self):
        with pytest.raises(ValidationError):
            kron_sum_norm([np.eye(2)], [])
        with pytest.raises(ValidationError):
            kron_sum_norm([], [])


class TestIdentityShift:
    def test_pure_shift(self):
        assert identity_shift(3.7 * np.eye(3)) == pytest.approx(3.7)

    def test_non_shift(self):
        assert identity_shift(np.diag([1.0, 1.0, 1.5])) is None

    def test_perturbation_below_atol(self):
        mat = 2.0 * np.eye(2) + 1e-14 * dyad(0, 1, dim=2)
        assert identity_shift(mat) == pytest.approx(2.0, abs=1e-12)


class TestMatrixExponential:
    """Held to scipy's Pade ``expm`` (Higham, SIAM J. Matrix Anal. Appl. 26,
    1179, 2005), an exponential that shares no code with ``uqd``'s ladder."""

    # the error scale of the ladder's squarings: eps |A| times the larger of
    # 1 and exp(mu), mu the top eigenvalue of A's Hermitian part, which bounds
    # every level; relative where exp(A) is near that scale, absolute where
    # it is far below (strongly decaying normal A, a non-normal hump)
    @pytest.mark.parametrize("norm", [0.1, 1.0, 5.0, 50.0, 500.0])
    @pytest.mark.parametrize("normal", [False, True], ids=["general", "normal"])
    def test_random_complex_matrices_match_scipy(self, norm, normal):
        rng = np.random.default_rng(int(norm * 10))
        for _ in range(20):
            mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            if normal:
                basis = random_unitary(4, rng)
                mat = (basis * np.diag(mat)) @ basis.conj().T
            mat *= norm / np.linalg.norm(mat, 2)
            mu = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[-1]
            scale = max(1.0, norm) * max(1.0, np.exp(mu))
            assert np.linalg.norm((matrix_exponential(mat) - scipy.linalg.expm(mat)) / scale) <= 5e-15

    # a dense Liouvillian at t = 2, |L t|_2 about 9-18 here, and with every
    # jump x5: relative, since every level is a CPTP map.  The bound is
    # scipy's: on dim 8, seed 2, jumps x5, 30-digit mpmath puts scipy 1.4e-14
    # and this ladder 1.4e-15 from the exponential
    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("jump_scale", [1.0, 5.0])
    def test_dense_liouvillians_match_scipy(self, dim, jump_scale):
        for seed in range(3):
            rep = random_minimal_representation(np.random.default_rng(seed), dim, n_reset=2, n_nonreset=1)
            rep = Representation(rep.hamiltonian, [jump * jump_scale for jump in rep.jumps])
            gen = liouvillian_matrix(rep) * 2.0
            ref = scipy.linalg.expm(gen)
            assert np.linalg.norm(matrix_exponential(gen) - ref) <= 5e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "mat, error, message",
        [
            (np.diag([800.0, 0.0]), NumericalError, "matrix exponential overflows"),
            (np.diag([1e200, 0.0]), NumericalError, "matrix exponential overflows"),
            (np.full((2, 2), 1e308), ValidationError, "norm bound of the matrix overflows"),
        ],
        ids=["exp-800", "exp-1e200", "bound-1e308"],
    )
    def test_overflow_is_named(self, mat, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                matrix_exponential(mat)

    def test_zero(self):
        assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_half_period_rotation(self):
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(matrix_exponential(1j * np.pi * sigma_x), -np.eye(2), atol=1e-12)

    def test_against_taylor_series(self, qutrit_a):
        from uqd.representation import effective_hamiltonian

        gen = -1j * effective_hamiltonian(qutrit_a) * 0.1
        taylor = np.zeros_like(gen)
        term = np.eye(3, dtype=complex)
        for order in range(21):
            taylor = taylor + term
            term = term @ gen / (order + 1)
        assert np.max(np.abs(matrix_exponential(gen) - taylor)) < 1e-10

    def test_inverse_pairing(self, rng):
        for _ in range(10):
            mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mat *= 5.0 / max(1.0, np.linalg.norm(mat, 2))
            prod = matrix_exponential(mat) @ matrix_exponential(-mat)
            assert np.max(np.abs(prod - np.eye(4))) < 1e-10


class TestRandomPureState:
    def test_dim_one_has_unit_modulus(self):
        state = random_pure_state(1, 5)
        assert abs(state[0]) == pytest.approx(1.0)

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_pure_state(3, 42), random_pure_state(3, 42))

    def test_zero_dim_rejected(self):
        with pytest.raises(ValidationError):
            random_pure_state(0, 1)

    def test_first_amplitude_moment(self):
        # Haar moment E|a_0|^2 = 1/dim, Monte Carlo check
        gen = np.random.default_rng(7)
        samples = np.array([abs(random_pure_state(3, gen)[0]) ** 2 for _ in range(100_000)])
        assert samples.mean() == pytest.approx(1 / 3, abs=0.01)


class TestSmallHelpers:
    def test_vec_unvec_roundtrip(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(unvec(vec(mat)), mat)

    def test_vec_is_column_stacking(self):
        mat = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(mat), np.array([1, 3, 2, 4], dtype=complex))

    def test_haar_isometry_columns_orthonormal(self, rng):
        iso = haar_isometry(5, 3, rng)
        assert np.allclose(iso.conj().T @ iso, np.eye(3), atol=1e-12)

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValidationError):
            normalize(np.zeros(3))


class TestNormalize:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="state vector entries must be finite"):
            normalize(np.array([bad, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ([1e308, 1e308, 0], [2**-0.5, 2**-0.5, 0]),
            ([-1e308j, 1e308, 0], [-(2**-0.5) * 1j, 2**-0.5, 0]),
            ([1e-320, 0, 0], [1, 0, 0]),
            ([1e-170, 1e-170j, 0], [2**-0.5, 2**-0.5 * 1j, 0]),
        ],
        ids=["overflow", "overflow-complex", "subnormal", "underflow"],
    )
    def test_extreme_norms_rescaled(self, raw, expected):
        assert np.allclose(normalize(np.array(raw)), np.array(expected), rtol=0, atol=1e-15)

    def test_ordinary_vectors_keep_their_bits(self, rng):
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            psi = scale * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            assert np.array_equal(normalize(psi), psi / np.linalg.norm(psi))
