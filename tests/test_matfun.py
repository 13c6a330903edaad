"""Matrix function tests.

The directional derivative of the log is checked against three references.
The block-matrix oracle reads it off log([[X, H], [0, X]]) through SciPy's
general dense logm (inverse scaling and squaring with Pade approximants), a
code path `dlog` does not use. Central differences of the eigh-based log and
the divided-difference formula at diagonal base points share the
eigendecomposition route with `dlog` and back up the oracle.
"""

import numpy as np
import pytest
import scipy.linalg

from helpers import rand_spd, rand_sym
from spdalign import matfun
from spdalign.errors import (
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    ValidationError,
)


def dlog_central_difference(X, H, h=1e-5):
    return (matfun.spd_log(X + h * H) - matfun.spd_log(X - h * H)) / (2.0 * h)


def dlog_diagonal_oracle(x, H):
    """Closed form at X = diag(x): entrywise divided differences of log."""
    n = len(x)
    D = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if x[i] == x[j]:
                D[i, j] = H[i, j] / x[i]
            else:
                D[i, j] = H[i, j] * (np.log(x[i]) - np.log(x[j])) / (x[i] - x[j])
    return D


def dlog_block_oracle(X, H):
    """The (1,2) block of the dense log of the block matrix [[X, H], [0, X]]."""
    n = X.shape[0]
    B = np.block([[X, H], [np.zeros_like(X), X]])
    L = scipy.linalg.logm(B)
    return np.real(L[:n, n:])


def spd_with_spectrum(rng, w):
    Q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    return matfun.symmetrize((Q * w) @ Q.T)


class TestEigBackedFunctions:
    def test_log_of_identity_is_zero(self):
        assert np.allclose(matfun.spd_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_log_of_diagonal(self):
        X = np.diag([np.e, np.e**2])
        assert np.allclose(matfun.spd_log(X), np.diag([1.0, 2.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_exp_log_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 6, cond_spread=2.0)
        assert np.allclose(matfun.spd_exp(matfun.spd_log(X)), X, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_exp_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        H = rand_sym(rng, 6)
        assert np.allclose(matfun.spd_log(matfun.spd_exp(H)), H, rtol=1e-9, atol=1e-11)

    def test_outputs_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        X = rand_spd(rng, 7, cond_spread=3.0)
        for f in (matfun.spd_log, matfun.spd_exp):
            Y = f(X)
            assert np.array_equal(Y, Y.T)

    @pytest.mark.parametrize("f", [matfun.spd_log, matfun.spd_exp])
    def test_rejects_stack(self, f):
        # as many matrices as rows: eigenvalues scaling the wrong axis would
        # still give a result of the right shape
        with pytest.raises(NonSymmetricError):
            f(np.stack([np.eye(3)] * 3))

    def test_sym_eig_ascending(self):
        rng = np.random.default_rng(11)
        A = rand_sym(rng, 8)
        w, Q = matfun.sym_eig(A)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose((Q * w) @ Q.T, A, atol=1e-12)

    def test_rejects_nonsymmetric(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetricError):
            matfun.spd_log(A)

    def test_rejects_indefinite(self):
        X = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            matfun.spd_log(X)

    def test_rejects_singular(self):
        X = np.diag([1.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError):
            matfun.spd_log(X)


class TestFailedCheckIndex:
    """A failed check carries the first failing position of a stack as
    `index`, None for one matrix, and its message names that position."""

    def test_symmetry(self):
        bad = np.triu(np.ones((3, 3)))
        stack = np.stack([np.eye(3), bad, np.eye(3), bad])
        with pytest.raises(NonSymmetricError) as got:
            matfun.check_symmetric(stack, "sample")
        assert got.value.index == 1
        assert str(got.value) == "sample 1 is not symmetric within tolerance"
        with pytest.raises(NonSymmetricError) as got:
            matfun.check_symmetric(np.stack([stack[::-1], stack]))
        assert got.value.index == (0, 0)
        with pytest.raises(NonSymmetricError) as got:
            matfun.check_symmetric(bad)
        assert got.value.index is None
        assert str(got.value) == "matrix is not symmetric within tolerance"

    def test_definiteness(self):
        stack = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0])])
        w = np.linalg.eigvalsh(stack)
        with pytest.raises(NotPositiveDefiniteError) as got:
            matfun.require_pd(w, stack, "sample")
        assert got.value.index == 2
        assert str(got.value).startswith("sample 2 has min eigenvalue")
        # ids relabel the position in the message, not the index
        ids = (np.array([7, 8, 9]), np.array([4, 5, 6]))
        with pytest.raises(NotPositiveDefiniteError) as got:
            matfun.require_pd(w, stack, "pair", ids)
        assert got.value.index == 2
        assert str(got.value).startswith("pair [9 6] has min eigenvalue")
        with pytest.raises(NotPositiveDefiniteError) as got:
            matfun.require_pd(w[2], stack[2])
        assert got.value.index is None
        assert str(got.value).startswith("matrix has min eigenvalue")

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_decided_as_entrywise_ratio(self, seed):
        """The check decides as max |A - A^T| / max(max |A|, 1) taken entry
        by entry, at the tolerance's edge and with NaN and inf entries."""
        rng = np.random.default_rng(seed)
        scales = rng.choice([1e-3, 1.0, 1e3], (64, 1, 1))
        stack = rng.standard_normal((64, 4, 4)) * scales
        stack = stack + np.swapaxes(stack, 1, 2)
        scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
        off = rng.choice([0.5, 0.999999, 1.0, 1.000001, 2.0], 64)
        stack[:, 0, 2] += off * matfun.SYM_RTOL * scale
        stack[5, 1, 1] = np.nan
        stack[6, 0, 3] = stack[6, 3, 0] = -np.inf
        stack[7, 0, 3] = np.inf
        for X in stack:
            with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
                ratio = (np.abs(X - X.T) / np.maximum(np.abs(X).max(), 1.0)).max()
            # outside errstate: the check itself warns of nothing, and a
            # warning fails the test
            if ratio > matfun.SYM_RTOL:
                with pytest.raises(NonSymmetricError):
                    matfun.check_symmetric(X)
            else:
                assert matfun.check_symmetric(X) is X
        # the NaN and inf matrices pass as a stack too, again without a warning
        assert matfun.check_symmetric(stack[5:8]) is not None


class TestLogDerivative:
    def test_at_base_point_along_itself_is_identity(self):
        rng = np.random.default_rng(0)
        X = rand_spd(rng, 5, cond_spread=2.0)
        assert np.allclose(matfun.dlog(X, X), np.eye(5), atol=1e-10)

    def test_at_identity_is_identity_map(self):
        rng = np.random.default_rng(1)
        H = rand_sym(rng, 5)
        assert np.allclose(matfun.dlog(np.eye(5), H), H, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 5, cond_spread=1.5)
        H = rand_sym(rng, 5)
        D = matfun.dlog(X, H)
        D_fd = dlog_central_difference(X, H)
        assert np.linalg.norm(D - D_fd) <= 1e-6 * max(1.0, np.linalg.norm(D_fd))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_diagonal_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        x = np.exp(rng.uniform(-1.5, 1.5, size=6))
        H = rand_sym(rng, 6)
        D = matfun.dlog(np.diag(x), H)
        assert np.allclose(D, dlog_diagonal_oracle(x, H), rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_block_log_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 6, cond_spread=2.0)
        H = rand_sym(rng, 6)
        D, ref = matfun.dlog(X, H), dlog_block_oracle(X, H)
        assert np.linalg.norm(D - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("gap", [0.0, 1e-14, 1e-10, 1e-6, 1e-3])
    def test_near_degenerate_spectrum(self, gap):
        # one eigenvalue pair at the given relative gap, one exactly repeated
        rng = np.random.default_rng(12)
        w = np.exp(rng.uniform(-1.0, 1.0, size=6))
        w[1] = w[0] * (1.0 + gap)
        w[3] = w[2]
        X = spd_with_spectrum(rng, w)
        H = rand_sym(rng, 6)
        D, ref = matfun.dlog(X, H), dlog_block_oracle(X, H)
        assert np.all(np.isfinite(D))
        assert np.array_equal(D, D.T)
        assert np.linalg.norm(D - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_stack_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(13)
        Xs = np.stack([rand_spd(rng, 5, cond_spread=1.5) for _ in range(12)])
        Hs = np.stack([rand_sym(rng, 5) for _ in range(12)])
        stacked = matfun.dlog(Xs, Hs)
        assert stacked.shape == Xs.shape
        for X, H, D in zip(Xs, Hs, stacked):
            assert np.array_equal(D, matfun.dlog(X, H))

    def test_stack_rejects_one_bad_member(self):
        Xs = np.stack([np.eye(3), np.diag([1.0, 2.0, -1.0])])
        with pytest.raises(NotPositiveDefiniteError):
            matfun.dlog(Xs, np.stack([np.eye(3)] * 2))
        Hs = np.stack([np.eye(3), np.triu(np.ones((3, 3)))])
        with pytest.raises(NonSymmetricError):
            matfun.dlog(np.stack([np.eye(3)] * 2), Hs)

    def test_linear_in_direction(self):
        rng = np.random.default_rng(5)
        X = rand_spd(rng, 6)
        H1, H2 = rand_sym(rng, 6), rand_sym(rng, 6)
        lhs = matfun.dlog(X, 2.0 * H1 - 3.0 * H2)
        rhs = 2.0 * matfun.dlog(X, H1) - 3.0 * matfun.dlog(X, H2)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-11)

    def test_self_adjoint(self):
        rng = np.random.default_rng(6)
        X = rand_spd(rng, 6)
        H1, H2 = rand_sym(rng, 6), rand_sym(rng, 6)
        lhs = np.sum(matfun.dlog(X, H1) * H2)
        rhs = np.sum(H1 * matfun.dlog(X, H2))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_trace_identity(self):
        rng = np.random.default_rng(8)
        X = rand_spd(rng, 6)
        H = rand_sym(rng, 6)
        assert np.isclose(
            np.trace(matfun.dlog(X, H)),
            np.trace(np.linalg.solve(X, H)),
            rtol=1e-9,
        )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(NonSymmetricError):
            matfun.dlog(np.eye(3), np.eye(4))

    def test_rejects_nonsymmetric_base(self):
        X = np.array([[2.0, 0.5], [0.0, 2.0]])
        with pytest.raises(NonSymmetricError):
            matfun.dlog(X, np.eye(2))
        Xs = np.stack([np.eye(2), X])
        with pytest.raises(NonSymmetricError, match=" 1 is not symmetric"):
            matfun.dlog(Xs, np.stack([np.eye(2)] * 2))

    def test_rejects_indefinite_base(self):
        with pytest.raises(NotPositiveDefiniteError):
            matfun.dlog(np.diag([1.0, -2.0]), np.eye(2))

    @pytest.mark.parametrize("operand", ["base", "direction"])
    def test_rejects_non_finite_input(self, operand):
        """Rejected before the symmetry check and the eigensolve, and without
        a warning (none is silenced here), for one matrix and in a stack."""
        name = {"base": "base point", "direction": "direction"}[operand]
        for value in (np.nan, np.inf, -np.inf):
            for bad in (np.eye(3), np.stack([np.eye(3)] * 3)):
                # a mirrored pair, so the matrix stays symmetric as entered
                bad[..., 0, 1] = bad[..., 1, 0] = value
                if bad.ndim == 3:
                    bad[[0, 2]] = np.eye(3)
                X, H = (bad, np.eye(3)) if operand == "base" else (np.eye(3), bad)
                X, H = np.broadcast_arrays(X, H)
                label = " 1" if bad.ndim == 3 else ""
                with pytest.raises(ValidationError,
                                   match=f"^{name}{label} holds a non-finite value$"):
                    matfun.dlog(X, H)


class TestCholInv:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e8])
    def test_matches_lu_inverse(self, m, cond):
        # both inverses carry a forward error of order cond * eps, so they
        # agree to a tolerance that scales with the condition number
        rng = np.random.default_rng(m)
        A = np.stack([
            spd_with_spectrum(rng, 3.7 * np.geomspace(1.0, 1.0 / cond, m))
            for _ in range(40)
        ])
        got = matfun.chol_inv(np.linalg.cholesky(A))
        want = np.linalg.inv(A)
        err = np.linalg.norm(got - want, axis=(-2, -1))
        tol = 4 * m * cond * np.finfo(float).eps
        assert (err <= tol * np.linalg.norm(want, axis=(-2, -1))).all()

    def test_one_matrix_and_diagonal(self):
        d = np.array([4.0, 0.25, 16.0])
        assert np.array_equal(matfun.chol_inv(np.diag(np.sqrt(d))), np.diag(1.0 / d))

    def test_stack_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(3)
        L = np.linalg.cholesky(np.stack([rand_spd(rng, 4) for _ in range(5)]))
        stacked = matfun.chol_inv(L)
        for k in range(5):
            assert np.array_equal(stacked[k], matfun.chol_inv(L[k]))
