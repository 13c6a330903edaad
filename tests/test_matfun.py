"""Matrix function tests.

The directional derivative of the log is checked against three references.
The resolvent oracle (`helpers.dlog_resolvent_oracle`) integrates
∫₀^∞ (X + tI)⁻¹ H (X + tI)⁻¹ dt by Gauss–Legendre quadrature with
resolvents from `np.linalg.inv`, a code path `dlog` does not use. Central
differences of the eigh-based log and the divided-difference formula at
diagonal base points share the eigendecomposition route with `dlog` and
back up the oracle.
"""

import re

import numpy as np
import pytest

from helpers import (
    chol_inv_rows, dlog_diagonal_oracle, dlog_resolvent_oracle, rand_spd, rand_sym,
    spd_log,
)
from spdalign import matfun
from spdalign.errors import (
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    ValidationError,
)
from spdalign.dataset import LabeledDataset
from spdalign.metrics import (
    BLOCK_ENTRIES, cross_dist2, dist2, indexed_dist2, map_down, pairwise_dist2,
)


def dlog_central_difference(X, H, h=1e-5):
    return (spd_log(X + h * H) - spd_log(X - h * H)) / (2.0 * h)


def spd_with_spectrum(rng, w):
    Q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    return matfun.symmetrize((Q * w) @ Q.T)


class TestEigBackedFunctions:
    def test_sym_eig_ascending(self):
        rng = np.random.default_rng(11)
        A = rand_sym(rng, 8)
        w, Q = matfun.sym_eig(A)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose((Q * w) @ Q.T, A, atol=1e-12)

    @pytest.mark.parametrize(
        "fault, message",
        [("solver", "symmetric eigensolver failed: no convergence"),
         ("nan", "symmetric eigensolver returned non-finite values")],
        ids=["solver", "nan"],
    )
    def test_sym_eig_failure_raises(self, fault, message, monkeypatch):
        A = np.eye(3)
        if fault == "solver":
            def broken(a):
                raise np.linalg.LinAlgError("no convergence")
            monkeypatch.setattr(np.linalg, "eigh", broken)
        else:
            A[0, 1] = A[1, 0] = np.nan
        with pytest.raises(NoConvergenceError, match=f"^{message}$"):
            matfun.sym_eig(A)


class TestQrOrthonormal:
    @pytest.mark.parametrize("shape", [(6, 6), (9, 4), (20, 5)])
    def test_orthonormal_with_nonnegative_r_diagonal(self, shape):
        A = np.random.default_rng(2).standard_normal(shape)
        Q = matfun.qr_orthonormal(A)
        assert Q.shape == shape
        assert np.allclose(Q.T @ Q, np.eye(shape[1]), atol=1e-12)
        # R = Q^T A is upper triangular with a nonnegative diagonal
        assert np.all(np.diag(Q.T @ A) >= 0)
        assert np.allclose(Q @ np.triu(Q.T @ A), A, atol=1e-12)

    def test_zero_diagonal_keeps_its_column(self):
        # a zero second column gives R[1, 1] = 0: that column keeps LAPACK's sign
        A = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
        Q, R = np.linalg.qr(A)
        assert R[1, 1] == 0.0
        got = matfun.qr_orthonormal(A)
        assert np.array_equal(got[:, 1], Q[:, 1])
        assert np.array_equal(got[:, 0], Q[:, 0] * np.sign(R[0, 0]))


class TestSymmetrize:
    @pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4), (2, 3, 6, 6)])
    def test_bitwise_half_sum_and_input_kept(self, shape):
        A = np.random.default_rng(len(shape)).standard_normal(shape)
        before = A.copy()
        got = matfun.symmetrize(A)
        assert got.tobytes() == (0.5 * (A + A.swapaxes(-1, -2))).tobytes()
        assert A.tobytes() == before.tobytes()


class TestPdFloor:
    """The floor is 1e-12 times the mean eigenvalue, so definiteness is
    decided the same at every common scale."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-6, 1.0, 1e150, 1e300])
    def test_relative_to_the_mean_eigenvalue(self, scale):
        w = np.array([1e-11, 0.5, 2.0, 3.5])
        X = scale * np.diag(w)
        assert matfun.pd_floor(X) == pytest.approx(1e-12 * w.mean() * scale, rel=1e-12)
        matfun.require_pd(w * scale, X)
        # a smallest eigenvalue below the floor fails at every scale
        low = np.array([1e-12, 0.5, 2.0, 3.5])
        with pytest.raises(NotPositiveDefiniteError, match="at or below the PD floor"):
            matfun.require_pd(low * scale, scale * np.diag(low))

    @pytest.mark.parametrize("w", [[0.0, 0.0], [-1.0, 1.0], [-3.0, 1.0, 1.0],
                                   [-1e-300, -2e-300]],
                             ids=["zero", "zero-trace", "negative-trace", "tiny-negative"])
    def test_nonpositive_trace_fails(self, w):
        X = np.diag(w)
        assert not matfun.pd_floor(X) > 0.0
        stack = np.stack([np.eye(len(w)), X])
        with pytest.raises(NotPositiveDefiniteError) as got:
            matfun.require_pd(np.linalg.eigvalsh(stack), stack, "sample")
        assert got.value.index == 1


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
        """The check decides as max |A - A^T| > SYM_RTOL * max |A| taken
        entry by entry, at the tolerance's edge; a matrix with a NaN or inf
        entry holds a non-finite value."""
        rng = np.random.default_rng(seed)
        scales = rng.choice([1e-3, 1.0, 1e3], (64, 1, 1))
        stack = rng.standard_normal((64, 4, 4)) * scales
        stack = stack + np.swapaxes(stack, 1, 2)
        scale = np.abs(stack).max(axis=(1, 2))
        off = rng.choice([0.5, 0.999999, 1.0, 1.000001, 2.0], 64)
        stack[:, 0, 2] += off * matfun.SYM_RTOL * scale
        stack[5, 1, 1] = np.nan
        stack[6, 0, 3] = stack[6, 3, 0] = -np.inf
        stack[7, 0, 3] = np.inf
        # the check warns of nothing, and a warning fails the test
        for X in stack:
            if not np.isfinite(X).all():
                with pytest.raises(ValidationError, match="non-finite"):
                    matfun.check_symmetric(X)
            elif np.abs(X - X.T).max() > matfun.SYM_RTOL * np.abs(X).max():
                with pytest.raises(NonSymmetricError):
                    matfun.check_symmetric(X)
            else:
                assert matfun.check_symmetric(X) is X
        # the NaN and inf matrices fail as a stack too, the first one named
        with pytest.raises(ValidationError, match="matrix 0 holds a non-finite"):
            matfun.check_symmetric(stack[5:8])


class TestZeroDimension:
    """A matrix of dim 0 is rejected by the square-shape guard of
    `check_symmetric`, with the package's error, at every entry point; a
    reduction over its empty entries would otherwise raise numpy's own."""

    STACK, MATRIX = np.zeros((3, 0, 0)), np.zeros((0, 0))
    ENTRY_POINTS = {
        "LabeledDataset": lambda S, X: LabeledDataset(S, [0, 0, 1]),
        "dist2": lambda S, X: dist2("aim", X, X),
        "cross_dist2": lambda S, X: cross_dist2("stein", S, S),
        "pairwise_dist2": lambda S, X: pairwise_dist2("lem", S),
        "indexed_dist2": lambda S, X: indexed_dist2("aim", S, [0], [1]),
        "map_down": lambda S, X: map_down(X, X),
        "dlog": lambda S, X: matfun.dlog(X, X),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
    def test_rejected_as_not_square(self, entry):
        with pytest.raises(NonSymmetricError, match="must be square, n >= 1"):
            self.ENTRY_POINTS[entry](self.STACK, self.MATRIX)


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
        # D log_X(H) is the (1, 2) block of log([[X, H], [0, X]]); the
        # resolvent oracle is that block of the log's integral form
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 6, cond_spread=2.0)
        H = rand_sym(rng, 6)
        D, ref = matfun.dlog(X, H), dlog_resolvent_oracle(X, H)
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
        D, ref = matfun.dlog(X, H), dlog_resolvent_oracle(X, H)
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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_derivative_raises(self):
        # Gamma_00 = 1e300 times an entry of 1e308: the package's error, with
        # no numpy warning ahead of it
        with pytest.raises(NoConvergenceError,
                           match="^matrix log derivative is not finite$"):
            matfun.dlog_eig(np.array([1e-300, 1.0]), np.eye(2),
                            np.full((2, 2), 1e308))

    @pytest.mark.parametrize("operand", ["base", "direction"])
    def test_rejects_non_finite_input(self, operand):
        """Rejected by the symmetry check, before the eigensolve, and without
        a warning (none is silenced here), for one matrix and in stacks of one
        and two axes."""
        name = {"base": "base point", "direction": "direction"}[operand]
        for value in (np.nan, np.inf, -np.inf):
            for bad, at, label in ((np.eye(3), (), ""),
                                   (np.stack([np.eye(3)] * 3), (1,), " 1"),
                                   (np.tile(np.eye(3), (2, 3, 1, 1)), (1, 0), " (1, 0)")):
                # a mirrored pair, so the matrix stays symmetric as entered
                bad[at + (0, 1)] = bad[at + (1, 0)] = value
                X, H = (bad, np.eye(3)) if operand == "base" else (np.eye(3), bad)
                X, H = np.broadcast_arrays(X, H)
                message = re.escape(f"{name}{label} holds a non-finite value")
                with pytest.raises(ValidationError, match=f"^{message}$"):
                    matfun.dlog(X, H)


# target dims of the block-size checks, across the entry-major crossover:
# a block of BLOCK_ENTRIES // m^2 factors holds fewer than m from m = 26 on
CHOL_INV_DIMS = [1, 2, 3, 4, 5, 8, 12, 20, 30, 60]
# spectral spread of the factored matrices; both inverses then carry a
# forward error of order STACK_COND * eps (TestCholInv.test_matches_lu_inverse)
STACK_COND = 1e3


def factor_stack(m, count, seed):
    """(L, A): lower Cholesky factors of count random m x m SPD matrices
    with eigenvalues 3.7 * geomspace(1, 1 / STACK_COND, m), and A = L L^T."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((count, m, m)))
    w = 3.7 * np.geomspace(1.0, 1.0 / STACK_COND, m)
    L = np.linalg.cholesky(matfun.symmetrize((Q * w) @ Q.swapaxes(-1, -2)))
    return L, L @ L.swapaxes(-1, -2)


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


class TestCholInvBlocks:
    """`chol_inv` on a stack of one gradient block's size and on one matrix."""

    @pytest.mark.parametrize("m", CHOL_INV_DIMS)
    def test_block_matches_single_calls_bitwise(self, m):
        L, _ = factor_stack(m, max(1, BLOCK_ENTRIES // m**2), seed=m)
        singles = np.stack([matfun.chol_inv(f) for f in L])
        assert np.array_equal(matfun.chol_inv(L), singles)

    @pytest.mark.parametrize("m", CHOL_INV_DIMS)
    def test_block_and_one_matrix_match_lu_inverse(self, m):
        L, A = factor_stack(m, max(1, BLOCK_ENTRIES // m**2), seed=m)
        tol = 4 * m * STACK_COND * np.finfo(float).eps
        for got, want in ((matfun.chol_inv(L), np.linalg.inv(A)),
                          (matfun.chol_inv(L[0]), np.linalg.inv(A[0]))):
            err = np.linalg.norm(got - want, axis=(-2, -1))
            assert (err <= tol * np.linalg.norm(want, axis=(-2, -1))).all()

    @pytest.mark.parametrize("m", [m for m in CHOL_INV_DIMS if m <= 8])
    def test_equals_row_reference_bitwise(self, m):
        L, _ = factor_stack(m, max(1, BLOCK_ENTRIES // m**2), seed=m)
        assert np.array_equal(matfun.chol_inv(L), chol_inv_rows(L))
        assert np.array_equal(matfun.chol_inv(L[0]), chol_inv_rows(L[0]))


class TestTriInv:
    """`tri_inv` is the forward substitution `chol_inv` builds on, and the
    affine-invariant kernel's whitening factor."""

    @pytest.mark.parametrize("m", CHOL_INV_DIMS)
    def test_inverts_the_factor(self, m):
        L, _ = factor_stack(m, 50, seed=m)
        inv = matfun.tri_inv(L)
        assert np.array_equal(inv, np.tril(inv))
        residual = np.abs(inv @ L - np.eye(m)).max()
        assert residual <= 4 * m * STACK_COND * np.finfo(float).eps

    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_stack_matches_single_calls_and_chol_inv_bitwise(self, m):
        L, _ = factor_stack(m, max(1, BLOCK_ENTRIES // m**2), seed=m)
        inv = matfun.tri_inv(L)
        assert np.array_equal(inv, np.stack([matfun.tri_inv(f) for f in L]))
        assert np.array_equal(matfun.chol_inv(L), inv.swapaxes(-1, -2) @ inv.copy())


class TestCheckPd:
    """The one stacked positive definiteness check: a Cholesky screen, and
    `eigvalsh` with `require_pd` for a stack the screen cannot clear."""

    def test_cleared_stack_takes_no_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = np.stack([rand_spd(rng, 4) for _ in range(10)])
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a) or original(a))
        assert matfun.check_pd(stack, "sample") is stack
        one = stack[3]
        assert matfun.check_pd(one) is one
        assert calls == []
        assert np.array_equal(matfun.spd_chol(stack), np.linalg.cholesky(stack))

    @pytest.mark.parametrize("low, passes", [(1e-13, False), (1e-11, True)])
    def test_near_the_floor_decided_by_the_spectrum(self, low, passes):
        # the floor is 1e-12 times the mean eigenvalue, here 1: a sample just
        # above it passes, one just below it is named with its eigenvalue
        stack = np.stack([np.eye(3), np.diag([1.5, 1.5 - low, low])])
        if passes:
            matfun.check_pd(stack, "sample")
            return
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^sample 1 has min eigenvalue 1\.000e-13 ") as exc:
            matfun.check_pd(stack, "sample")
        assert exc.value.index == 1
        # spd_chol decides no floor; it names a member it cannot factor
        indefinite = np.stack([np.eye(3), np.diag([1.5, 1.5 + low, -low])])
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^sample 1 has min eigenvalue -1\.000e-13 ") as exc:
            matfun.spd_chol(indefinite, "sample")
        assert exc.value.index == 1

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_verdict_within_the_margin_is_the_spectrum(self, n):
        # rotated samples whose smallest eigenvalue lies within the screen's
        # margin SCREEN_K n eps tr X of the PD floor, on both sides, down to
        # offsets below the rounding of eigvalsh: check_pd rejects exactly
        # those that require_pd rejects on their eigvalsh spectrum, so the
        # Cholesky screen clears none that the spectrum puts at the floor
        rng = np.random.default_rng(n)
        rest = np.geomspace(1.0, 100.0, n - 1)
        margin = matfun.SCREEN_K * n * np.finfo(float).eps * rest.sum()
        steps = np.geomspace(1e-6, 1.0, 25)
        offsets = margin * np.concatenate([-steps[::-1], [0.0], steps])

        def rejects(check, X):
            try:
                check(X)
            except NotPositiveDefiniteError:
                return True
            return False

        verdicts = []
        for offset in offsets:
            for _ in range(4):
                low = 1e-12 * rest.sum() / n + offset
                X = spd_with_spectrum(rng, np.concatenate([[low], rest]))
                screened = rejects(matfun.check_pd, X)
                spectrum = rejects(
                    lambda X: matfun.require_pd(np.linalg.eigvalsh(X), X), X)
                assert screened == spectrum, (offset, low)
                verdicts.append(screened)
        # the samples straddle the floor
        assert 0 < sum(verdicts) < len(verdicts)

    def test_pd_stack_without_a_factor_raises(self, monkeypatch):
        # a factorization that breaks down on a stack whose spectrum clears
        # the floor names no member, and gives no factor
        def broken(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", broken)
        with pytest.raises(NotPositiveDefiniteError,
                           match="^sample has no finite Cholesky factor$") as exc:
            matfun.spd_chol(np.stack([np.eye(3), 2.0 * np.eye(3)]), "sample")
        assert exc.value.index is None

    def test_factor_with_infinite_diagonal_named(self):
        # an infinite (0, 0) entry factors without breakdown, to an infinite
        # diagonal: no factor is given, and its spectrum names the member
        stack = np.stack([np.eye(2), np.array([[np.inf, 1e200], [1e200, 2.0]])])
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^midpoint \[4 7\] has min eigenvalue nan ") as exc:
            matfun.spd_chol(stack, "midpoint", (np.array([3, 4]), np.array([5, 7])))
        assert exc.value.index == 1
