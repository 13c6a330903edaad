"""Tests of the matrix functions in `helpers` that other test modules rely
on: `spd_log` and `spd_exp`, and the numpy oracles for `matfun.dlog` and
`optimizer.horizontal_project`, each oracle pinned against a closed form
that it shares no code with."""

import numpy as np
import pytest

from helpers import (
    dlog_diagonal_oracle, dlog_resolvent_oracle, kronecker_projection, rand_spd,
    rand_sym, spd_exp, spd_log,
)
from spdalign.errors import NonSymmetricError, NotPositiveDefiniteError


class TestEigBackedFunctions:
    def test_log_of_identity_is_zero(self):
        assert np.allclose(spd_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_log_of_diagonal(self):
        X = np.diag([np.e, np.e**2])
        assert np.allclose(spd_log(X), np.diag([1.0, 2.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_exp_log_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 6, cond_spread=2.0)
        assert np.allclose(spd_exp(spd_log(X)), X, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_exp_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        H = rand_sym(rng, 6)
        assert np.allclose(spd_log(spd_exp(H)), H, rtol=1e-9, atol=1e-11)

    def test_outputs_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        X = rand_spd(rng, 7, cond_spread=3.0)
        for f in (spd_log, spd_exp):
            Y = f(X)
            assert np.array_equal(Y, Y.T)

    @pytest.mark.parametrize("f", [spd_log, spd_exp])
    def test_rejects_stack(self, f):
        # as many matrices as rows: eigenvalues scaling the wrong axis would
        # still give a result of the right shape
        with pytest.raises(NonSymmetricError):
            f(np.stack([np.eye(3)] * 3))

    def test_rejects_nonsymmetric(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetricError):
            spd_log(A)

    def test_rejects_indefinite(self):
        X = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            spd_log(X)

    def test_rejects_singular(self):
        X = np.diag([1.0, 0.0])
        with pytest.raises(NotPositiveDefiniteError):
            spd_log(X)


class TestDlogResolventOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_diagonal_closed_form(self, seed):
        # one repeated eigenvalue, so both branches of the closed form run
        rng = np.random.default_rng(seed)
        x = np.exp(rng.uniform(-1.5, 1.5, size=6))
        x[1] = x[0]
        H = rand_sym(rng, 6)
        ref = dlog_diagonal_oracle(x, H)
        got = dlog_resolvent_oracle(np.diag(x), H)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_at_identity_is_identity_map(self, seed):
        H = rand_sym(np.random.default_rng(seed), 5)
        got = dlog_resolvent_oracle(np.eye(5), H)
        assert np.linalg.norm(got - H) <= 1e-12 * np.linalg.norm(H)


class TestKroneckerProjection:
    @pytest.mark.parametrize("n, m", [(7, 3), (12, 4), (20, 5)])
    def test_closed_form_at_orthonormal_w(self, n, m):
        # W^T W = I makes Omega = (W^T H - H^T W) / 2, already skew
        rng = np.random.default_rng(n)
        W, _ = np.linalg.qr(rng.standard_normal((n, m)))
        H = rng.standard_normal((n, m))
        ref = H - W @ (W.T @ H - H.T @ W) / 2.0
        got = kronecker_projection(W, H)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
