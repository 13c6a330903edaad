"""Tests of the numpy oracles in `helpers` for `matfun.dlog` and
`optimizer.horizontal_project`, each pinned against a closed form that it
shares no code with."""

import numpy as np
import pytest

from helpers import (
    dlog_diagonal_oracle, dlog_resolvent_oracle, kronecker_projection, rand_sym,
)


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
