"""Centered kernel target alignment over selected sample pairs, and its
Euclidean gradient with respect to the reducing transform.

The objective is

    J(W) = <L, T>_F / ||L||_F,   L = U (G o K(W)) U,   T = G o S,

where K holds Gaussian similarities of transformed sample pairs, G is the
union neighbor mask, S is the doubly centered label Gram matrix, and
U = I - 11^T/N. Differentiating through the normalized inner product gives a
coefficient for every selected pair; the gradient of J is the
coefficient-weighted sum of per-pair similarity gradients.

Every evaluation works on the pair list `graphs.pairs` alone and costs
O(|E| + N) beyond the pair kernels, never an N x N array. With A = G o K,
its row sums r and total s (Cortes, Mohri & Rostamizadeh, JMLR 2012):

    L_ij    = A_ij - (r_i + r_j)/N + s/N^2
    ||L||^2 = ||A||^2 - 2 ||r||^2/N + s^2/N^2

T is supported on G, so <L, T> needs L on the support only, and S on the
support follows from class counts. The coefficients U (T/||L|| - J L/||L||^2) U
restricted to G are the same centering applied to T, minus a multiple of L.

Per-pair similarity gradients for the three geometries (k = k_ij, B_p = X_p W,
Y_p = W^T X_p W):

- affine-invariant: -4 beta k (B_i Y_i^{-1} - B_j Y_j^{-1}) log(Y_i Y_j^{-1})
- Stein:            -beta k ((B_i+B_j) A^{-1} - B_i Y_i^{-1} - B_j Y_j^{-1}),
                    A = (Y_i + Y_j)/2
- log-Euclidean:    -4 beta k (B_i dlog(Y_i)[D] - B_j dlog(Y_j)[D]),
                    D = log Y_i - log Y_j

`metrics.Geometry` evaluates them in blocks of pairs. Each formula matches
central finite differences of k_ij; the finite-difference check is the
authoritative ground truth for operand order and signs.

Across an optimization only W changes. An `AlignmentProblem` is built once
per run: it validates the metric, beta and the graphs against the dataset,
and computes T and its centering on the support. Its `evaluate` takes a W
that `check_transform` has passed and does only the work that depends on W.
`alignment_objective` is the validating one-call form, for callers holding
a single W.

An evaluation maps the samples through W and factors the mapped stack once,
and decomposes each support pair once, in the geometry's one distance pass
(`Geometry.dist2_pairs` with `keep` set); the returned `AlignmentState`
carries B, the per-sample factors and the per-pair factors (for the
affine-invariant metric, the log of each whitened pair; for Stein, the
Cholesky factor of each midpoint A), so `alignment_gradient` is a function of
the state alone and decomposes no sample stack and no pair matrix again.

The mapped stack is computed here (`metrics.congruence`, the one product
W^T X W), not read in, so it is not screened against the PD floor
(`matfun.check_pd` runs where samples enter): `Geometry.factors` only
decomposes. A trial whose product overflows is a NumericalError naming the
first such sample, with no numpy warning. An affine-invariant or Stein
trial fails where a Cholesky breaks down (`matfun.spd_chol`), an
affine-invariant one also where a whitened pair falls to the floor, and a
log-Euclidean one where a mapped spectrum does.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAlignmentError, DimMismatchError, check_positive
from .graphs import label_similarity  # noqa: F401  (traced by perfbench)
from .metrics import Geometry, check_transform, congruence, geometry

L_NORM_FLOOR = 1e-14


@dataclass(frozen=True)
class AlignmentState:
    """Objective value at a point W, plus everything its gradient reads.

    K, L and coeff are per-pair arrays aligned with `problem.pairs`: the
    similarity k_p, the centered entry L_p, and the sensitivity dJ/dK_ij of
    one of the two symmetric entries of the pair. norm_L is ||L||_F over the
    full N x N centered matrix. B holds X_p W, factors the metric's
    `Geometry.factors` of the transformed samples W^T X_p W, and
    pair_factors what its `Geometry.dist2_pairs(..., keep=True)` kept per
    pair (|E| x m x m): the affine-invariant log of each whitened pair, the
    lower Cholesky factor of each Stein midpoint (Y_i + Y_j)/2, None for the
    log-Euclidean metric. problem is the `AlignmentProblem` evaluated, which
    supplies the geometry, beta and the pairs.
    """

    J: float
    K: np.ndarray
    L: np.ndarray
    norm_L: float
    coeff: np.ndarray
    problem: "AlignmentProblem"
    B: np.ndarray
    factors: tuple
    pair_factors: np.ndarray | None


def build_grad_context(samples, W, geom):
    """Map the samples through a checked W (`metrics.congruence`) and factor
    the mapped stack once: (B, mapped, factors) with B_p = X_p W and mapped
    the symmetrized W^T X_p W."""
    B, mapped = congruence(samples, W)
    return B, mapped, geom.factors(mapped, "transformed sample")


def _center(values, i, j, N):
    """Support entries and Frobenius norm of U A U, for the symmetric N x N
    A that holds values at the pairs (i, j) and (j, i) and zeros elsewhere."""
    r = np.bincount(i, values, N) + np.bincount(j, values, N)
    s = float(r.sum())
    centered = values - (r[i] + r[j]) / N + s / N**2
    norm2 = 2.0 * float(values @ values) - 2.0 * float(r @ r) / N + s * s / N**2
    return centered, math.sqrt(max(norm2, 0.0))


@dataclass(frozen=True)
class AlignmentProblem:
    """Everything of the objective that does not depend on W, validated once.

    samples and geom are the dataset's sample stack and the metric's
    `Geometry`; pairs the graphs' support pairs over N = len(samples)
    samples; T the label target S on the support and centered_T its
    centering U T U there.
    `scatter` gives the gradient's accumulator positions of the pairs
    (`Geometry.scatter`), built at the first gradient and kept while the
    target dim stays the same: 2 |E| times the entries of one term.
    """

    samples: np.ndarray
    geom: Geometry
    beta: float
    pairs: np.ndarray
    T: np.ndarray
    centered_T: np.ndarray
    _scatter: list = field(default_factory=lambda: [None, None], init=False,
                           repr=False, compare=False)

    @classmethod
    def build(cls, data, graphs, metric, beta):
        """Validate the metric, beta and the graphs against the dataset.

        T_ij = [y_i = y_j] - n_{y_i}/N - n_{y_j}/N + sum_c n_c^2/N^2, the
        doubly centered one-hot label Gram matrix, follows from class counts.
        """
        geom = geometry(metric)
        check_positive("beta", beta)
        N = data.size
        if graphs.size != N:
            raise DimMismatchError(
                f"graphs built for {graphs.size} samples, dataset has {N}"
            )
        i, j = graphs.pairs.T
        y_i, y_j = data.labels[i], data.labels[j]
        counts = np.bincount(data.labels).astype(float)
        same = (y_i == y_j).astype(float)
        T = same - (counts[y_i] + counts[y_j]) / N + float(counts @ counts) / N**2
        centered_T, _ = _center(T, i, j, N)
        return cls(data.samples, geom, beta, graphs.pairs, T, centered_T)

    def evaluate(self, W):
        """J at a W that `check_transform` has passed; the state also carries
        the factored point and the per-pair factors the gradient reads."""
        B, mapped, factors = build_grad_context(self.samples, W, self.geom)
        i, j = self.pairs.T
        d, pair_factors = self.geom.dist2_pairs((mapped, factors), i, j, keep=True)
        # a huge beta sends -beta d to -inf, whose similarity is exactly 0
        with np.errstate(over="ignore"):
            K = np.exp(-self.beta * d)
        L, norm_L = _center(K, i, j, len(self.samples))
        if norm_L < L_NORM_FLOOR:
            raise DegenerateAlignmentError(
                "centered pair-similarity matrix vanished; objective undefined"
            )
        J = 2.0 * float(L @ self.T) / norm_L
        coeff = self.centered_T / norm_L - (J / norm_L**2) * L
        return AlignmentState(
            J=J, K=K, L=L, norm_L=norm_L, coeff=coeff, problem=self, B=B,
            factors=factors, pair_factors=pair_factors,
        )

    def scatter(self, m):
        """`Geometry.scatter` of the pairs at target dim m, built when m
        differs from the last call's."""
        if self._scatter[0] != m:
            i, j = self.pairs.T
            self._scatter[:] = m, self.geom.scatter(i, j, len(self.samples), m)
        return self._scatter[1]


def alignment_objective(data, graphs, W, metric, beta):
    """Evaluate J(W), validating every argument; the state also carries the
    factored point and the per-pair factors the gradient reads."""
    problem = AlignmentProblem.build(data, graphs, metric, beta)
    return problem.evaluate(check_transform(W, n=data.dim))


def alignment_gradient(state):
    """Euclidean gradient of J at the point of an `alignment_objective` state.

    Every unordered support pair contributes twice its coefficient times the
    pair-similarity gradient. The pair terms are summed per sample in
    lexicographic pair order, then reduced against B in one product; for the
    log-Euclidean metric the per-sample sums are directions of one stacked
    `dlog_eig` call on the state's eigenpairs. The reduction order is fixed,
    keeping repeated runs bit-identical.
    """
    problem = state.problem
    weights = (-2.0 * problem.geom.grad_scale * problem.beta) * state.coeff * state.K
    i, j = problem.pairs.T
    return problem.geom.grad_pairs(
        state.B, state.factors, state.pair_factors, i, j, weights,
        problem.scatter(state.B.shape[-1]),
    )


def fd_gradient(func, W, h=1e-5):
    """Entrywise central finite differences of a scalar function of W."""
    grad = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        bumped = W.copy()
        bumped[idx] = W[idx] + h
        upper = func(bumped)
        bumped[idx] = W[idx] - h
        lower = func(bumped)
        grad[idx] = (upper - lower) / (2.0 * h)
    return grad
