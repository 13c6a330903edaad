"""Riemannian conjugate gradient ascent on the quotient of full-column-rank
matrices by right orthogonal rotations.

A point is an n x m matrix W of full column rank; W and WO describe the same
positive semidefinite product WW^T, so the objective is constant along the
orbit {WO}. Tangent directions tangent to the orbit (the vertical space
{W Omega : Omega skew}) carry no information; the optimizer works in the
horizontal space {H : H^T W = W^T H}.

Under the Euclidean metric inherited by the quotient, the Riemannian gradient
of a fibre-invariant J is its Euclidean gradient egrad: differentiating
J(W expm(t Omega)) = J(W) at t = 0 gives <egrad, W Omega> = 0 for every skew
Omega, so W^T egrad is symmetric and egrad is already horizontal (Journee,
Bach, Absil & Sepulchre, SIAM J. Optim. 2010). The loop therefore ascends
along alignment_gradient's output as is.

The loop is conjugate gradient ascent with a Polak-Ribiere+ combination
coefficient, an additive retraction W + tH guarded against rank loss, and
Armijo backtracking. It has one restart rule: at iteration 1, every n*m
iterations and whenever PR+ clips its coefficient to 0, the search direction
is the gradient itself, its only candidate. The loop carries the previous
gradient and direction to the new point unchanged: on the total space
R^{n x m}_* with the Euclidean metric the identity is the parallel transport
and W + tH the exponential map, and the total-space gradient of a
fibre-invariant J is the horizontal lift of its quotient gradient (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
sec. 3.6), so CG on the total space still ascends on the quotient. A
projection-based transport would change nothing the loop uses: the new
gradient is horizontal, so the PR+ coefficient and the Armijo slope <grad, d>
are blind to a vertical component. The paper states its algorithm
with a vector transport; taking the identity instead is a deliberate
deviation, and it spares one SVD of W and a Sylvester solve per step, so the
loop takes no SVD but `check_transform`'s. `horizontal_project` is kept for
the tests, which build horizontal directions with it, and for the benchmark
tracer; the loop does not call it. It solves its Sylvester equation in closed
form from the SVD of W, so the module needs numpy only. All tie-breaking is
deterministic, so a run is a pure function of its inputs.

An `AlignmentState` holds the per-pair factors of its point, |E| m^2
doubles, which `alignment_gradient` reads once. The loop therefore carries
J and the gradient of the current point, not its state: each state is
dropped as soon as its gradient is formed, and the line search drops a
rejected trial's state before it evaluates the next trial, so no objective
evaluation starts while an earlier state is alive.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import matfun
from .errors import NoConvergenceError, NumericalError, ValidationError, check_count
from .metrics import check_rank, check_transform
from .objective import AlignmentProblem, alignment_gradient
from .objective import alignment_objective  # noqa: F401  (traced by perfbench)

LS_MAX_SHRINKS = 30
LS_SHRINK = 0.5
LS_SLOPE = 1e-4


class StopReason(Enum):
    GRAD_TOL = "GradTol"
    OBJ_TOL = "ObjTol"
    MAX_ITERS = "MaxIters"
    LINE_SEARCH_FAIL = "LineSearchFail"


@dataclass(frozen=True)
class OptimizerConfig:
    """Stopping rules for the conjugate gradient loop: max_iters an integer
    >= 1 (`check_count`), both tolerances positive and finite."""

    max_iters: int = 50
    grad_tol: float = 1e-6
    rel_obj_tol: float = 1e-8

    def __post_init__(self):
        check_count("max_iters", self.max_iters, 1)
        if not (0 < self.grad_tol < np.inf and 0 < self.rel_obj_tol < np.inf):
            raise ValidationError(
                "grad_tol and rel_obj_tol must be positive and finite")


@dataclass(frozen=True)
class TrainResult:
    """Final transform plus per-iteration traces.

    Row 0 of every trace describes the starting point (step 0); row k the
    state after accepted iteration k. J_trace is non-decreasing.
    iterations_used is read off the traces: their rows less the start row.
    """

    W_final: np.ndarray
    J_trace: np.ndarray
    grad_norm_trace: np.ndarray
    step_trace: np.ndarray
    stop_reason: StopReason
    seconds: float = field(default=0.0, compare=False)

    @property
    def iterations_used(self):
        return len(self.J_trace) - 1


def horizontal_project(W, H):
    """Remove the vertical component W Omega of an ambient direction H, or
    of each of a stack (k, n, m) of them.

    Omega is the skew solution of (W^T W) Omega + Omega (W^T W) = W^T H - H^T W.
    With the SVD W = U diag(s) V^T, W^T W = V diag(lam) V^T for lam = s^2 and
    the equation is diagonal in V, so Omega = V ((V^T rhs V) / (lam_i + lam_j))
    V^T. Taking V from W rather than from eigh(W^T W) avoids squaring the
    condition number of W. A stack shares the one SVD, and each of its
    directions comes out as it would alone, bit for bit. `rcg_maximize`
    does not call it (module docstring). An SVD that breaks down or a
    solve that is not finite raises NoConvergenceError, as `matfun.sym_eig`
    does for a failed eigensolve, and a W that `check_transform` would
    call rank deficient raises its RankDeficientError.
    """
    rhs = W.T @ H - H.swapaxes(-1, -2) @ W
    try:
        _, s, Vt = np.linalg.svd(W, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"horizontal projection failed: {exc}") from exc
    check_rank(s)
    lam = s * s
    # full rank keeps lam_i + lam_j > 0 unless s * s underflows to 0, which
    # the finiteness check below reports
    with np.errstate(divide="ignore", invalid="ignore"):
        Omega = Vt.T @ ((Vt @ rhs @ Vt.T) / (lam[:, None] + lam)) @ Vt
    if not np.all(np.isfinite(Omega)):
        raise NoConvergenceError("horizontal projection produced non-finite values")
    # rhs is skew and the coefficient matrix is SPD, so Omega is skew; drop
    # the symmetric rounding residue
    Omega = 0.5 * (Omega - Omega.swapaxes(-1, -2))
    return H - W @ Omega


def retract(W, H, t):
    """First-order retraction W + tH, rejected as a `NumericalError` if it
    is not finite or loses column rank."""
    with np.errstate(over="ignore", invalid="ignore"):
        W_new = W + t * H
    if not np.all(np.isfinite(W_new)):
        raise NumericalError("retraction left non-finite entries")
    return check_transform(W_new)


def initial_transform(n, m, seed):
    """Seeded Gaussian matrix with orthonormalized, sign-fixed columns."""
    if not 1 <= m < n:
        raise ValidationError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    return matfun.qr_orthonormal(rng.standard_normal((n, m)))


def rcg_maximize(data, graphs, metric, beta, W0, cfg=None):
    """Maximize the alignment objective from W0; returns the iterate history.

    Stops when the gradient norm falls under grad_tol relative to its starting
    value, when a full step (its search accepted its first trial along its
    first direction: no shrink, `NumericalError` retry or fallback to the
    plain gradient) changes J by less than rel_obj_tol relative, at
    max_iters, or when backtracking cannot find an ascent step. The search
    restarts along the plain gradient, its one direction, at iteration 1,
    every n*m iterations and whenever the PR+ coefficient is 0; any other
    iteration tries the conjugate direction, then once more the gradient.
    """
    cfg = cfg or OptimizerConfig()
    t_start = time.perf_counter()
    W = check_transform(W0, n=data.dim).copy()
    problem = AlignmentProblem.build(data, graphs, metric, beta)

    state = problem.evaluate(W)
    # egrad is horizontal, so it is the Riemannian gradient (module docstring)
    J, grad = state.J, alignment_gradient(state)
    del state
    gnorm = float(np.linalg.norm(grad))
    gnorm_ref = max(1.0, gnorm)

    rows = [(J, gnorm, 0.0)]  # (J, gradient norm, step) per trace row
    since_restart = 0
    reason = StopReason.MAX_ITERS

    for k in range(1, cfg.max_iters + 1):
        if gnorm < cfg.grad_tol * gnorm_ref:
            reason = StopReason.GRAD_TOL
            break

        # restart along the gradient at iteration 1, every n*m iterations
        # (the usual cycle length for nonlinear CG) and when PR+ clips to 0
        eta = 0.0
        if k > 1 and since_restart < W.size:
            # the identity transport carries prev_grad and direction to W
            eta_num = float(np.sum(grad * (grad - prev_grad)))
            eta_den = float(np.sum(prev_grad * prev_grad))
            eta = max(0.0, eta_num / eta_den) if eta_den > 0 else 0.0
        if eta > 0.0:
            candidates = (grad + eta * direction, grad)
        else:
            candidates = (grad,)
            since_restart = 0

        for direction in candidates:
            slope = float(np.sum(grad * direction))
            if slope > 0.0:
                accepted = _armijo(problem, W, J, direction, slope)
                if accepted is not None:
                    break
        else:
            reason = StopReason.LINE_SEARCH_FAIL
            break

        t, W, state, shrinks = accepted
        del accepted
        full_step = shrinks == 0 and direction is candidates[0]
        prev_grad, grad = grad, alignment_gradient(state)
        J_prev, J = J, state.J
        del state
        gnorm = float(np.linalg.norm(grad))
        since_restart += 1
        rows.append((J, gnorm, t))

        if full_step and abs(J - J_prev) < cfg.rel_obj_tol * max(1.0, abs(J)):
            reason = StopReason.OBJ_TOL
            break

    J_trace, grad_norm_trace, step_trace = map(np.asarray, zip(*rows))
    return TrainResult(
        W_final=W,
        J_trace=J_trace,
        grad_norm_trace=grad_norm_trace,
        step_trace=step_trace,
        stop_reason=reason,
        seconds=time.perf_counter() - t_start,
    )


def _armijo(problem, W, J, d, slope):
    """Backtracking search for J(W + t d) >= J + LS_SLOPE * t * slope.

    Each trial point is checked once, by `retract`, and evaluated on the
    already validated problem; its mapped samples are not screened against
    the PD floor (`objective` docstring). Trial points that lose rank or
    break numerically just shrink the step, and a rejected trial's state is
    dropped before the next trial is evaluated. Returns (t, W_new,
    state_new, shrinks), shrinks the trials before the accepted one, or
    None after LS_MAX_SHRINKS shrinkages.
    """
    t = 1.0 / (1.0 + float(np.linalg.norm(d)))
    for shrinks in range(LS_MAX_SHRINKS + 1):
        try:
            W_new = retract(W, d, t)
            state_new = problem.evaluate(W_new)
        except NumericalError:
            t *= LS_SHRINK
            continue
        if state_new.J >= J + LS_SLOPE * t * slope:
            return t, W_new, state_new, shrinks
        del state_new
        t *= LS_SHRINK
    return None
