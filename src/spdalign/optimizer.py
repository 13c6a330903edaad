"""Riemannian conjugate gradient ascent on the quotient of full-column-rank
matrices by right orthogonal rotations.

A point is an n x m matrix W of full column rank; W and WO describe the same
positive semidefinite product WW^T, so the objective is constant along the
orbit {WO}. Tangent directions tangent to the orbit (the vertical space
{W Omega : Omega skew}) carry no information and are projected out; the
optimizer works in the horizontal space {H : H^T W = W^T H}.

The loop is conjugate gradient ascent with a Polak-Ribiere+ combination
coefficient, projection-based vector transport (copy the array, project it
horizontal at the new point), an additive retraction W + tH guarded against
rank loss, and Armijo backtracking. The horizontal projection solves its
Sylvester equation in closed form in the eigenbasis of W^T W, so the module
needs numpy only. All tie-breaking is deterministic, so a run is a pure
function of its inputs.
"""

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NumericalError, SylvesterFailureError, ValidationError
from .metrics import check_transform
from .objective import alignment_gradient, alignment_objective

LS_MAX_SHRINKS = 30


class StopReason(Enum):
    GRAD_TOL = "GradTol"
    OBJ_TOL = "ObjTol"
    MAX_ITERS = "MaxIters"
    LINE_SEARCH_FAIL = "LineSearchFail"


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the conjugate gradient loop.

    cg_restart_every=None restarts every n*m iterations (the dimension of the
    matrix variable), the usual cycle length for nonlinear CG.
    """

    max_iters: int = 50
    grad_tol: float = 1e-6
    rel_obj_tol: float = 1e-8
    ls_shrink: float = 0.5
    ls_slope: float = 1e-4
    cg_restart_every: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol > 0 or not self.rel_obj_tol > 0:
            raise ValidationError("grad_tol and rel_obj_tol must be positive")
        if not 0.0 < self.ls_shrink < 1.0:
            raise ValidationError(f"ls_shrink must be in (0,1), got {self.ls_shrink}")
        if not 0.0 < self.ls_slope < 1.0:
            raise ValidationError(f"ls_slope must be in (0,1), got {self.ls_slope}")
        if self.cg_restart_every is not None and self.cg_restart_every < 1:
            raise ValidationError("cg_restart_every must be >= 1 when set")


@dataclass(frozen=True)
class TrainResult:
    """Final transform plus per-iteration traces.

    Row 0 of every trace describes the starting point (step 0); row k the
    state after accepted iteration k. J_trace is non-decreasing.
    """

    W_final: np.ndarray
    J_trace: np.ndarray
    grad_norm_trace: np.ndarray
    step_trace: np.ndarray
    iterations_used: int
    stop_reason: StopReason
    seconds: float = field(default=0.0, compare=False)


def horizontal_project(W, H):
    """Remove the vertical component W Omega of an ambient direction H.

    Omega is the skew solution of (W^T W) Omega + Omega (W^T W) = W^T H - H^T W.
    In the eigenbasis W^T W = V diag(lam) V^T that equation is diagonal, so
    Omega = V ((V^T rhs V) / (lam_i + lam_j)) V^T from one eigh.
    """
    rhs = W.T @ H - H.T @ W
    try:
        lam, V = np.linalg.eigh(W.T @ W)
    except np.linalg.LinAlgError as exc:
        raise SylvesterFailureError(f"horizontal projection failed: {exc}") from exc
    # a singular W^T W divides by zero; the finiteness check below reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        Omega = V @ ((V.T @ rhs @ V) / (lam[:, None] + lam)) @ V.T
    if not np.all(np.isfinite(Omega)):
        raise SylvesterFailureError("horizontal projection produced non-finite values")
    # rhs is skew and the coefficient matrix is SPD, so Omega is skew; drop
    # the symmetric rounding residue
    Omega = 0.5 * (Omega - Omega.T)
    return H - W @ Omega


def riemannian_grad(W, egrad):
    """Project a Euclidean gradient to the horizontal tangent space at W."""
    ambient = egrad - W @ (W.T @ egrad)
    return horizontal_project(W, ambient)


def retract(W, H, t):
    """First-order retraction W + tH, rejected if column rank is lost."""
    return check_transform(W + t * H)


def transport(H_prev, W_new):
    """Vector transport: reattach the array at W_new and project horizontal."""
    return horizontal_project(W_new, H_prev)


def initial_transform(n, m, seed):
    """Seeded Gaussian matrix with orthonormalized, sign-fixed columns."""
    if not 1 <= m < n:
        raise ValidationError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, m)))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _trace_result(W, J_hist, g_hist, t_hist, iters, reason, t0):
    return TrainResult(
        W_final=W,
        J_trace=np.asarray(J_hist),
        grad_norm_trace=np.asarray(g_hist),
        step_trace=np.asarray(t_hist),
        iterations_used=iters,
        stop_reason=reason,
        seconds=time.perf_counter() - t0,
    )


def rcg_maximize(data, graphs, metric, beta, W0, cfg=None):
    """Maximize the alignment objective from W0; returns the iterate history.

    Stops when the gradient norm falls under grad_tol relative to its starting
    value, when an accepted step changes J by less than rel_obj_tol relative,
    at max_iters, or when backtracking cannot find an ascent step (tried along
    the conjugate direction, then once more along the plain gradient).
    """
    cfg = cfg or OptimizerConfig()
    t_start = time.perf_counter()
    W = check_transform(W0, n=data.dim).copy()
    restart_every = cfg.cg_restart_every or W.size

    state = alignment_objective(data, graphs, W, metric, beta)
    grad = riemannian_grad(W, alignment_gradient(data, graphs, W, metric, beta, state))
    gnorm = float(np.linalg.norm(grad))
    gnorm_ref = max(1.0, gnorm)

    J_hist, g_hist, t_hist = [state.J], [gnorm], [0.0]
    direction = grad
    prev_grad = grad
    since_restart = 0

    for k in range(1, cfg.max_iters + 1):
        if gnorm < cfg.grad_tol * gnorm_ref:
            return _trace_result(W, J_hist, g_hist, t_hist, k - 1,
                                 StopReason.GRAD_TOL, t_start)

        if k == 1 or since_restart >= restart_every:
            direction = grad
            since_restart = 0
        else:
            eta_num = float(np.sum(grad * (grad - transport(prev_grad, W))))
            eta_den = float(np.sum(prev_grad * prev_grad))
            eta = max(0.0, eta_num / eta_den) if eta_den > 0 else 0.0
            direction = grad + eta * transport(direction, W)
            if eta == 0.0:
                since_restart = 0

        accepted = None
        candidates = (direction, grad) if direction is not grad else (grad,)
        for d in candidates:
            slope = float(np.sum(grad * d))
            if slope <= 0.0:
                continue
            accepted = _armijo(data, graphs, metric, beta, W, state.J, d, slope, cfg)
            if accepted is not None:
                direction = d
                break
        if accepted is None:
            return _trace_result(W, J_hist, g_hist, t_hist, k - 1,
                                 StopReason.LINE_SEARCH_FAIL, t_start)

        t, W_new, state_new = accepted
        grad_new = riemannian_grad(
            W_new, alignment_gradient(data, graphs, W_new, metric, beta, state_new)
        )
        # prev_grad and direction stay attached to the old point; they are
        # transported exactly once, inside the next CG combination
        prev_grad = grad
        W, J_prev = W_new, state.J
        state, grad = state_new, grad_new
        gnorm = float(np.linalg.norm(grad))
        since_restart += 1

        J_hist.append(state.J)
        g_hist.append(gnorm)
        t_hist.append(t)

        if abs(state.J - J_prev) < cfg.rel_obj_tol * max(1.0, abs(state.J)):
            return _trace_result(W, J_hist, g_hist, t_hist, k,
                                 StopReason.OBJ_TOL, t_start)

    return _trace_result(W, J_hist, g_hist, t_hist, cfg.max_iters,
                         StopReason.MAX_ITERS, t_start)


def _armijo(data, graphs, metric, beta, W, J, d, slope, cfg):
    """Backtracking search for J(W + t d) >= J + ls_slope * t * slope.

    Trial points that lose rank or break numerically just shrink the step.
    Returns (t, W_new, state_new) or None after LS_MAX_SHRINKS shrinkages.
    """
    t = 1.0 / (1.0 + float(np.linalg.norm(d)))
    for _ in range(LS_MAX_SHRINKS + 1):
        try:
            W_new = retract(W, d, t)
            state_new = alignment_objective(data, graphs, W_new, metric, beta)
        except NumericalError:
            t *= cfg.ls_shrink
            continue
        if state_new.J >= J + cfg.ls_slope * t * slope:
            return t, W_new, state_new
        t *= cfg.ls_shrink
    return None
