"""Shared random-input builders and oracles for the test suite."""

import io

import numpy as np

from spdalign.dataset import LabeledDataset
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.errors import NonSymmetricError, ValidationError, check_positive
from spdalign.fileio import _read_table
from spdalign.graphs import build_graphs
from spdalign.matfun import check_symmetric, spd_eig, sym_eig, symmetrize
from spdalign.metrics import (
    _blocks, _operand, check_transform, default_beta, dist2,
    geometry, map_down,
)
from spdalign.objective import build_grad_context
from spdalign.objective import fd_gradient  # noqa: F401  (re-exported to tests)


def clustered_dataset(seed, n, classes, per_class, spread=0.3):
    """Random SPD samples bumped off a per-class base matrix."""
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for c in range(classes):
        base = rand_spd(rng, n)
        for _ in range(per_class):
            bump = rng.standard_normal((n, n)) * spread
            samples.append(base + bump @ bump.T)
            labels.append(c)
    return LabeledDataset(np.stack(samples), np.asarray(labels))


def ref_shaped_dataset(seed):
    """50 samples of dim 20 in 5 classes, the shape of the benchmark's
    reference held-out set."""
    return synth_dataset(
        SynthConfig(dim=20, classes=5, per_class=10, noise=0.2, seed=seed)
    )


def _one_matrix(A, name="matrix"):
    """A checked symmetric matrix; stacks are rejected, since the eigenvalues
    would scale the wrong axis."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise NonSymmetricError(f"{name} must be one matrix, got shape {A.shape}")
    return check_symmetric(A, name)


def spd_log(X):
    """Principal matrix logarithm of a positive definite matrix."""
    w, Q = spd_eig(_one_matrix(X))
    return symmetrize((Q * np.log(w)) @ Q.T)


def spd_exp(H):
    """Matrix exponential of a symmetric matrix."""
    w, Q = sym_eig(_one_matrix(H))
    return symmetrize((Q * np.exp(w)) @ Q.T)


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


def dlog_resolvent_oracle(X, H):
    """D log_X(H) as the resolvent integral
    ∫₀^∞ (X + tI)⁻¹ H (X + tI)⁻¹ dt (Higham, Functions of Matrices, 2008,
    ch. 11), with each resolvent from np.linalg.inv: no eigendecomposition
    of X, so no code shared with `matfun.dlog`. With t = c eˢ and
    c = √(λ_min λ_max), the integrand in s decays like e^-|s| outside
    |s| ≤ ½ log κ, so 400-point Gauss–Legendre over |s| ≤ ½ log κ + 40
    leaves a truncation of order e^-40. The extreme eigenvalues only place
    that window."""
    w = np.linalg.eigvalsh(X)
    half = 0.5 * np.log(w[-1] / w[0]) + 40.0
    nodes, weights = np.polynomial.legendre.leggauss(400)
    t = np.sqrt(w[0] * w[-1]) * np.exp(half * nodes)
    R = np.linalg.inv(X + t[:, None, None] * np.eye(len(X)))
    return half * np.tensordot(weights * t, R @ H @ R, axes=1)


def kronecker_projection(W, H):
    """Oracle for `optimizer.horizontal_project`: H − W skew(Ω), where Ω
    solves the Sylvester equation G Ω + Ω G = WᵀH − HᵀW, G = WᵀW, written
    as the linear system (I ⊗ G + Gᵀ ⊗ I) vec Ω = vec(WᵀH − HᵀW), vec
    taken column-major, and solved by np.linalg.solve."""
    m = W.shape[1]
    G = W.T @ W
    C = W.T @ H - H.T @ W
    K = np.kron(np.eye(m), G) + np.kron(G.T, np.eye(m))
    Omega = np.linalg.solve(K, C.ravel(order="F")).reshape((m, m), order="F")
    return H - W @ (0.5 * (Omega - Omega.T))


def load_matrix(path):
    return _read_table(path, 1)


def haar_orthonormal(rng, shape):
    """Q of the QR factorization of a Gaussian draw of the given (n, m)
    shape, its column signs fixed so that R's diagonal is nonnegative, by the
    earlier route, frozen: the synthetic generator's class rotations (n = m)
    and `optimizer.initial_transform` both drew theirs so."""
    Q, R = np.linalg.qr(rng.standard_normal(shape))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def synth_reference(cfg):
    """(samples, labels) of `synth_dataset(cfg)` by its earlier route, frozen:
    rotations from `haar_orthonormal`, perturbations through `spd_exp`, and the
    spectrum and signal block written out. The generator must equal it bit
    for bit, since every benchmark dataset comes from it."""
    rng = np.random.default_rng(cfg.seed)
    spectrum = np.geomspace(10.0, 0.1, cfg.dim)
    block = max(2, min(cfg.dim, cfg.dim // 4))
    samples = np.empty((cfg.classes * cfg.per_class, cfg.dim, cfg.dim))
    labels = np.repeat(np.arange(cfg.classes), cfg.per_class)
    pos = 0
    for _ in range(cfg.classes):
        Q = np.eye(cfg.dim)
        Q[:block, :block] = haar_orthonormal(rng, (block, block))
        proto = (Q * spectrum) @ Q.T
        root = (Q * np.sqrt(spectrum)) @ Q.T
        for _ in range(cfg.per_class):
            if cfg.noise == 0.0:
                samples[pos] = symmetrize(proto)
            else:
                A = rng.standard_normal((cfg.dim, cfg.dim))
                E = spd_exp(cfg.noise * 0.5 * (A + A.T))
                samples[pos] = symmetrize(root @ E @ root)
            pos += 1
    return samples, labels


def rand_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * 0.5 * (A + A.T)


def rand_spd(rng, n, cond_spread=1.0):
    """Random SPD matrix with eigenvalues roughly in exp(±cond_spread)."""
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    w = np.exp(rng.uniform(-cond_spread, cond_spread, size=n))
    return (Q * w) @ Q.T


def rand_full_rank(rng, n, m):
    """Random n x m matrix with full column rank (n >= m)."""
    W = rng.standard_normal((n, m))
    while np.linalg.matrix_rank(W) < m:
        W = rng.standard_normal((n, m))
    return W


def transformed_dist2(metric, X_i, X_j, W):
    """dist2 between the two samples after mapping both through W."""
    return dist2(metric, map_down(X_i, W), map_down(X_j, W))


def factored(metric, samples):
    """(geometry, side) of one validated stack: the metric's kernel and the
    (stack, factors) operand its `dist2_pairs` takes, so a caller that
    needs several passes over pairs of the stack factors it once."""
    geom = geometry(metric)
    samples = _operand(samples, "sample", 3)
    return geom, (samples, geom.factors(samples, "sample"))


def centering_matrix(N):
    """U = I - 11^T/N, the projector that removes per-row/column means."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    return np.eye(N) - np.full((N, N), 1.0 / N)


def support_beta(data, metric, v=2):
    """`default_beta` of the metric's own neighbor graphs at v_w = v_b = v:
    the bandwidth training would take for them."""
    return default_beta(build_graphs(data, metric, v_w=v, v_b=v))


def graph_union(graphs):
    """The union neighbor mask G = Gw + Gb of a `PairGraphs`, as floats:
    symmetric, zero diagonal, 1 at both orders of every pair."""
    G = np.zeros((graphs.size, graphs.size))
    i, j = graphs.pairs.T
    G[i, j] = G[j, i] = 1.0
    return G


def graph_split(graphs, labels):
    """(Gw, Gb): the uint8 within- and between-class masks of a
    `PairGraphs`, the union split by whether a pair's labels agree."""
    G = graph_union(graphs).astype(np.uint8)
    same = labels[:, None] == labels
    return G * same, G * ~same


def kernel_sim(metric, X_i, X_j, W, beta):
    """Gaussian similarity exp(-beta * transformed_dist2) in (0, 1]."""
    check_positive("beta", beta)
    return float(np.exp(-beta * transformed_dist2(metric, X_i, X_j, W)))


def kernel_entry_gradient(metric, i, j, W, data, beta, k_ij):
    """Gradient of one pair similarity k_ij with respect to W: a per-pair
    oracle for the batched alignment gradient."""
    geom = geometry(metric)
    ends = np.array([i, j])
    W = check_transform(W, n=data.dim)
    B, mapped, factors = build_grad_context(data.samples[ends], W, geom)
    first, second = np.array([0]), np.array([1])
    side = (mapped, factors)
    _, pair_factors = geom.dist2_pairs(side, first, second, keep=True)
    return geom.grad_pairs(
        B,
        factors,
        pair_factors,
        first,
        second,
        np.array([-geom.grad_scale * beta * k_ij]),
        geom.scatter(first, second, 2, W.shape[1]),
    )


def chol_inv_rows(L):
    """`matfun.chol_inv` as it was before its entry-major forward
    substitution: one row step per matrix of the stack (einsum over the
    stack) and the closing product of one array with its own transpose,
    which numpy takes as a symmetric rank-k update. The reference its
    results must equal bit for bit for m <= 8."""
    inv = np.zeros_like(L)
    recip = 1.0 / np.diagonal(L, axis1=-2, axis2=-1)
    for k in range(L.shape[-1]):
        inv[..., k, k] = recip[..., k]
        if k:
            inv[..., k, :k] = -recip[..., k, None] * np.einsum(
                "...j,...jc->...c", L[..., k, :k], inv[..., :k, :k]
            )
    return inv.swapaxes(-1, -2) @ inv


def count_calls(monkeypatch, module, names):
    """Wrap module.<name> for each name so that calls are counted; returns
    the live {name: count} dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def grad_pairs_3d(geom, B, factors, pair_factors, i, j, weights):
    """`Geometry.grad_pairs` with an `np.add.at` of whole terms per sample,
    each in the geometry's term shape (m x m for AIM and Stein, the upper
    triangle for LEM): per block, the weighted terms w U added at the
    i-ends, then added (j_sign +1) or subtracted (j_sign -1) at the j-ends,
    and `finish` with its per-sample part at the end. The per-sample
    accumulation the flat one must equal bit for bit."""
    N, _, m = B.shape
    factors = geom.grad_factors(factors)
    shape = geom.term_shape(m)
    acc = np.zeros((N,) + shape)
    add_j = np.add if geom.j_sign > 0 else np.subtract
    for blk in _blocks(len(i), m ** 2):
        pair = None if pair_factors is None else pair_factors[blk]
        terms = geom.block_grad(factors, pair, i[blk], j[blk])
        weighted = weights[blk].reshape((-1,) + (1,) * len(shape)) * terms
        np.add.at(acc, i[blk], weighted)
        add_j.at(acc, j[blk], weighted)
    F = geom.finish(factors, acc, i, j, weights)
    return np.tensordot(B, F, axes=([0, 2], [0, 1]))


def rowwise_load(path, header_count):
    """A matrix (header_count 1) or transform (2) file decoded whole, split
    into lines by universal newlines as text mode splits them, and parsed
    one row at a time with float(), checking each row as it is read: the
    reference for the line splitting and the diagnostics of `load_matrix`
    (above) and `fileio.load_transform`."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    raw = io.StringIO(text, newline=None).readlines()
    lines = ((number, line.strip()) for number, line in enumerate(raw, start=1)
             if line.strip() and not line.strip().startswith("#"))
    number, line = next(lines, (None, None))
    if line is None:
        raise ValidationError(f"{path}: empty file")
    fields = line.split()
    if len(fields) != header_count:
        raise ValidationError(
            f"{path}:{number}: header must hold {header_count} integer(s), "
            f"got {len(fields)} field(s)"
        )
    header = []
    for field in fields:
        try:
            header.append(int(field))
        except ValueError:
            raise ValidationError(
                f"{path}:{number}: header field {field!r} is not an integer"
            ) from None
        if header[-1] < 1:
            raise ValidationError(f"{path}:{number}: header value must be >= 1")
    rows, cols = header[0], header[-1]
    out = np.empty((rows, cols))
    filled = 0
    for number, line in lines:
        if filled == rows:
            raise ValidationError(f"{path}:{number}: found more than {rows} data rows")
        fields = line.split()
        if len(fields) != cols:
            raise ValidationError(
                f"{path}:{number}: expected {cols} values, got {len(fields)}"
            )
        try:
            out[filled] = [float(f) for f in fields]
        except ValueError as exc:
            raise ValidationError(f"{path}:{number}: non-numeric value: {exc}") from exc
        filled += 1
    if filled != rows:
        raise ValidationError(f"{path}: expected {rows} data rows, found {filled}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{path}: file holds non-finite values")
    return out
