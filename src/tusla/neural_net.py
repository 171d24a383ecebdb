"""Feed-forward networks without biases, with certified growth bounds.

The model is f(theta; z) = phi . sigma(W_n sigma(... sigma(W_1 z))) with a
scalar output, parameters theta = (phi, W_1..W_n), and an activation applied
componentwise. The no-bias structure makes f polynomially bounded in |theta|
with explicit constants, which is what the optimizer theory consumes:

* |grad_theta f| <= sqrt(D (n+1)) (1+|x|) (1+s)^(n+1) (1+|theta|^n)
* layerwise Jacobian operator norms <= sqrt(D) (1+|x|) (1+s)^(n-i+2) |theta|^(n-i)
* |G| <= 4 D sqrt(n+1) (1+|x|)^2 (1+s)^(n+2) (1+|theta|^(n+1))

where s is the activation's Sobolev-style norm (sup |sigma| + sup |sigma'| +
Lipschitz constant of sigma'), D = max layer width, and the squared-loss
gradient is G = -2 (y - f) grad f. ``partial_deriv_bound_check`` verifies the
first two at a point, measuring the left sides exactly (power iteration for
operator norms); ``lipschitz_constants`` packages the growth metadata
(q = 2n+2, rho = 3) and ``drift_lipschitz_constants`` the penalized-drift
variant used when a superlinear penalty is attached.

Every entry point runs on two kernels: ``_forward_backward`` (f and the flat
grad f of one sample in one pass, on views of a flat theta) for the oracle,
and ``_forward`` (a stacked forward pass) for outputs, risks and teacher
labels. The stacked pass batches samples as ``W @ Z[:, :, None]`` per layer
and ``H[:, None, :] @ phi`` for the readout: numpy's matmul calls the same
BLAS gemv or dot on every slice that ``W @ z`` and ``phi @ h`` call on one
sample, so each row is bitwise the single-sample result and artifacts stay
byte-identical. ``Z @ W.T`` (one gemm) and ``einsum`` sum in another order
and differ in the last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .gradient_oracle import GradientOracle, OracleMeta, safe_norm

__all__ = [
    "ActivationSpec",
    "TANH",
    "ARCTAN",
    "Architecture",
    "MlpParams",
    "forward",
    "risk",
    "gradient_g",
    "gradient_h",
    "lipschitz_constants",
    "drift_lipschitz_constants",
    "gradient_norm_bound",
    "df_norm_bound",
    "layer_jacobian_bound",
    "partial_deriv_bound_check",
    "BoundCheckReport",
    "operator_norm",
    "MlpOracle",
    "TeacherStream",
]


@dataclass(frozen=True)
class ActivationSpec:
    """Componentwise activation with the constants the bounds need.

    sup_abs / sup_abs_deriv bound |sigma| and |sigma'|; lip_deriv is a
    Lipschitz constant for sigma'. sobolev_norm is their sum.
    """

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    sup_abs: float
    sup_abs_deriv: float
    lip_deriv: float

    @property
    def sobolev_norm(self) -> float:
        return self.sup_abs + self.sup_abs_deriv + self.lip_deriv


TANH = ActivationSpec(
    name="tanh",
    apply=np.tanh,
    derivative=lambda z: 1.0 - np.tanh(z) ** 2,
    sup_abs=1.0,
    sup_abs_deriv=1.0,
    lip_deriv=4.0 / (3.0 * math.sqrt(3.0)),  # max |tanh''|, attained at atanh(1/sqrt 3)
)

ARCTAN = ActivationSpec(
    name="arctan",
    apply=np.arctan,
    derivative=lambda z: 1.0 / (1.0 + z * z),
    sup_abs=math.pi / 2.0,
    sup_abs_deriv=1.0,
    lip_deriv=9.0 / (8.0 * math.sqrt(3.0)),  # max |2z/(1+z^2)^2|, at z = 1/sqrt 3
)

_ACTIVATIONS = {"tanh": TANH, "arctan": ARCTAN}


def activation_by_name(name: str) -> ActivationSpec:
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; have {sorted(_ACTIVATIONS)}") from None


@dataclass(frozen=True)
class Architecture:
    """dims = (d_0, ..., d_n): input width then the n hidden/output widths."""

    dims: tuple[int, ...]
    activation: ActivationSpec = TANH

    def __post_init__(self) -> None:
        if len(self.dims) < 2:
            raise ValueError("need at least an input and one layer width")
        if any((not isinstance(d, int)) or d < 1 for d in self.dims):
            raise ValueError(f"layer widths must be positive integers, got {self.dims}")

    @property
    def n(self) -> int:
        return len(self.dims) - 1

    @property
    def D(self) -> int:
        return max(self.dims)

    @cached_property
    def _layout(self) -> tuple[tuple[int, int, tuple[int, int]], ...]:
        """(start, stop, shape) of each W_i in the flat layout; phi is [:d_n]."""
        out = []
        off = self.dims[-1]
        for i in range(1, self.n + 1):
            shape = (self.dims[i], self.dims[i - 1])
            out.append((off, off + shape[0] * shape[1], shape))
            off += shape[0] * shape[1]
        return tuple(out)

    @cached_property
    def param_dim(self) -> int:
        return self._layout[-1][1]

    def zero_params(self) -> "MlpParams":
        return self.unflatten(np.zeros(self.param_dim))

    def init_params(self, rng: np.random.Generator) -> "MlpParams":
        return self.unflatten(rng.uniform(-0.5, 0.5, size=self.param_dim))

    def _views(self, vec: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """phi and W_1..W_n as views of a flat vector, without a copy."""
        if vec.shape != (self.param_dim,):
            raise ValueError(f"expected shape ({self.param_dim},), got {vec.shape}")
        return vec[: self.dims[-1]], [vec[a:b].reshape(shape) for a, b, shape in self._layout]

    def unflatten(self, vec: np.ndarray) -> "MlpParams":
        phi, weights = self._views(np.asarray(vec, dtype=np.float64))
        return MlpParams(self, phi.copy(), tuple(w.copy() for w in weights))


@dataclass(frozen=True)
class MlpParams:
    """Readout phi plus weight matrices; flatten() is the optimizer's view.

    Flat layout: [phi, W_1 row-major, ..., W_n row-major]."""

    arch: Architecture
    phi: np.ndarray
    weights: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = self.arch.n
        if self.phi.shape != (self.arch.dims[n],):
            raise ValueError("phi shape does not match architecture")
        if len(self.weights) != n:
            raise ValueError(f"expected {n} weight matrices, got {len(self.weights)}")
        for i, w in enumerate(self.weights, start=1):
            want = (self.arch.dims[i], self.arch.dims[i - 1])
            if w.shape != want:
                raise ValueError(f"W_{i} shape {w.shape} != {want}")

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.phi] + [w.ravel() for w in self.weights])

    def norm(self) -> float:
        return safe_norm(self.flatten())


def _forward(arch: Architecture, phi: np.ndarray, weights, zs: np.ndarray):
    """Stacked forward pass over the rows of zs, shape (m, d_0).

    Returns the outputs f, shape (m,), with the pre-activations a_i and the
    activations h_i (h_0 = zs) of every row, each of shape (m, d_i, 1). Row j
    is bitwise the single-sample pass (see the module docstring).
    """
    sigma = arch.activation.apply
    hs = [zs[:, :, None]]
    pre = []
    for w in weights:
        a = w @ hs[-1]
        pre.append(a)
        hs.append(sigma(a))
    return (hs[-1][:, None, :, 0] @ phi)[:, 0], pre, hs


def _forward_backward(arch: Architecture, phi: np.ndarray, weights, z: np.ndarray):
    """f(z) and the flat grad_theta f(z) for one sample, in one pass.

    phi and weights may be views of a flat theta; the gradient comes back in
    the flatten() layout [d f/d phi, d f/d W_1, ..., d f/d W_n].
    """
    act = arch.activation
    hs = [z]
    pre = []
    for w in weights:
        a = w @ hs[-1]
        pre.append(a)
        hs.append(act.apply(a))
    grads = [hs[-1]]
    delta = phi  # d f / d h_n
    for i in range(arch.n, 0, -1):
        s = delta * act.derivative(pre[i - 1])
        grads.insert(1, (s[:, None] * hs[i - 1]).ravel())  # np.outer's product
        if i > 1:
            delta = weights[i - 1].T @ s
    return float(phi @ hs[-1]), np.concatenate(grads)


def _split_sample(x: np.ndarray, d0: int) -> tuple[np.ndarray, float]:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != d0 + 1:
        raise ValueError(f"sample must pack (z, y) with z of width {d0}, got size {x.size}")
    return x[:d0], float(x[d0])


def _loss_gradient(arch: Architecture, phi: np.ndarray, weights, x) -> np.ndarray:
    """Flat G = -2 (y - f) grad f at one packed sample x = (z, y)."""
    z, y = _split_sample(x, arch.dims[0])
    f, gf = _forward_backward(arch, phi, weights, z)
    return (-2.0 * (y - f)) * gf


def forward(params: MlpParams, z) -> float:
    """Network output phi . sigma(W_n sigma(... sigma(W_1 z)))."""
    zs = np.asarray(z, dtype=np.float64).reshape(1, -1)
    return float(_forward(params.arch, params.phi, params.weights, zs)[0][0])


def grad_f(params: MlpParams, z) -> MlpParams:
    """Gradient of the network output with respect to all parameters."""
    z = np.asarray(z, dtype=np.float64)
    return params.arch.unflatten(_forward_backward(params.arch, params.phi, params.weights, z)[1])


def risk(params: MlpParams, x, eta: float, r: float):
    """(y - f(z))^2 + eta/(2(r+1)) |theta|^(2(r+1)).

    x packs one sample (z, y), and the risk is a float; or x is a stack of
    packed samples, one per row, and the per-row risks come back as an array
    from one stacked forward pass.
    """
    xs = np.asarray(x, dtype=np.float64)
    d0 = params.arch.dims[0]
    if xs.ndim < 2:
        z, y = _split_sample(xs, d0)
        zs, ys = z[None, :], y
    elif xs.ndim == 2 and xs.shape[1] == d0 + 1:
        zs, ys = xs[:, :d0], xs[:, d0]
    else:
        raise ValueError(f"samples must be rows (z, y) with z of width {d0}, got shape {xs.shape}")
    resid = ys - _forward(params.arch, params.phi, params.weights, zs)[0]
    out = resid * resid
    if eta != 0.0:
        t = params.norm()
        out = out + eta / (2.0 * (r + 1.0)) * t ** (2.0 * (r + 1.0))
    return float(out[0]) if xs.ndim < 2 else out


def gradient_g(params: MlpParams, x) -> MlpParams:
    """Squared-loss gradient G = -2 (y - f) grad f (no penalty)."""
    return params.arch.unflatten(_loss_gradient(params.arch, params.phi, params.weights, x))


def gradient_h(params: MlpParams, x, eta: float, r: float) -> MlpParams:
    """G plus the superlinear penalty gradient eta |theta|^(2r) theta."""
    g = gradient_g(params, x)
    if eta == 0.0:
        return g
    scale = eta * params.norm() ** (2.0 * r)
    return MlpParams(
        params.arch,
        g.phi + scale * params.phi,
        tuple(gw + scale * w for gw, w in zip(g.weights, params.weights)),
    )


def lipschitz_constants(arch: Architecture) -> OracleMeta:
    """Growth metadata for the squared-loss gradient on this architecture:
    q = 2n + 2, rho = 3, L1 = 16 (n+1) D^(3/2) (1 + s)^(2n+4)."""
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    return OracleMeta(
        q=float(2 * n + 2),
        rho=3.0,
        L1=16.0 * (n + 1) * D ** 1.5 * (1.0 + s) ** (2 * n + 4),
    )


class DriftLipschitz(NamedTuple):
    """Constant and envelope power for the penalized drift H = G + penalty:
    |H - H'| <= L1 (1+|x|)^rho (1 + |t| + |t'|)^envelope_power |t - t'|."""

    L1: float
    rho: float
    envelope_power: float


def drift_lipschitz_constants(arch: Architecture, eta: float, r: float) -> DriftLipschitz:
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    l1 = 16.0 * (1.0 + eta) * (2.0 * r + 1.0) * (n + 1) * D ** 1.5 * (1.0 + s) ** (2 * n + 4)
    return DriftLipschitz(L1=l1, rho=3.0, envelope_power=float(max(2 * n + 1, 2.0 * r)))


def gradient_norm_bound(params: MlpParams, x, arch: Optional[Architecture] = None) -> float:
    """Bound on |G(theta, x)|: 4 D sqrt(n+1) (1+|x|)^2 (1+s)^(n+2) (1+|theta|^(n+1))."""
    arch = arch or params.arch
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    xn = safe_norm(np.asarray(x, dtype=np.float64).ravel())
    t = params.norm()
    return 4.0 * D * math.sqrt(n + 1.0) * (1.0 + xn) ** 2 * (1.0 + s) ** (n + 2) * (1.0 + t ** (n + 1))


def df_norm_bound(params: MlpParams, x) -> float:
    """Bound on |grad_theta f|: sqrt(D (n+1)) (1+|x|) (1+s)^(n+1) (1+|theta|^n)."""
    arch = params.arch
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    xn = safe_norm(np.asarray(x, dtype=np.float64).ravel())
    t = params.norm()
    return math.sqrt(D * (n + 1.0)) * (1.0 + xn) * (1.0 + s) ** (n + 1) * (1.0 + t ** n)


def layer_jacobian_bound(params: MlpParams, x, i: int) -> float:
    """Bound on the W_i -> h_n Jacobian operator norm:
    sqrt(D) (1+|x|) (1+s)^(n-i+2) |theta|^(n-i), for i in 1..n."""
    arch = params.arch
    n, D = arch.n, arch.D
    s = arch.activation.sobolev_norm
    xn = safe_norm(np.asarray(x, dtype=np.float64).ravel())
    t = params.norm()
    return math.sqrt(D) * (1.0 + xn) * (1.0 + s) ** (n - i + 2) * t ** (n - i)


def operator_norm(mat: np.ndarray, iters: int = 50, tol: float = 1e-8) -> float:
    """Spectral norm by power iteration on mat^T mat (deterministic start)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    k = mat.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    est = 0.0
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nw = math.sqrt(float(w @ w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_est = math.sqrt(nw)
        # nw = |A^T A v| converges to sigma_max^2
        if abs(new_est - est) <= tol * max(new_est, 1.0):
            est = new_est
            break
        est = new_est
    return float(safe_norm(mat @ v))


@dataclass(frozen=True)
class BoundCheckReport:
    """Measured-over-bound ratios; passed iff every ratio <= 1 (tiny slack
    for the iterative operator-norm estimate)."""

    df_measured: float
    df_bound: float
    layer_measured: tuple[float, ...]
    layer_bounds: tuple[float, ...]
    passed: bool


def partial_deriv_bound_check(params: MlpParams, x, slack: float = 1e-9) -> BoundCheckReport:
    """Verify the gradient-norm and layer-Jacobian bounds at (params, x)."""
    arch = params.arch
    z, _ = _split_sample(x, arch.dims[0])
    dsigma = arch.activation.derivative
    _, pre, hs = _forward(arch, params.phi, params.weights, z[None, :])
    pre = [a[0, :, 0] for a in pre]
    hs = [h[0, :, 0] for h in hs]
    n = arch.n

    gf = grad_f(params, z)
    df_measured = gf.norm()
    df_b = df_norm_bound(params, x)

    layer_measured = []
    layer_bounds = []
    # P = d h_n / d h_i, built from the top: P_n = I, P_{i-1} = P_i Msig_i W_i
    p = np.eye(arch.dims[n])
    for i in range(n, 0, -1):
        jac_factor = p * dsigma(pre[i - 1])  # P @ diag(sigma'(a_i))
        lhs = operator_norm(jac_factor) * float(np.linalg.norm(hs[i - 1]))
        layer_measured.append(lhs)
        layer_bounds.append(layer_jacobian_bound(params, x, i))
        p = jac_factor @ params.weights[i - 1]
    layer_measured.reverse()
    layer_bounds.reverse()

    ok = df_measured <= df_b * (1.0 + slack)
    for lhs, rhs in zip(layer_measured, layer_bounds):
        ok = ok and lhs <= rhs * (1.0 + slack) + 1e-300
    return BoundCheckReport(
        df_measured=df_measured,
        df_bound=df_b,
        layer_measured=tuple(layer_measured),
        layer_bounds=tuple(layer_bounds),
        passed=bool(ok),
    )


@dataclass(frozen=True)
class MlpOracle(GradientOracle):
    """Flat-vector oracle over squared loss for a fixed architecture."""

    arch: Architecture

    def meta(self) -> OracleMeta:
        return lipschitz_constants(self.arch)

    def dim(self) -> int:
        return self.arch.param_dim

    def evaluate(self, theta: np.ndarray, x) -> np.ndarray:
        phi, weights = self.arch._views(theta)
        return _loss_gradient(self.arch, phi, weights, x)

    def value(self, theta: np.ndarray, x) -> float:
        params = self.arch.unflatten(theta)
        return risk(params, x, 0.0, 1.0)


@dataclass(frozen=True)
class TeacherStream:
    """(z, y) samples with y from a fixed teacher network, z ~ U[-1,1]^d0."""

    teacher: MlpParams
    half_width: float = 1.0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n packed samples (z, y) as rows: the same draws as n sample calls."""
        t = self.teacher
        zs = rng.uniform(-self.half_width, self.half_width, size=(n, t.arch.dims[0]))
        f = _forward(t.arch, t.phi, t.weights, zs)[0]
        return np.concatenate([zs, f[:, None]], axis=1)
