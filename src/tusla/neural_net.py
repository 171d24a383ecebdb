"""Feed-forward networks without biases: the MLP oracle, its data stream and
its growth constants.

The model is f(theta; z) = phi . sigma(W_n sigma(... sigma(W_1 z))) with a
scalar output, parameters theta = (phi, W_1..W_n), and an activation applied
componentwise. The no-bias structure makes f polynomially bounded in |theta|
with explicit constants. ``lipschitz_constants`` gives the growth metadata
of the squared-loss gradient G = -2 (y - f) grad f: q = 2n + 2, rho = 3 and
L1 = 16 (n+1) D^(3/2) (1 + s)^(2n+4), with D the largest layer width and s
the activation's Sobolev-style norm (sup |sigma| + sup |sigma'| + Lipschitz
constant of sigma'). The pointwise bounds behind them, and their checkers,
are test code in ``tests/_suites.py``; the per-sample forms of f, grad f, G
and the penalized gradient, which the kernels must match, are in
``tests/_mlp_reference.py``.

Every entry point runs on two kernels, both stacked over rows:
``_forward`` (a forward pass over a stack of samples, with one shared theta
or one theta per row) for risks and teacher labels, and
``_forward_backward`` (f and the flat grad f at R (theta, z) pairs in one
pass, on views of the flat theta rows) for ``MlpOracle``, whose
evaluate_rows is one such pass over R pairs and evaluate its R = 1 case.
The stacks of column vectors h (shape (R, d_i, 1)) are multiplied as
``W @ h`` per layer, ``W.transpose(0, 2, 1) @ s`` back through a layer and
``h.transpose(0, 2, 1) @ phi[..., None]`` for the readout: numpy's
matmul calls the same BLAS gemv or dot on every slice that ``W @ h``,
``W.T @ s`` and ``phi @ h`` call on one sample, so each row is bitwise the
single-sample result and artifacts stay byte-identical. ``Z @ W.T`` (one
gemm) and ``einsum`` sum in another order and differ in the last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .gradient_oracle import GradientOracle, OracleMeta, _guard_pow, safe_row_norms

__all__ = [
    "ActivationSpec",
    "TANH",
    "ARCTAN",
    "Architecture",
    "risk",
    "lipschitz_constants",
    "MlpOracle",
    "TeacherStream",
]


@dataclass(frozen=True)
class ActivationSpec:
    """Componentwise activation with the constants the bounds need.

    derivative(a, h) is sigma'(a) given h = apply(a) as well, so tanh can
    reuse the forward pass's output. sup_abs / sup_abs_deriv bound |sigma|
    and |sigma'|; lip_deriv is a Lipschitz constant for sigma'. sobolev_norm
    is their sum.
    """

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sup_abs: float
    sup_abs_deriv: float
    lip_deriv: float

    @property
    def sobolev_norm(self) -> float:
        return self.sup_abs + self.sup_abs_deriv + self.lip_deriv


TANH = ActivationSpec(
    name="tanh",
    apply=np.tanh,
    derivative=lambda a, h: 1.0 - h ** 2,
    sup_abs=1.0,
    sup_abs_deriv=1.0,
    lip_deriv=4.0 / (3.0 * math.sqrt(3.0)),  # max |tanh''|, attained at atanh(1/sqrt 3)
)

ARCTAN = ActivationSpec(
    name="arctan",
    apply=np.arctan,
    derivative=lambda a, h: 1.0 / (1.0 + a * a),
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
    """dims = (d_0, ..., d_n): input width then the n hidden/output widths.

    theta is one flat vector, [phi, W_1 row-major, ..., W_n row-major], the
    layout every oracle and optimizer sees; _views reads phi and the W_i
    from it.
    """

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

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.5, 0.5, size=self.param_dim)

    def _views(self, vec: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """phi and W_1..W_n as views of a flat vector, without a copy; for a
        stack of flat vectors (R, param_dim), stacks of R of each."""
        if vec.shape[-1:] != (self.param_dim,) or vec.ndim > 2:
            raise ValueError(f"expected shape ([R,] {self.param_dim}), got {vec.shape}")
        lead = vec.shape[:-1]
        return vec[..., : self.dims[-1]], [
            vec[..., a:b].reshape(lead + shape) for a, b, shape in self._layout
        ]


def _forward(arch: Architecture, phi: np.ndarray, weights, zs: np.ndarray):
    """Stacked forward pass over the rows of zs, shape (m, d_0).

    phi and the W_i are either shared by every row, or stacks with one per
    row (leading axis m). Returns the outputs f, shape (m,), with the
    pre-activations a_i and the activations h_i (h_0 = zs) of every row, each
    of shape (m, d_i, 1). Row j is bitwise the single-sample pass (see the
    module docstring).
    """
    sigma = arch.activation.apply
    hs = [zs[:, :, None]]
    pre = []
    for w in weights:
        a = w @ hs[-1]
        pre.append(a)
        hs.append(sigma(a))
    return (hs[-1].transpose(0, 2, 1) @ phi[..., None])[:, 0, 0], pre, hs


def _forward_backward(arch: Architecture, thetas: np.ndarray, zs: np.ndarray):
    """f and the flat grad_theta f at R pairs (theta, z), in one pass.

    thetas holds one flat theta per row, shape (R, param_dim), and zs one
    input per row, shape (R, d_0). Returns f, shape (R,), and the gradients,
    shape (R, param_dim), in the flat layout of theta.
    """
    phi, weights = arch._views(thetas)
    f, pre, hs = _forward(arch, phi, weights, zs)
    derivative = arch.activation.derivative
    grads = [hs[-1][:, :, 0]]
    delta = phi[:, :, None]  # d f / d h_n
    for i in range(arch.n, 0, -1):
        s = delta * derivative(pre[i - 1], hs[i])
        # each row's np.outer product, s_j * h_k
        grads.insert(1, (s * hs[i - 1].transpose(0, 2, 1)).reshape(len(thetas), -1))
        if i > 1:
            delta = weights[i - 1].transpose(0, 2, 1) @ s
    return f, np.concatenate(grads, axis=1)


def _split_rows(xs, d0: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != d0 + 1:
        raise ValueError(f"samples must be rows (z, y) with z of width {d0}, got shape {xs.shape}")
    return xs[:, :d0], xs[:, d0]


_RISK_BLOCK = 512  # (theta, sample) pairs per stacked pass; bounds its temporaries


def risk(arch: Architecture, thetas, xs, eta: float, r: float) -> np.ndarray:
    """(y - f(z))^2 + eta/(2(r+1)) |theta|^(2(r+1)) for every flat theta row
    on every packed sample row.

    thetas is a stack of k flat theta rows, shape (k, param_dim), and xs a
    stack of m samples (z, y), shape (m, d_0 + 1). Entry (i, j) of the
    (k, m) result is the risk of theta row i on sample j, bitwise the single
    pair's risk. The forward pass takes max(1, _RISK_BLOCK // m) theta rows
    at a time, each repeated m times, so no stack is ever copied to
    (k m, param_dim). A penalty or squared residual past DBL_MAX is inf; a
    row holding inf, nan or near-DBL_MAX values may give nan. Neither warns.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    zs, ys = _split_rows(xs, arch.dims[0])
    m = len(zs)
    if thetas.ndim != 2 or not m:
        raise ValueError(f"need (k, {arch.param_dim}) theta rows and at least one sample, "
                         f"got shapes {thetas.shape} and {zs.shape}")
    per = max(1, _RISK_BLOCK // m)  # theta rows per pass
    tiled = np.tile(zs, (per, 1))
    out = np.empty((len(thetas), m))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(thetas), per):
            block = np.repeat(thetas[a : a + per], m, axis=0)
            f = _forward(arch, *arch._views(block), tiled[: len(block)])[0]
            out[a : a + per] = ys - f.reshape(-1, m)
        out *= out
        if eta != 0.0:
            p = 2.0 * (r + 1.0)
            # libm pow on native floats per theta row, saturating to inf
            pen = [_guard_pow(n, p) for n in safe_row_norms(thetas).tolist()]
            out += eta / p * np.array(pen)[:, None]
    return out


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


@dataclass(frozen=True)
class MlpOracle(GradientOracle):
    """Flat-vector oracle over squared loss for a fixed architecture."""

    arch: Architecture

    def meta(self) -> OracleMeta:
        return lipschitz_constants(self.arch)

    def dim(self) -> int:
        return self.arch.param_dim

    def evaluate(self, theta: np.ndarray, x) -> np.ndarray:
        xs = np.asarray(x, dtype=np.float64).reshape(1, -1)
        return self.evaluate_rows(np.asarray(theta, dtype=np.float64)[None], xs)[0]

    def evaluate_rows(self, thetas: np.ndarray, xs) -> np.ndarray:
        """G = -2 (y - f) grad f at R pairs (thetas[i], xs[i] = (z, y)) in one
        stacked pass; row i is bitwise evaluate(thetas[i], xs[i])."""
        zs, ys = _split_rows(xs, self.arch.dims[0])
        if len(zs) != len(thetas):
            raise ValueError(f"got {len(thetas)} parameter rows but {len(zs)} samples")
        f, gf = _forward_backward(self.arch, thetas, zs)
        return (-2.0 * (ys - f))[:, None] * gf


@dataclass(frozen=True)
class TeacherStream:
    """(z, y) samples with y from a fixed teacher network, z ~ U[-1,1]^d0;
    teacher is the teacher's flat theta."""

    arch: Architecture
    teacher: np.ndarray

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n packed samples (z, y) as rows: the same draws as n sample calls."""
        arch = self.arch
        zs = rng.uniform(-1.0, 1.0, size=(n, arch.dims[0]))
        f = _forward(arch, *arch._views(self.teacher), zs)[0]
        return np.concatenate([zs, f[:, None]], axis=1)
