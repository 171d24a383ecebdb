"""Per-sample MLP reference forms the fused and stacked kernels must match bitwise.

These are the plain compositions the package used before its MLP kernels were
fused: one forward pass per call (``W @ h`` per layer, ``phi @ h`` readout), a
backward pass that recomputes the forward trace, per-sample teacher labels and
per-probe risks. Tests compare the kernels against them bit for bit, and
``ReferenceMlpOracle``/``ReferenceTeacherStream`` let a whole run be replayed
through them. ``gradient_h`` adds the superlinear penalty's gradient to G;
the bound checkers in ``_suites.py`` build on ``forward_trace`` and
``grad_f``.

The forms run on ``Params``, phi and the W_i as separate arrays, which
``split`` cuts from a flat theta by its own offsets: phi first, then each
W_i row-major. It shares no layout code with the package, so a layout bug
there turns the bitwise kernel tests red.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tusla.gradient_oracle import GradientOracle, safe_norm
from tusla.neural_net import Architecture, lipschitz_constants


@dataclass(frozen=True)
class Params:
    """Readout phi and weights W_1..W_n of one network."""

    arch: Architecture
    phi: np.ndarray
    weights: tuple[np.ndarray, ...]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.phi] + [w.ravel() for w in self.weights])

    def norm(self) -> float:
        return safe_norm(self.flatten())


def split(arch: Architecture, theta) -> Params:
    """theta = [phi, W_1 row-major, ..., W_n row-major] as separate copies."""
    theta = np.asarray(theta, dtype=np.float64)
    dims = arch.dims
    off = dims[-1]
    weights = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(theta[off : off + d_out * d_in].reshape(d_out, d_in).copy())
        off += d_out * d_in
    if theta.shape != (off,):
        raise ValueError(f"expected {off} parameters, got shape {theta.shape}")
    return Params(arch, theta[: dims[-1]].copy(), tuple(weights))


def forward_trace(params: Params, z):
    sigma = params.arch.activation.apply
    hs = [np.asarray(z, dtype=np.float64)]
    pre = []
    for w in params.weights:
        a = w @ hs[-1]
        pre.append(a)
        hs.append(sigma(a))
    return pre, hs


def split_sample(x, d0: int):
    x = np.asarray(x, dtype=np.float64).ravel()
    return x[:d0], float(x[d0])


def forward(params: Params, z) -> float:
    _, hs = forward_trace(params, z)
    return float(params.phi @ hs[-1])


# sigma'(a) recomputed from the pre-activation alone, as the package did
# before its derivative took the stored activation
DERIVATIVES = {
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "arctan": lambda z: 1.0 / (1.0 + z * z),
}


def grad_f(params: Params, z) -> Params:
    dsigma = DERIVATIVES[params.arch.activation.name]
    pre, hs = forward_trace(params, z)
    n = params.arch.n
    g_w = [None] * n
    delta = params.phi
    for i in range(n, 0, -1):
        s = delta * dsigma(pre[i - 1])
        g_w[i - 1] = np.outer(s, hs[i - 1])
        if i > 1:
            delta = params.weights[i - 1].T @ s
    return Params(params.arch, hs[-1].copy(), tuple(g_w))


def gradient_g(params: Params, x) -> Params:
    z, y = split_sample(x, params.arch.dims[0])
    gf = grad_f(params, z)
    c = -2.0 * (y - forward(params, z))
    return Params(params.arch, c * gf.phi, tuple(c * w for w in gf.weights))


def gradient_h(params: Params, x, eta: float, r: float) -> Params:
    """G plus the superlinear penalty gradient eta |theta|^(2r) theta."""
    g = gradient_g(params, x)
    if eta == 0.0:
        return g
    scale = eta * params.norm() ** (2.0 * r)
    return Params(
        params.arch,
        g.phi + scale * params.phi,
        tuple(gw + scale * w for gw, w in zip(g.weights, params.weights)),
    )


def risk(params: Params, x, eta: float, r: float) -> float:
    z, y = split_sample(x, params.arch.dims[0])
    resid = y - forward(params, z)
    if eta == 0.0:
        return resid * resid
    t = params.norm()
    return resid * resid + eta / (2.0 * (r + 1.0)) * t ** (2.0 * (r + 1.0))


def teacher_sample(teacher: Params, rng: np.random.Generator):
    z = rng.uniform(-1.0, 1.0, size=teacher.arch.dims[0])
    return np.concatenate([z, [forward(teacher, z)]])


@dataclass(frozen=True)
class ReferenceMlpOracle(GradientOracle):
    """MlpOracle through the per-sample reference composition."""

    arch: Architecture

    def meta(self):
        return lipschitz_constants(self.arch)

    def dim(self) -> int:
        return self.arch.param_dim

    def evaluate(self, theta, x):
        return gradient_g(split(self.arch, theta), x).flatten()


@dataclass(frozen=True)
class ReferenceTeacherStream:
    """TeacherStream with one uniform draw and one forward pass per sample."""

    arch: Architecture
    teacher: np.ndarray

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return teacher_sample(split(self.arch, self.teacher), rng)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.array([self.sample(rng) for _ in range(n)])


def per_probe_risks(arch: Architecture, thetas, xs, eta: float, r: float) -> np.ndarray:
    """risk of every flat theta row on every sample row, shape (k, m), as
    one reference call per pair."""
    return np.array([[risk(split(arch, t), x, eta, r) for x in xs] for t in thetas])
