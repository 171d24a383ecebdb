"""Per-sample MLP reference forms the fused and stacked kernels must match bitwise.

These are the plain compositions the package used before its MLP kernels were
fused: one forward pass per call (``W @ h`` per layer, ``phi @ h`` readout), a
backward pass that recomputes the forward trace, per-sample teacher labels and
per-probe risks. Tests compare the kernels against them bit for bit, and
``ReferenceMlpOracle``/``ReferenceTeacherStream`` let a whole run be replayed
through them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tusla.gradient_oracle import GradientOracle
from tusla.neural_net import Architecture, MlpParams, lipschitz_constants


def forward_trace(params: MlpParams, z):
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


def forward(params: MlpParams, z) -> float:
    _, hs = forward_trace(params, z)
    return float(params.phi @ hs[-1])


def grad_f(params: MlpParams, z) -> MlpParams:
    dsigma = params.arch.activation.derivative
    pre, hs = forward_trace(params, z)
    n = params.arch.n
    g_w = [None] * n
    delta = params.phi
    for i in range(n, 0, -1):
        s = delta * dsigma(pre[i - 1])
        g_w[i - 1] = np.outer(s, hs[i - 1])
        if i > 1:
            delta = params.weights[i - 1].T @ s
    return MlpParams(params.arch, hs[-1].copy(), tuple(g_w))


def gradient_g(params: MlpParams, x) -> MlpParams:
    z, y = split_sample(x, params.arch.dims[0])
    gf = grad_f(params, z)
    c = -2.0 * (y - forward(params, z))
    return MlpParams(params.arch, c * gf.phi, tuple(c * w for w in gf.weights))


def risk(params: MlpParams, x, eta: float, r: float) -> float:
    z, y = split_sample(x, params.arch.dims[0])
    resid = y - forward(params, z)
    if eta == 0.0:
        return resid * resid
    t = params.norm()
    return resid * resid + eta / (2.0 * (r + 1.0)) * t ** (2.0 * (r + 1.0))


def teacher_sample(teacher: MlpParams, rng: np.random.Generator, half_width: float = 1.0):
    z = rng.uniform(-half_width, half_width, size=teacher.arch.dims[0])
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
        return gradient_g(self.arch.unflatten(theta), x).flatten()


@dataclass(frozen=True)
class ReferenceTeacherStream:
    """TeacherStream with one uniform draw and one forward pass per sample."""

    teacher: MlpParams
    half_width: float = 1.0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return teacher_sample(self.teacher, rng, self.half_width)

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.array([self.sample(rng) for _ in range(n)])


def per_probe_risks(params: MlpParams, xs, eta: float, r: float) -> np.ndarray:
    """risk over a stack of samples as one reference call per row."""
    return np.array([risk(params, x, eta, r) for x in xs])
