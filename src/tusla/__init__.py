"""Taming-based stochastic gradient Langevin optimization.

The package centers on TUSLA, a Langevin-type algorithm whose drift is tamed
so that polynomially growing stochastic gradients cannot blow the iterates
up, together with SGLD and ADAM baselines, benchmark problems with verified
growth/smoothness constants, and diagnostics for stability and sampling
accuracy. The top level holds what the quick start needs; everything else
lives in its submodule.
"""
from .gradient_oracle import RegularizationParams
from .optimizers import TuslaConfig, run
from .problems import UniformDataSource, UsProblem

__all__ = ["RegularizationParams", "TuslaConfig", "UniformDataSource", "UsProblem", "run"]

__version__ = "0.1.0"
