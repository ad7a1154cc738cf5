"""Adam with classic L2 regularization (added to the gradient, not decoupled)."""
from __future__ import annotations

import numpy as np


class NumericError(RuntimeError):
    """Raised when a non-finite gradient or loss is encountered."""


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor


class Adam:
    def __init__(self, params: dict, lr: float = 0.001, l2: float = 0.0):
        self.params = params  # name -> Tensor
        self.lr = lr
        self.l2 = l2
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {name!r}")
            if self.l2:
                g = g + self.l2 * p.data
            m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None
