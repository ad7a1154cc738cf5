"""Adam with classic L2 regularization (added to the gradient, not decoupled)."""
from __future__ import annotations

import numpy as np


class NumericError(RuntimeError):
    """Raised when a non-finite gradient or loss is encountered."""


class Adam:
    def __init__(self, params: dict, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, l2: float = 0.0):
        self.params = params  # name -> Tensor
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.l2 = l2
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {name!r}")
            if self.l2:
                g = g + self.l2 * p.data
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None
