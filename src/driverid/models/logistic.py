"""Multinomial logistic regression fitted by L-BFGS.

The probability model is a softmax over per-class linear scores; with two
classes this reduces to the logistic sigmoid 1/(1+e^{-x}) of the score
difference.  ``loss_and_grad`` is a standalone function so the analytic
gradient can be checked against finite differences.

The fit minimises ``loss_and_grad`` from zero weights with limited-memory
BFGS (Liu & Nocedal 1989): the two-loop recursion over the last
``_MEMORY`` curvature pairs gives the direction, and a backtracking
line search halves the step from 1 until the Armijo condition holds.  On
separable data with ``l2=0`` the loss has no finite minimiser; the fit
then stops once an accepted step lowers the loss by less than ``tol``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import finite_real, whole_number
from .base import Classifier, logsumexp, softmax

#: curvature pairs (s, y) kept by the two-loop recursion
_MEMORY = 10
#: sufficient-decrease constant c1 of the Armijo condition
_ARMIJO = 1e-4
#: step halvings before the line search gives up and the fit stops
_MAX_HALVINGS = 40


def loss_and_grad(W: np.ndarray, X_aug: np.ndarray, y_idx: np.ndarray, l2: float = 0.0):
    """Mean cross-entropy of softmax(X_aug @ W.T) and its gradient in W.

    ``W`` is (n_classes, d+1) with the last column acting on the constant
    1-feature (the bias, excluded from the L2 penalty).  Returns
    ``(loss, grad)`` with ``grad.shape == W.shape``.
    """
    n = X_aug.shape[0]
    rows = np.arange(n)
    logits = X_aug @ W.T
    lse = logsumexp(logits, axis=1)
    loss = float((lse - logits[rows, y_idx]).mean())
    G = np.exp(logits - lse[:, None])  # softmax probabilities, edited in place
    G[rows, y_idx] -= 1.0
    grad = (G.T @ X_aug) / n
    if l2:
        penalized = W.copy()
        penalized[:, -1] = 0.0
        loss += 0.5 * l2 * float((penalized**2).sum())
        grad = grad + l2 * penalized
    return loss, grad


def _two_loop(grad: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS inverse-Hessian estimate applied to ``grad``.

    ``pairs`` holds ``(s, y, 1/(s·y))`` oldest first; the initial matrix is
    the scaled identity (s·y / y·y) I of the newest pair.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


class LogisticRegression(Classifier):
    """Softmax regression; deterministic (zero init, full-batch L-BFGS).

    ``max_epochs`` caps the L-BFGS iterations; the fit stops earlier once
    an accepted step lowers the loss by less than ``tol``, or when the line
    search finds no decrease in ``_MAX_HALVINGS`` halvings (the weights are
    then those before that search).  After ``fit``, ``n_epochs_`` is the
    number of iterations run, ``final_loss_`` the loss at the returned
    weights, and ``converged_`` is true unless the iteration cap stopped it.
    """

    kind = "logreg"
    fitted = {"weights_": np.float64}

    def __init__(self, max_epochs: int = 1000, tol: float = 1e-8, l2: float = 0.0):
        self.max_epochs = whole_number("max_epochs", max_epochs, 1)
        self.tol = finite_real("tol", tol, 0.0)
        self.l2 = finite_real("l2", l2, 0.0)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        X_aug = np.hstack([X, np.ones((X.shape[0], 1))])
        shape = (len(self.classes_), X_aug.shape[1])

        def objective(w):
            loss, grad = loss_and_grad(w.reshape(shape), X_aug, y_idx, self.l2)
            return loss, grad.ravel()

        w = np.zeros(shape[0] * shape[1])
        loss, grad = objective(w)
        pairs: deque = deque(maxlen=_MEMORY)
        for epoch in range(1, self.max_epochs + 1):
            direction = -_two_loop(grad, pairs)
            slope = grad @ direction
            if not slope < 0:  # not a descent direction: restart from -grad
                pairs.clear()
                direction = -grad
                slope = -(grad @ grad)
            step = 1.0
            for _ in range(_MAX_HALVINGS):
                w_new = w + step * direction
                loss_new, grad_new = objective(w_new)
                if loss_new <= loss + _ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                converged = True
                break
            s, y = w_new - w, grad_new - grad
            sy = s @ y
            if sy > 0:
                pairs.append((s, y, 1.0 / sy))
            converged = loss - loss_new < self.tol  # Armijo keeps this >= 0
            w, loss, grad = w_new, loss_new, grad_new
            if converged:
                break
        self.weights_ = w.reshape(shape)
        self.n_epochs_ = epoch
        self.final_loss_ = loss
        self.converged_ = converged

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights_[:, :-1].T + self.weights_[:, -1]  # logits

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self._scores(X), axis=1)
