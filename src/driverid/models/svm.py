"""Linear SVM trained with the Pegasos stochastic subgradient method.

One weight vector per class, one-vs-rest, on the λ-regularized hinge
objective.  ``hinge_loss`` and ``primal_objective`` are standalone so a
fit can be checked to lower the objective it minimises.

``predict_proba`` returns a softmax over the raw margins — calibrated
scores, not true probabilities — and documents itself as such.
"""

from __future__ import annotations

import numpy as np

from ..errors import finite_real, whole_number
from .base import Classifier, softmax


def hinge_loss(margins):
    """max(0, 1 − m) elementwise, where m = y·f(x)."""
    m = np.asarray(margins, dtype=np.float64)
    out = np.maximum(0.0, 1.0 - m)
    return out if out.ndim else float(out)


def primal_objective(w: np.ndarray, X: np.ndarray, y_signs: np.ndarray, lam: float) -> float:
    """λ/2‖w‖² + mean hinge loss of the margins y·(X @ w)."""
    margins = y_signs * (X @ w)
    return 0.5 * lam * float(w @ w) + float(np.mean(hinge_loss(margins)))


class LinearSvm(Classifier):
    """One-vs-rest linear SVM via mini-batch Pegasos.

    Each step t draws the next ``batch_size`` rows of a seed-controlled
    per-epoch shuffle, applies the decayed update with η = 1/(λt) to every
    class vector at once (hinge-active rows only), then projects onto the
    ‖w‖ ≤ 1/√λ ball.  ``batch_size=1`` is the classic per-sample algorithm;
    the default 64 trades nothing but update granularity for a large
    constant-factor speedup.  A constant 1-feature is appended, so the bias
    is regularized with the rest of the vector.

    The loop is bound by numpy's per-call cost, so a step writes every
    product into buffers made once per fit and multiplies by the
    projection factor only when some class vector leaves the ball: inside
    it the factor is radius/radius, exactly 1.0.  ``np.dot`` makes the same
    BLAS call as ``@`` with less overhead.  The weights are those of the
    plain loop, bit for bit; the test suite holds a copy of that loop and
    checks it.
    """

    kind = "svm"
    fitted = {"weights_": np.float64}

    def __init__(self, lam: float = 1e-4, epochs: int = 20, seed: int = 1, batch_size: int = 64):
        self.lam = finite_real("lam", lam, 0.0, strict=True)
        self.epochs = whole_number("epochs", epochs, 1)
        self.seed = whole_number("seed", seed, 0)
        self.batch_size = whole_number("batch_size", batch_size, 1)

    def _fit(self, X: np.ndarray, y_idx: np.ndarray) -> None:
        n, d = X.shape
        K = len(self.classes_)
        X_aug = np.hstack([X, np.ones((n, 1))])
        # y_signs[i, c] = +1 when row i belongs to class c, else −1
        y_signs = np.full((n, K), -1.0)
        y_signs[np.arange(n), y_idx] = 1.0

        W = np.zeros((K, d + 1))
        radius = 1.0 / np.sqrt(self.lam)
        rng = np.random.default_rng(self.seed)
        t = 0
        # One gather per epoch into buffers allocated once, so no two
        # epochs' copies are alive together; each batch is a view of them.
        # take's default mode="raise" gathers into a temporary copy of the
        # output; a permutation never needs clipping, so "clip" writes in place.
        X_epoch, S_epoch = np.empty_like(X_aug), np.empty_like(y_signs)
        # Every step writes its margins, hinge-active mask, signed mask,
        # gradient and norms into buffers made here, so a step allocates
        # nothing; each batch's rows of them are views made once.
        step = self.batch_size
        b = min(n, step)
        margins, active, signed = np.empty((b, K)), np.empty((b, K), dtype=bool), np.empty((b, K))
        grad, norms = np.empty_like(W), np.empty(K)
        batches = [
            (X_epoch[lo : lo + step], S_epoch[lo : lo + step],
             margins[: n - lo], active[: n - lo], signed[: n - lo])
            for lo in range(0, n, step)
        ]
        lam, WT = self.lam, W.T
        for _ in range(self.epochs):
            perm = rng.permutation(n)
            np.take(X_aug, perm, axis=0, out=X_epoch, mode="clip")
            np.take(y_signs, perm, axis=0, out=S_epoch, mode="clip")
            for Xb, Sb, Mb, Ab, Gb in batches:  # (b, d+1), then four (b, K)
                t += 1
                eta = 1.0 / (lam * t)
                np.dot(Xb, WT, out=Mb)
                np.multiply(Sb, Mb, out=Mb)
                np.less(Mb, 1.0, out=Ab)
                W *= 1.0 - eta * lam
                np.multiply(Sb, Ab, out=Gb)
                np.dot(Gb.T, Xb, out=grad)
                grad *= eta / len(Xb)
                W += grad
                np.einsum("ij,ij->i", W, W, out=norms)
                np.sqrt(norms, out=norms)
                # Within the ball the factor is radius / radius, exactly 1.0.
                if norms.max() > radius:
                    np.maximum(norms, radius, out=norms)
                    np.divide(radius, norms, out=norms)
                    W *= norms[:, None]
        self.weights_ = W

    def _scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights_[:, :-1].T + self.weights_[:, -1]  # margins

    def _proba(self, X: np.ndarray) -> np.ndarray:
        # softmax-calibrated margins; ordering matches predict
        return softmax(self._scores(X), axis=1)
