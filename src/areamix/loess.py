"""Locally weighted linear smoothing (tricube kernel, degree 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError

MIN_POINTS = 5


@dataclass(frozen=True)
class LoessSmoother:
    """A fitted local-linear smoother, evaluable at new points.

    Evaluation points outside the training range are clamped to the range
    boundary, so the smoother interpolates and never extrapolates.
    """

    x: np.ndarray
    y: np.ndarray
    span: float

    def __call__(self, x_new) -> np.ndarray:
        """The smoothed value at each point of ``x_new`` (a float for a scalar).

        Each distinct clamped point is smoothed once and its value shared by
        every query at it.  Repeats are the common case: a variance repair
        without sample sizes queries at z = log(0 + 1) = 0 for every zero
        count, and clamping sends every query past either end of the range
        to that end.
        """
        pts = np.atleast_1d(np.asarray(x_new, dtype=float))
        lo, hi = float(self.x.min()), float(self.x.max())
        points, inverse = np.unique(np.clip(pts, lo, hi), return_inverse=True)
        out = np.array([self._predict_one(float(p)) for p in points], dtype=float)[inverse]
        if np.isscalar(x_new) or np.asarray(x_new).ndim == 0:
            return float(out[0])
        return out

    def _predict_one(self, x0: float) -> float:
        x, y = self.x, self.y
        n = x.size
        k = min(n, max(2, math.ceil(self.span * n)))
        dist = np.abs(x - x0)
        h = np.partition(dist, k - 1)[k - 1]
        if h <= 0.0:
            # all selected neighbours sit exactly at x0: average them
            w = (dist == 0.0).astype(float)
        else:
            u = dist / h
            w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
        sw = w.sum()
        t = x - x0
        swx = np.dot(w, t)
        swy = np.dot(w, y)
        swxx = np.dot(w, t * t)
        swxy = np.dot(w, t * y)
        denom = sw * swxx - swx * swx
        scale = sw * swxx + swx * swx
        if denom <= 1e-12 * max(scale, 1e-300):
            # degenerate local design: fall back to the weighted mean
            return float(swy / sw)
        return float((swy * swxx - swx * swxy) / denom)


def check_span(span: float) -> None:
    """Raise DomainError unless span, the neighbourhood share, lies in (0, 1]."""
    if not (0.0 < span <= 1.0):
        raise DomainError(f"span must lie in (0, 1], got {span}")


def loess_fit(x, y, span: float = 0.75) -> LoessSmoother:
    """Fit a tricube-weighted local linear smoother of y on x.

    Parameters
    ----------
    x, y : array_like
        Training points; at least five are required.
    span : float
        Fraction of the data in each local neighbourhood, in (0, 1].

    Returns
    -------
    LoessSmoother
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise DomainError("x and y must have the same length")
    if x.size < MIN_POINTS:
        raise InsufficientDataError(
            f"smoothing needs at least {MIN_POINTS} points, got {x.size}"
        )
    check_span(span)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("smoothing inputs must be finite")
    return LoessSmoother(x=x.copy(), y=y.copy(), span=float(span))
