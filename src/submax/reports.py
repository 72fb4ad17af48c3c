"""The mean and standard error of a sample, finite at any float scale."""

from __future__ import annotations

import math

import numpy as np


# the rows whose mean m and sum of squared deviations q satisfy 2^-200 <=
# |m| <= 2^200 and q <= 2^400 take the plain formula (see mean_and_sigma)
_PLAIN_MEAN = (2.0 ** -200, 2.0 ** 200)
_PLAIN_SQUARES = 2.0 ** 400


def mean_and_sigma(samples):
    """Sample mean and the standard error of the mean over the last axis:
    two floats for a 1-D sample, one entry per row for a 2-D one.

    sigma is the plain formula's, sqrt(q / (size - 1)) / sqrt(size) with q the
    sum of the squared deviations d from the mean m, on every row where
    2^-200 <= |m| <= 2^200 and q <= 2^400.  The other rows (an all-zero
    row among them) fall back to scaling: their deviations are divided by
    the power of two 2^k <= M < 2^(k + 1) of the row's largest |x| = M
    before they are squared, and the standard deviation is multiplied
    back, which keeps sigma finite for weights near the top of the float
    range.  On the plain rows the two agree bit for bit, since every value
    either formula makes there is 0 or a normal float, so scaling by 2^k
    commutes with each rounding:
    - M <= |m| + sqrt(q) < 2^202 and M >= |m| >= 2^-200, so -201 <= k <= 201;
    - a nonzero |d| is at least 2^-54 |m| >= 2^-254: x and m both of
      magnitude at least |m| / 2 lie on the grid of floats there, of step at
      least 2^-54 |m|, and else |d| > |m| / 2; and |d| <= sqrt(q) <= 2^200;
    - so d^2 lies in [2^-508, 2^400] and (d / 2^k)^2, at most 16 since
      |d| <= 2M, in [2^-910, 16]; their sums, q / (size - 1), its root and
      that over sqrt(size) are normal too for any size below 2^100.
    """
    arr = np.asarray(samples, dtype=float)
    size = arr.shape[-1]
    rows = arr.reshape(math.prod(arr.shape[:-1]), size)
    mean = rows.mean(axis=-1)
    if size > 1:
        dev = rows - mean[:, None]
        with np.errstate(over="ignore"):  # a row whose squares overflow falls back
            squares = np.square(dev, out=dev).sum(axis=-1)
        sigma = np.sqrt(squares / (size - 1)) / math.sqrt(size)
        magnitude = np.abs(mean)
        scaled = (magnitude < _PLAIN_MEAN[0]) | (magnitude > _PLAIN_MEAN[1]) | ~(squares <= _PLAIN_SQUARES)
        if scaled.any():
            sigma[scaled] = _scaled_sigma(rows[scaled], mean[scaled])
    else:
        sigma = np.zeros_like(mean)
    if arr.ndim == 1:
        return float(mean[0]), float(sigma[0])
    return mean.reshape(arr.shape[:-1]), sigma.reshape(arr.shape[:-1])


def _scaled_sigma(rows: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The standard error of each row's mean, from deviations divided by
    the power of two 2^k <= M < 2^(k + 1) of the row's largest |x| = M."""
    size = rows.shape[-1]
    scale = np.ldexp(1.0, np.frexp(np.maximum(rows.max(axis=-1), -rows.min(axis=-1)))[1] - 1)
    dev = rows - mean[:, None]
    dev /= scale[:, None]
    return np.sqrt(np.square(dev, out=dev).sum(axis=-1) / (size - 1)) / math.sqrt(size) * scale
