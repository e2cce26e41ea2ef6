"""Synthetic series shared across the test suite."""

import numpy as np


def two_regime_series(n, period=32, block_len=32, noise=0.1, seed=0):
    """Alternate a sine regime and a square regime of the same period.

    Both signals are built by tiling one period, so repeats are
    bit-identical before noise is added, and the sine is quantized to a
    1/64 grid so that sums of its samples (and of their squares) stay
    exact in float64.  With exact sums, windows with equal content sit
    at distance exactly 0 from each other regardless of position, which
    the noise-free tie-breaking assertions in the tests rely on.
    Regimes swap every ``block_len`` points; block boundaries fall on
    period boundaries when ``block_len`` is a multiple of ``period``.

    Returns the noisy values and the per-point regime id (0 for sine).
    """
    rng = np.random.default_rng(seed)
    t = np.arange(period)
    sine_period = np.round(np.sin(2 * np.pi * t / period) * 64) / 64
    sine = np.tile(sine_period, n // period + 1)[:n]
    square = np.tile(np.where(t < period // 2, 1.0, -1.0), n // period + 1)[:n]
    regime = (np.arange(n) // block_len) % 2
    values = np.where(regime == 0, sine, square)
    if noise:
        values = values + noise * rng.standard_normal(n)
    return values, regime


def sine_sawtooth_series(n, period, block_len, seed):
    """The benchmark's input: sine and sawtooth regimes of one period.

    Regimes swap every ``block_len`` points; Gaussian noise of 0.05 and
    an offset of 1e3 are added in the benchmark's order, so the values
    are bit for bit those of its workloads at the same seed.  Returns
    the values and the per-point regime id (0 for sine).
    """
    rng = np.random.default_rng(seed)
    phase = np.arange(n) % period / period
    regime = (np.arange(n) // block_len) % 2
    values = np.where(regime == 0, np.sin(2 * np.pi * phase), 2 * phase - 1)
    return values + 0.05 * rng.standard_normal(n) + 1e3, regime


def random_series(rng, n):
    """A random series mixing flavors: noise, walks, waves, flat spells.

    Flat stretches exercise the constant-window distance conventions.
    """
    flavor = rng.integers(4)
    if flavor == 0:
        values = rng.standard_normal(n)
    elif flavor == 1:
        values = np.cumsum(rng.standard_normal(n))
    elif flavor == 2:
        period = int(rng.integers(4, 40))
        values = np.sin(2 * np.pi * np.arange(n) / period)
        values = values + 0.2 * rng.standard_normal(n)
    else:
        values = rng.standard_normal(n)
        start = int(rng.integers(0, max(1, n - 10)))
        length = int(rng.integers(5, min(40, n - start)))
        values[start : start + length] = values[start]
    return values
