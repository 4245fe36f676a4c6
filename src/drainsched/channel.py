"""Per-review-period channel gains and link rates.

Gains are redrawn once per review period (slow fading within a period).
The default model draws a Rayleigh amplitude with scale c / d^2 for a link
of length d and squares it to get the power gain; a fixed-gain mode exists
for deterministic-rate experiments.
"""

from __future__ import annotations

import math

import numpy as np

from .network import ConfigError, Link, NetworkSpec

CHANNEL_STREAM = 0  # seed-sequence domain tag for channel draws


def draw_gains(
    spec: NetworkSpec, period: int, seed: int, scale_constant: float = 1.0
) -> dict[Link, float]:
    """Draw i.i.d. Rayleigh-amplitude power gains for every link.

    The amplitude scale of link (i, j) is scale_constant / d_ij^2. Draws are
    a pure function of (seed, period, declared link order): the same call
    always returns the same gains, and different periods use independent
    substreams regardless of how many periods were drawn before.
    """
    if scale_constant <= 0:
        raise ConfigError(f"channel scale constant must be > 0, got {scale_constant}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(CHANNEL_STREAM, period))
    )
    scales = scale_constant / spec.squared_lengths
    return {link: a * a for link, a in zip(spec.links, rng.rayleigh(scale=scales).tolist())}


def fixed_gains(spec: NetworkSpec, gain: float) -> dict[Link, float]:
    """Constant-gain channel, for controlled experiments."""
    if gain < 0:
        raise ConfigError(f"fixed gain must be >= 0, got {gain}")
    return {link: float(gain) for link in spec.links}


def compute_rate(gain: float, power: float = 1.0, noise: float = 1.0, base: str = "e") -> float:
    """Shannon-style rate log(1 + gain * power / noise), natural log by default."""
    if gain < 0:
        raise ValueError(f"gain must be >= 0, got {gain}")
    if power <= 0:
        raise ValueError(f"power must be > 0, got {power}")
    if noise <= 0:
        raise ValueError(f"noise must be > 0, got {noise}")
    rate = math.log1p(gain * power / noise)
    if base == "2":
        rate /= math.log(2.0)
    elif base != "e":
        raise ValueError(f"log base must be 'e' or '2', got {base!r}")
    return rate


def rate_table(
    gains: dict[Link, float], power: float = 1.0, noise: float = 1.0, base: str = "e"
) -> dict[Link, float]:
    """Link rates in bits/slot for one period's power gains.

    Each rate is compute_rate(gain, power, noise, base); the arguments shared
    by every link are checked once.
    """
    if power <= 0:
        raise ValueError(f"power must be > 0, got {power}")
    if noise <= 0:
        raise ValueError(f"noise must be > 0, got {noise}")
    if base not in ("e", "2"):
        raise ValueError(f"log base must be 'e' or '2', got {base!r}")
    ln2 = math.log(2.0) if base == "2" else None
    out = {}
    for link, g in gains.items():
        if g < 0:
            raise ValueError(f"gain must be >= 0, got {g}")
        rate = math.log1p(g * power / noise)
        if ln2 is not None:
            rate /= ln2
        out[link] = rate
    return out
