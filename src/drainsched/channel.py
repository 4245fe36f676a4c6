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
    if not 0 < scale_constant < math.inf:
        raise ConfigError(f"channel scale constant must be finite and > 0, got {scale_constant}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(CHANNEL_STREAM, period))
    )
    # numpy's rayleigh(scale) draws scale * sqrt(2.0 * standard_exponential())
    # per element, so one exponential fill of the same stream gives the same
    # amplitudes bit for bit without its per-call array handling.
    draws = rng.standard_exponential(len(spec.links)).tolist()
    sqrt = math.sqrt
    gains = {}
    for link, d2, e in zip(spec.links, spec.squared_lengths.tolist(), draws):
        a = scale_constant / d2 * sqrt(2.0 * e)
        gains[link] = a * a
    return gains


def fixed_gains(spec: NetworkSpec, gain: float) -> dict[Link, float]:
    """Constant-gain channel, for controlled experiments."""
    if gain < 0:
        raise ConfigError(f"fixed gain must be >= 0, got {gain}")
    return {link: float(gain) for link in spec.links}


def rate_table(
    gains: dict[Link, float], power: float = 1.0, noise: float = 1.0, base: str = "e"
) -> dict[Link, float]:
    """Link rates in bits/slot for one period's power gains.

    Each rate is the Shannon-style log(1 + gain * power / noise), natural log
    by default or base 2; the arguments shared by every link are checked once.
    A finite gain whose gain * power / noise overflows to inf is a ConfigError
    naming the link: its rate would be infinite.
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
        snr = g * power / noise
        if snr == math.inf > g:  # a finite gain whose product overflows
            raise ConfigError(
                f"channel: link {link}: gain * power / noise = {g!r} * {power!r} / {noise!r}"
                " overflows the float range"
            )
        rate = math.log1p(snr)
        if ln2 is not None:
            rate /= ln2
        out[link] = rate
    return out
