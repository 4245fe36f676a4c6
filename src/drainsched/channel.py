"""Per-review-period channel gains and link rates.

Gains are redrawn once per review period (slow fading within a period).
The default model draws a Rayleigh amplitude with scale c / d^2 for a link
of length d and squares it to get the power gain; a fixed-gain mode exists
for deterministic-rate experiments.

Period p of seed s draws from the substream numpy seeds as
default_rng(SeedSequence(entropy=s, spawn_key=(CHANNEL_STREAM, p))). Building
that SeedSequence, PCG64 and Generator costs ~15 us, five times the draw, so
this module derives the same PCG64 states itself, _BLOCK periods at a time:
the part of SeedSequence's hash that only depends on the seed runs once per
block in Python ints, the period's words and generate_state(4, uint64) run as
uint32 arithmetic over the block, and each draw then applies PCG64's two
seeding steps to its row and sets one shared generator's state. The
derivation follows numpy's SeedSequence (NEP 19, after O'Neill's seed_seq)
and PCG64 seeding (O'Neill, PCG, 2014) word for word, so the gains equal
numpy's bit for bit; tests/test_channel.py compares the two.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .network import ConfigError, Link, NetworkSpec, is_integer, number

CHANNEL_STREAM = 0  # seed-sequence domain tag for channel draws

# Periods per derived block. A power of two, so a block never spans 2**32 or
# 2**64, where a period's number of spawn-key words changes, and the words
# above the lowest one are the same for the whole block.
_BLOCK = 256
_MAX_BLOCKS = 2  # derived blocks kept, keyed by (seed, period // _BLOCK)

# numpy.random.SeedSequence's hash constants and pool size.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

_blocks: dict[tuple[int, int], np.ndarray] = {}
# The one generator whose state each draw sets. It is made on the first
# draw, because numpy.random's first use costs ~10 ms that importing the
# package need not pay.
_generator: np.random.Generator | None = None
# Guards _blocks and the shared generator from setting its state to reading
# the draw. PCG64.lock cannot: standard_exponential takes it itself.
_lock = threading.Lock()


def _words(n: int) -> list[int]:
    """n's little-endian uint32 words, as SeedSequence splits an int; [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x, y):
    # SeedSequence's mix, on Python ints or numpy uint32 arrays. Each product
    # is masked before the subtraction, so an array never meets an int wider
    # than 32 bits, and uint32 arrays wrap as the C code does.
    r = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return r ^ (r >> _XSHIFT)


def _derive_block(seed: int, block: int) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(entropy=seed,
    spawn_key=(CHANNEL_STREAM, p)) for the _BLOCK periods p of the block, as a
    (_BLOCK, 4) uint64 array.

    The entropy SeedSequence mixes is the seed's words padded with zeros to
    the pool size, then CHANNEL_STREAM, then the period's words. The hash
    constant's sequence does not depend on the values, so everything up to
    the period's lowest word runs once for the block in Python ints, and from
    there the pool is four uint32 arrays over the block's periods.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> _XSHIFT)

    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # The block's periods share every word but the lowest, whose low bits
    # count through the block.
    first = _words(block * _BLOCK)
    low = np.arange(first[0], first[0] + _BLOCK, dtype=np.uint32)
    for w in (*entropy[_POOL_SIZE:], CHANNEL_STREAM, low, *first[1:]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        d = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        d = d * hash_const & _MASK32
        halves.append((d ^ (d >> _XSHIFT)).astype(np.uint64))
    out = np.empty((_BLOCK, 4), dtype=np.uint64)
    for k in range(4):
        out[:, k] = halves[2 * k] | halves[2 * k + 1] << 32
    return out


def _nonnegative_int(value, name: str) -> int:
    # Not network.integer: draw_gains documents a TypeError for a seed or
    # period that is not an integer and a ValueError for a negative one.
    if not is_integer(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return n


def _exponentials(seed: int, period: int, n: int) -> list[float]:
    """standard_exponential(n) of period's channel substream, as a list."""
    global _generator
    if type(seed) is not int or seed < 0:
        seed = _nonnegative_int(seed, "seed")
    if type(period) is not int or period < 0:
        period = _nonnegative_int(period, "period")
    block, row = divmod(period, _BLOCK)
    key = (seed, block)
    with _lock:
        if _generator is None:
            _generator = np.random.Generator(np.random.PCG64(0))
        words = _blocks.get(key)
        if words is None:
            if len(_blocks) >= _MAX_BLOCKS:
                del _blocks[next(iter(_blocks))]
            words = _blocks[key] = _derive_block(seed, block)
        s_hi, s_lo, i_hi, i_lo = words[row].tolist()
        # pcg64_set_seed(initstate, initseq): inc = 2 * initseq + 1, then two
        # LCG steps from state 0, adding initstate after the first.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        _generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return _generator.standard_exponential(n).tolist()


def draw_gains(
    spec: NetworkSpec, period: int, seed: int, scale_constant: float = 1.0
) -> dict[Link, float]:
    """Draw i.i.d. Rayleigh-amplitude power gains for every link.

    The amplitude scale of link (i, j) is scale_constant / d_ij^2. Draws are
    a pure function of (seed, period, declared link order): the same call
    always returns the same gains, and different periods use independent
    substreams regardless of how many periods were drawn before. seed and
    period are non-negative integers: a negative one raises ValueError and a
    non-integer, bool included, TypeError.
    """
    scale_constant = number(scale_constant, "channel scale constant", 0, strict=True)
    # numpy's rayleigh(scale) draws scale * sqrt(2.0 * standard_exponential())
    # per element, so one exponential fill of the same stream gives the same
    # amplitudes bit for bit without its per-call array handling.
    draws = _exponentials(seed, period, len(spec.links))
    sqrt = math.sqrt
    gains = {}
    for link, d2, e in zip(spec.links, spec.squared_lengths, draws):
        a = scale_constant / d2 * sqrt(2.0 * e)
        gains[link] = a * a
    return gains


def fixed_gains(spec: NetworkSpec, gain: float) -> dict[Link, float]:
    """Constant-gain channel, for controlled experiments."""
    gain = number(gain, "fixed gain", 0)
    return {link: gain for link in spec.links}


def rate_table(
    gains: dict[Link, float], power: float = 1.0, noise: float = 1.0, base: str = "e"
) -> dict[Link, float]:
    """Link rates in bits/slot for one period's power gains.

    Each rate is the Shannon-style log(1 + gain * power / noise), natural log
    by default or base 2; the arguments shared by every link are checked once
    (power and noise follow number's rule, finite and > 0).
    A finite gain whose gain * power / noise overflows to inf is a ConfigError
    naming the link: its rate would be infinite.
    """
    power = number(power, "power", 0, strict=True)
    noise = number(noise, "noise", 0, strict=True)
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
