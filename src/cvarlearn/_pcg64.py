"""NumPy's ``default_rng(seed).random`` stream without ``numpy.random``.

``Stream(seed).random(n)`` returns, call after call, exactly the doubles
that ``np.random.default_rng(seed).random(n)`` returns: ``SeedSequence``'s
hash of the seed's 32-bit words, its ``generate_state(4, uint64)``, PCG64's
seeding, its 128-bit LCG, the XSL-RR output and ``(r >> 11) * 2**-53``.

Draws are whole-array work. With ``u = (M - 1) * s + inc``, the ``j``-th
state after ``s`` is ``s + C_j * u mod 2**128``, where ``C_j`` is the sum of
``M**i`` for ``i < j``. One shared table of ``C_1 .. C_L``, built on the first
draw, makes each block of up to ``L`` states one array-by-scalar product,
computed in 64-bit halves.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .core import ConfigurationError

_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: States per block: the table's length.
_L = 4096


def _words(seed) -> list[int]:
    """The seed's 32-bit words, least significant first; ``[0]`` for 0."""
    try:
        n = operator.index(seed)
    except TypeError:
        n = -1
    if n < 0:
        raise ConfigurationError(f"seed {seed!r} must be a non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _pool(words: list[int]) -> list[int]:
    """``SeedSequence``'s entropy pool, ``mix_entropy`` with no spawn key."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state(pool: list[int]) -> list[int]:
    """``generate_state(4, uint64)``: eight hashed words, paired low first."""
    const, out = _INIT_B, []
    for i in range(2 * 4):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


@functools.cache
def _table() -> tuple[np.ndarray, ...]:
    """``C_1 .. C_L`` as ``uint64`` arrays: the low half's two 32-bit words,
    the low half and the high half."""
    c, cs = 1, []
    for _ in range(_L):
        cs.append(c)
        c = (c * _MULT + 1) & _M128
    c0, c1, hi = np.array([[c & _M32, c >> 32 & _M32, c >> 64] for c in cs],
                          dtype=np.uint64).T
    return c0, c1, c0 | c1 << np.uint64(32), hi


class Stream:
    """The ``random`` stream of ``np.random.default_rng(seed)``, for an
    integer ``seed >= 0``."""

    def __init__(self, seed):
        key = _state(_pool(_words(seed)))
        s, seq = key[0] << 64 | key[1], key[2] << 64 | key[3]
        # From state 0: one step, add the seed's state, one more step.
        self._inc = (seq << 1 | 1) & _M128
        self._s = ((self._inc + s) * _MULT + self._inc) & _M128

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` uniform doubles in ``[0, 1)``."""
        out = np.empty(n)
        for start in range(0, n, _L):
            out[start:start + _L] = self._block(min(_L, n - start))
        return out

    def _block(self, m: int) -> np.ndarray:
        c0, c1, c_lo, c_hi = (c[:m] for c in _table())
        s = self._s
        u = ((_MULT - 1) * s + self._inc) & _M128
        u_lo = u & _M64
        u0, u1, u_hi = np.uint64(u_lo & _M32), np.uint64(u_lo >> 32), np.uint64(u >> 64)
        # C * u mod 2**128: the low half's full product in 32-bit pieces,
        # then the cross terms into the high half.
        shift, mask = np.uint64(32), np.uint64(_M32)
        p00, p01, p10 = c0 * u0, c0 * u1, c1 * u0
        mid = (p00 >> shift) + (p01 & mask) + (p10 & mask)
        lo = (p00 & mask) | mid << shift
        hi = (c1 * u1 + (p01 >> shift) + (p10 >> shift) + (mid >> shift)
              + c_hi * np.uint64(u_lo) + c_lo * u_hi)
        lo += np.uint64(s & _M64)
        hi += np.uint64(s >> 64) + (lo < np.uint64(s & _M64))
        self._s = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = x >> rot | x << (-rot & np.uint64(63))
        return (x >> np.uint64(11)) * (1.0 / 2 ** 53)
