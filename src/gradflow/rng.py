"""Counter-based random streams for reproducible particle simulations.

Every draw is addressed by (seed, context, step, column, particle) and is
computed from a Philox counter, never from sequential generator state:
identical (seed, context, step) always yield identical draws, in any
order of calls.

Random-stream layout 3 (``RNG_LAYOUT``): column ``c`` of step ``k`` in
context ``ctx`` is its own Philox stream, key ``(seed, _KEY_PAD)`` and
counter ``(0, ctx, k, c + 1)``.  A uniform column of ``n`` particles is
``random(n)`` of that stream and a Gaussian column is
``standard_normal(n)`` (numpy's ziggurat), so particle ``i`` takes the
``i``-th value of its column.  A block of columns ``c..c+w-1`` is read
whole; a narrower block is a prefix of a wider one, and the columns of a
block do not depend on where it starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
# second key word decorrelates small seeds; any fixed odd constant works
_KEY_PAD = 0x9E3779B97F4A7C15
_U_MIN = 2.0**-64
# the random-stream layout version, recorded in every run manifest
RNG_LAYOUT = 3


def ndtri(u):
    """Inverse standard normal CDF, ``scipy.special.ndtri``.

    scipy is imported on the first call, so a process that never calls it
    never loads it.  No sampler calls it.
    """
    from scipy.special import ndtri as _ndtri
    return _ndtri(u)


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream factory keyed by a 64-bit seed.

    ``context`` separates independent draw families (0 is reserved for
    sampler dynamics, 1 for ensemble initialization).
    """

    seed: int

    def _columns(self, method: str, step: int, n: int, width: int, context: int,
                 column: int) -> np.ndarray:
        """A ``(n, width)`` block whose column ``c`` is the ``Generator`` draw
        ``method`` of ``n`` values from stream column ``column + c``."""
        key = np.array([self.seed & _MASK64, _KEY_PAD], dtype=np.uint64)
        out = np.empty((width, n))
        for c in range(width):
            counter = np.array([0, context & _MASK64, step & _MASK64, column + c + 1],
                               dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
            getattr(gen, method)(out=out[c])
        return out.T

    def uniform_rows(self, step: int, n: int, width: int, context: int = 0,
                     column: int = 0) -> np.ndarray:
        """Uniform draws in (0, 1) of ``n`` particles in stream columns
        ``column..column+width-1`` at one step, shape ``(n, width)``."""
        out = self._columns("random", step, n, width, context, column)
        # random() lands in [0, 1); the clamp keeps the interval open
        np.maximum(out, _U_MIN, out=out)
        return out

    def normal_rows(self, step: int, n: int, width: int, context: int = 0,
                    column: int = 0) -> np.ndarray:
        """Standard Gaussians of ``n`` particles in stream columns
        ``column..column+width-1`` at one step, shape ``(n, width)``."""
        return self._columns("standard_normal", step, n, width, context, column)
