"""Address-seeded random streams for reproducible particle simulations.

Every draw is addressed by (seed, context, step, column, particle) and is
computed from a generator seeded by its address, never from sequential
generator state: identical (seed, context, step) always yield identical
draws, in any order of calls.

Random-stream layout 4 (``RNG_LAYOUT``): column ``c`` of step ``k`` in
context ``ctx`` is its own SFC64 stream, seeded with the address
``[seed, ctx, k, c + 1]`` (seed, ctx and k taken mod 2**64), which
numpy's ``SeedSequence`` hashes into the generator state.  The hash
reads each integer as its 32-bit words, so distinct addresses are
distinct words while context, step and ``c + 1`` stay below 2**32.  A
uniform column of ``n`` particles is ``random(n)`` of that stream and a
Gaussian column is ``standard_normal(n)`` (numpy's ziggurat), so
particle ``i`` takes the ``i``-th value of its column.  A block of
columns ``c..c+w-1`` is read whole; a narrower block is a prefix of a
wider one, and the columns of a block do not depend on where it starts.
``RngStream.fill_columns`` is the one place that draws them: it fills a
buffer the caller owns, so a sampler can draw a later step's block into a
buffer of its own on another thread, and ``uniform_rows`` and
``normal_rows`` return a fresh block through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# configs may hold negative seeds; SeedSequence takes nonnegative integers
_MASK64 = (1 << 64) - 1
_U_MIN = 2.0**-64
# the random-stream layout version, recorded in every run manifest
RNG_LAYOUT = 4


def ndtri(u):
    """Inverse standard normal CDF, ``scipy.special.ndtri``.

    Nothing in gradflow calls it: it is kept only for perfbench's tracer,
    which traces it by name.  It needs scipy, which is not a runtime
    dependency (install the ``test`` extra); scipy is imported on the first
    call.
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

    def fill_columns(self, out: np.ndarray, method: str, step: int, context: int = 0,
                     column: int = 0) -> None:
        """Fill the caller's ``(width, n)`` buffer ``out``, row ``c`` with the
        ``Generator`` draw ``method`` of ``n`` values from stream column
        ``column + c``: ``"standard_normal"`` for Gaussians, ``"random"``
        for uniforms in (0, 1).  It reads nothing but ``self``, so calls on
        other threads into disjoint buffers are safe."""
        address = [self.seed & _MASK64, context & _MASK64, step & _MASK64]
        for c in range(out.shape[0]):
            gen = np.random.Generator(np.random.SFC64(address + [column + c + 1]))
            getattr(gen, method)(out=out[c])
        if method == "random":
            # random() lands in [0, 1); the clamp keeps the interval open
            np.maximum(out, _U_MIN, out=out)

    def _columns(self, method: str, step: int, n: int, width: int, context: int,
                 column: int) -> np.ndarray:
        """A ``(n, width)`` block whose column ``c`` is the ``Generator`` draw
        ``method`` of ``n`` values from stream column ``column + c``."""
        out = np.empty((width, n))
        self.fill_columns(out, method, step, context, column)
        return out.T

    def uniform_rows(self, step: int, n: int, width: int, context: int = 0,
                     column: int = 0) -> np.ndarray:
        """Uniform draws in (0, 1) of ``n`` particles in stream columns
        ``column..column+width-1`` at one step, shape ``(n, width)``."""
        return self._columns("random", step, n, width, context, column)

    def normal_rows(self, step: int, n: int, width: int, context: int = 0,
                    column: int = 0) -> np.ndarray:
        """Standard Gaussians of ``n`` particles in stream columns
        ``column..column+width-1`` at one step, shape ``(n, width)``."""
        return self._columns("standard_normal", step, n, width, context, column)
