"""Counter-based random streams for reproducible particle simulations.

Every draw is addressed by (seed, context, step, particle, column) and is
computed from a Philox counter position, never from sequential generator
state.  Consequences:

* identical (seed, particle, step) always yield identical draws,
* any partition of particles across workers produces identical output,
* per-particle rows are exact slices of the vectorized per-step block:
  particle ``i``'s row is ``uniform_rows(step, i, i + 1, width)[0]``.

Random-stream layout 2 (``RNG_LAYOUT``): column ``c`` of step ``k`` in
context ``ctx`` is its own Philox stream, key ``(seed, _KEY_PAD)`` and
counter ``(0, ctx, k, c + 1)``, and particle ``i`` takes draw ``i`` of
that stream.  Draws therefore run contiguously over particles and none
are generated only to be discarded; a chunk starting at particle ``s``
advances ``s // 4`` Philox blocks and drops ``s % 4`` leading draws.

Gaussians are produced by inverse-CDF transform of one uniform each (the
ziggurat consumes a variable number of uniforms, which would break
position addressing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
# second key word decorrelates small seeds; any fixed odd constant works
_KEY_PAD = 0x9E3779B97F4A7C15
# Philox advances in blocks of 4 doubles
_BLOCK = 4
_U_MIN = 2.0**-64
# the random-stream layout version, recorded in every run manifest
RNG_LAYOUT = 2


def ndtri(u):
    """Inverse standard normal CDF, ``scipy.special.ndtri``.

    scipy is imported on the first call, so a process that draws no
    Gaussians never loads it.
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

    def uniform_rows(self, step: int, start: int, stop: int, width: int,
                     context: int = 0) -> np.ndarray:
        """Uniform draws in (0, 1) for particles ``start..stop-1`` at one step.

        Returns an array of shape ``(stop - start, width)``.  Row ``i`` of the
        full block (``start=0, stop=J``) equals the one-row slice
        ``uniform_rows(step, i, i + 1, width)[0]`` bit for bit, and any
        chunking of ``0..J`` concatenates to the full block.
        """
        if stop <= start:
            return np.empty((0, width))
        start = int(start)
        key = np.array([self.seed & _MASK64, _KEY_PAD], dtype=np.uint64)
        out = np.empty((width, stop - start))
        # one bit generator, re-pointed at each column's stream: building a
        # Philox costs more than drawing a single row from it
        bg = np.random.Philox(key=key)
        gen = np.random.Generator(bg)
        state = bg.state
        for c in range(width):
            state["state"]["counter"] = np.array(
                [0, context & _MASK64, step & _MASK64, c + 1], dtype=np.uint64)
            state["buffer_pos"] = _BLOCK  # empty buffer: next draw starts a block
            bg.state = state
            bg.advance(start // _BLOCK)
            if start % _BLOCK:
                gen.random(start % _BLOCK)
            gen.random(out=out[c])
        # random() lands in [0, 1); clamp away 0 so ndtri stays finite
        np.maximum(out, _U_MIN, out=out)
        return out.T

    def normal_rows(self, step: int, start: int, stop: int, width: int,
                    context: int = 0) -> np.ndarray:
        """Standard Gaussians: ``ndtri`` of ``uniform_rows`` at the same address."""
        return ndtri(self.uniform_rows(step, start, stop, width, context))
