"""Exception types shared across the library."""


class GradflowError(Exception):
    """Base class for all library-specific errors."""


class ConvergenceError(GradflowError):
    """An iterative inner solver failed to reach its tolerance.

    Carries the best iterate found so far in ``best`` and its residual
    norm in ``residual``.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class PreconditionerError(GradflowError):
    """A preconditioner matrix failed a positive-definiteness check."""


class LineSearchError(GradflowError):
    """Backtracking exhausted its budget without an acceptable step."""


class DivergenceError(GradflowError):
    """A sampler or descent-flow state became non-finite.

    Names the step as the run's artifacts label it and, when known, the
    sampler's particle or the flow's start (its index in ``init``).
    """

    def __init__(self, step, particle=None, start=None):
        where = (f", particle {particle}" if particle is not None
                 else f", start {start}" if start is not None else "")
        super().__init__(f"non-finite state at step {step}{where}")
        self.step = step
        self.particle = particle
        self.start = start


class StabilityError(GradflowError):
    """Requested time step violates the explicit scheme's stability bound."""

    def __init__(self, dt, dt_max):
        super().__init__(
            f"dt={dt:g} exceeds the stability bound; maximal admissible dt is {dt_max:.6e}"
        )
        self.dt = dt
        self.dt_max = dt_max


class GridMismatchError(GradflowError):
    """Two grid densities do not share the same grid."""


class ConfigError(GradflowError):
    """Experiment config failed validation; carries all messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))
