"""Exception types shared across the package."""

from collections import Counter


class SymOrthoError(Exception):
    """Base class for all library errors."""


class ConstraintViolation(SymOrthoError):
    """A parameter constraint was violated at construction time."""


class DegenerateDenominator(SymOrthoError):
    """A denominator in a coefficient or recurrence formula vanishes."""

    def __init__(self, detail, index=None):
        self.index = index
        super().__init__(detail if index is None else f"{detail} (factor index {index})")


class ZeroLeadingCoefficient(SymOrthoError):
    """The leading coefficient vanishes, so no monic form of that degree exists."""


class SingularPoint(SymOrthoError):
    """A function was evaluated at a point where it is singular."""


class DivergentMoment(SymOrthoError):
    """A weight moment does not converge for the given parameters."""


class OutOfFiniteRange(SymOrthoError):
    """Degree exceeds the validity bound of a finite family."""

    def __init__(self, n, bound):
        self.n = n
        self.bound = bound
        super().__init__(f"degree {n} exceeds the finite validity bound {bound}")


class PoleError(SymOrthoError):
    """Gamma function evaluated at a nonpositive integer."""


class MaxDepthExceeded(SymOrthoError):
    """Adaptive refinement hit its budget without converging or detecting divergence.

    Carries the partial result in the `partial` attribute.
    """

    def __init__(self, partial):
        self.partial = partial
        super().__init__(
            "quadrature inconclusive: budget exhausted with estimate "
            f"{partial.value!r} +- {partial.abs_error_estimate!r}"
        )


class SingularCoefficient(SymOrthoError):
    """The leading ODE coefficient vanishes where it must not."""


class NonpositiveWeight(SymOrthoError):
    """A weight evaluated to a nonpositive or nonfinite value inside the support."""


class BasisInvalid(SymOrthoError):
    """An expansion basis has Gram entries that are not verified (status ok)."""

    def __init__(self, report):
        self.report = report
        bad = Counter(e.status for e in report.entries if e.status != "ok")
        counts = ", ".join(f"{v} {k}" for k, v in sorted(bad.items()))
        super().__init__(f"expand needs every Gram entry verified; not verified: {bad.total()} "
                         f"of {len(report.entries)} ({counts}); {report.summary()}")


class NonSquareIntegrable(SymOrthoError):
    """The target function has no finite weighted square integral."""
