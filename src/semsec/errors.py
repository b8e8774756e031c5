"""Exception hierarchy for the semsec package."""

from __future__ import annotations


class SemsecError(Exception):
    """Base class for all semsec-specific errors."""


class DomainError(SemsecError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(SemsecError, ValueError):
    """A configuration or composite input failed validation.

    The message lists one ``field.path: problem`` entry per line.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ConsistencyError(SemsecError, RuntimeError):
    """An internal identity was violated beyond round-off tolerance.

    Example: a mutual information evaluating below -1e-9, which indicates a
    numerical problem rather than ordinary round-off.
    """


class InfeasibleError(SemsecError, ValueError):
    """A distortion or secrecy demand is unattainable for the given model."""

