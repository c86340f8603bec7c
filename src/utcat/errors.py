"""Exception hierarchy shared by all utcat modules.

Every error that corresponds to a *data* problem (as opposed to a programming
bug) derives from :class:`UtcatError` so the CLI can map it to exit codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class UtcatError(Exception):
    """Base class for all engine-level errors."""


class SchemaError(UtcatError):
    """Input JSON does not match the documented schema.

    ``pointer`` is a JSON-pointer-ish path to the offending entry.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple
    detail: str = ""

    def as_dict(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


class RingAxiomError(UtcatError):
    """One or more fusion-ring axioms failed; carries the full violation list."""

    def __init__(self, violations: list[AxiomViolation]):
        super().__init__("; ".join(f"{v.axiom}@{v.witness}" for v in violations[:8]))
        self.violations = violations


class UnknownLabel(UtcatError):
    pass


class MissingBraiding(UtcatError):
    pass


class SolveFailed(UtcatError):
    pass


class DegenerateForm(SolveFailed):
    """A GNS form that is not faithful; ``margin`` ≤ 0 is its smallest
    eigenvalue less the faithful floor (see :mod:`utcat.gns`)."""

    def __init__(self, what: str, margin: float):
        super().__init__(f"{what} is degenerate")
        self.margin = margin


class SupportTooSmall(UtcatError):
    def __init__(self, missing: list[str]):
        super().__init__(f"support is missing channels {sorted(missing)}")
        self.missing = sorted(missing)


class SupportOverflow(UtcatError):
    pass


class LabelMismatch(UtcatError):
    pass


class CounterexampleFound(UtcatError):
    """A verified inequality failed beyond tolerance — the *input data* is bad."""


class NotAState(UtcatError):
    pass


class CenterNotTrivial(UtcatError):
    pass


class NotSemisimpleInput(UtcatError):
    pass


class PositivityFailure(UtcatError):
    pass


class RowBoundFailure(UtcatError):
    pass


class CPFailure(UtcatError):
    pass


class NotAnAutomorphism(UtcatError):
    pass


class DimensionCap(UtcatError):
    pass


class WordTooLong(UtcatError):
    pass
