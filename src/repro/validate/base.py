"""Validator plumbing shared by the golden-model and invariant checkers.

A :class:`Validator` is a :class:`repro.obs.probe.Probe` consumer: it
attaches to :class:`repro.core.pipeline.OoOCore` through the core's one
probe and overrides the events it checks — typically per committed
uop, per serviced load, per cycle end, and once at drain.  The core
holds no probe by default, so an unvalidated run pays nothing.

Violations are collected (bounded) and, when a tracer is attached,
emitted as ``validate.violation`` events so they land in the same JSONL
stream as the rest of the run.  ``strict=True`` turns the first
violation into a :class:`ValidationError` so CI fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..func.exceptions import SimError
from ..obs.probe import Probe, ProbeFanout
from ..obs.tracer import NULL_TRACER, Tracer

#: Default cap on collected violations — a broken invariant usually
#: fires every cycle, and the first few instances carry all the signal.
MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class Violation:
    """One observed rule break."""

    cycle: int
    check: str
    detail: str

    def as_dict(self) -> dict[str, object]:
        return {"cycle": self.cycle, "check": self.check,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"[cycle {self.cycle}] {self.check}: {self.detail}"


class ValidationError(SimError):
    """Raised by a strict validator on the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class Validator(Probe):
    """Base class: a probe consumer with violation bookkeeping."""

    reason = "validator attached"

    def __init__(self, tracer: Tracer | None = None, strict: bool = False,
                 max_violations: int = MAX_VIOLATIONS) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.strict = strict
        self.max_violations = max_violations
        self.violations: list[Violation] = []

    # -- reporting -----------------------------------------------------
    def report(self, cycle: int, check: str, detail: str) -> None:
        """Record one violation (raises in strict mode)."""
        violation = Violation(cycle, check, detail)
        if self.strict:
            raise ValidationError(violation)
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(violation)
        if self.tracer.enabled:
            self.tracer.emit(cycle, "validate.violation", check=check,
                             detail=detail)

    @property
    def ok(self) -> bool:
        return not self.violations


class ValidationSuite(ProbeFanout, Validator):
    """Fans every event out to a list of child validators."""

    def __init__(self, children: list[Validator]) -> None:
        Validator.__init__(self)
        ProbeFanout.__init__(self, children)

    @property
    def all_violations(self) -> list[Violation]:
        collected = list(self.violations)
        for child in self.consumers:
            collected.extend(child.violations)
        return collected

    @property
    def ok(self) -> bool:
        return all(child.ok for child in self.consumers)
