"""Microarchitectural invariant checker tests.

Clean simulations must break no invariant on any configuration; an
intentionally injected LSQ ordering bug must be caught; and the
zero-overhead-when-off wiring (``validator=None`` default plus the
``REPRO_VALIDATE`` escape hatch) must behave as documented.
"""

import pytest

from repro.core import OoOCore
from repro.core import pipeline
from repro.core.lsq import LoadStoreQueue
from repro.presets import CONFIG_NAMES, machine
from repro.validate import (
    MAX_VIOLATIONS,
    InvariantChecker,
    ValidationError,
    ValidationSuite,
    Violation,
)
from repro.workloads import build_trace


@pytest.fixture(scope="module")
def qsort_trace():
    return build_trace("qsort", "tiny")


def _inject_lsq_bug(monkeypatch):
    """Break load-queue age ordering: dispatch inserts at the head."""
    monkeypatch.setattr(LoadStoreQueue, "add_load",
                        lambda self, uop: self.loads.insert(0, uop))


class TestCleanRuns:
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_no_violations_on_any_config(self, config, qsort_trace):
        checker = InvariantChecker()
        OoOCore(machine(config), validator=checker).run(qsort_trace)
        assert checker.ok, checker.violations

    def test_core_defaults_to_no_validator(self, monkeypatch, qsort_trace):
        # Pin the env switch off so the assertion holds even when the
        # suite itself runs under REPRO_VALIDATE=1.
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
        core = OoOCore(machine("1P"))
        assert core.probe is None


class TestInjectedBug:
    def test_lsq_ordering_bug_is_caught(self, monkeypatch, qsort_trace):
        _inject_lsq_bug(monkeypatch)
        checker = InvariantChecker()
        OoOCore(machine("1P"), validator=checker).run(qsort_trace)
        assert not checker.ok
        assert checker.violations[0].check == "lsq.load_order"

    def test_strict_mode_raises(self, monkeypatch, qsort_trace):
        _inject_lsq_bug(monkeypatch)
        checker = InvariantChecker(strict=True)
        with pytest.raises(ValidationError, match="lsq.load_order"):
            OoOCore(machine("1P"), validator=checker).run(qsort_trace)

    def test_violations_are_bounded(self, monkeypatch, qsort_trace):
        _inject_lsq_bug(monkeypatch)
        checker = InvariantChecker()
        OoOCore(machine("1P"), validator=checker).run(qsort_trace)
        assert len(checker.violations) <= MAX_VIOLATIONS

    def test_custom_bound(self, monkeypatch, qsort_trace):
        _inject_lsq_bug(monkeypatch)
        checker = InvariantChecker(max_violations=5)
        OoOCore(machine("1P"), validator=checker).run(qsort_trace)
        assert len(checker.violations) == 5


class TestEnvironmentWiring:
    def test_env_flag_attaches_strict_checker(self, monkeypatch,
                                              qsort_trace):
        import repro.core.pipeline as pipeline
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", True)
        core = OoOCore(machine("1P"))
        assert isinstance(core.probe, InvariantChecker)
        assert core.probe.strict
        core.run(qsort_trace)  # clean run: strict checker stays silent

    def test_explicit_validator_wins_over_env(self, monkeypatch):
        import repro.core.pipeline as pipeline
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", True)
        checker = InvariantChecker()
        core = OoOCore(machine("1P"), validator=checker)
        assert core.probe is checker


class TestViolationType:
    def test_str_and_dict(self):
        violation = Violation(cycle=42, check="rob.order", detail="boom")
        assert str(violation) == "[cycle 42] rob.order: boom"
        assert violation.as_dict() == {"cycle": 42, "check": "rob.order",
                                       "detail": "boom"}


class TestValidationSuite:
    def test_fans_out_and_aggregates(self, monkeypatch, qsort_trace):
        _inject_lsq_bug(monkeypatch)
        first = InvariantChecker(max_violations=3)
        second = InvariantChecker(max_violations=3)
        suite = ValidationSuite([first, second])
        OoOCore(machine("1P"), validator=suite).run(qsort_trace)
        assert not suite.ok
        assert len(first.violations) == 3
        assert len(second.violations) == 3
        assert len(suite.all_violations) == 6

    def test_clean_suite_is_ok(self, qsort_trace):
        suite = ValidationSuite([InvariantChecker(), InvariantChecker()])
        OoOCore(machine("2P"), validator=suite).run(qsort_trace)
        assert suite.ok
        assert suite.all_violations == []
