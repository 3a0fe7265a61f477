"""Terminal summary hook: one pass/fail line per acceptance criterion,
a fixture that makes the Hopf charge solve refuse its form, one that
makes the line search read NaN energies, and the hypothesis profile.

Property tests run under the derandomized "ci" profile, so every run
draws the same examples; HYPOTHESIS_PROFILE=default draws fresh ones."""

import os

import pytest
from hypothesis import settings

from fdvk import flow, invariants
from fdvk.errors import NonExactForm

CRITERIA = {
    1: "calculus kernel",
    2: "energy exactness",
    3: "frame equivalence",
    4: "pullback identity",
    5: "invariant quantization",
    6: "flat identity",
    7: "shift law",
    8: "gauge fixing",
    9: "developing map",
    10: "gradient",
    11: "flow",
    12: "command line",
}

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

_WORDS = {"passed": "PASS", "failed": "FAIL", "error": "ERROR", "skipped": "SKIPPED"}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for outcome, word in _WORDS.items():
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            tail = nodeid.split("test_criterion_")[1]
            num = int(tail.split("_")[0])
            when = getattr(rep, "when", "call")
            if outcome == "passed" and when != "call":
                continue
            if num in seen:
                # a failed teardown must not overwrite the call verdict
                continue
            seen[num] = word
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(seen):
        label = CRITERIA.get(num, "?")
        terminalreporter.write_line(f"criterion {num:2d} ({label}): {seen[num]}")


@pytest.fixture
def refuse_charge(monkeypatch):
    """refuse_charge(k): the k-th Hopf charge solve raises NonExactForm,
    as lattice._potential does for a 2-form it finds not closed."""

    def arm(k):
        real = invariants._helicity
        calls = []

        def helicity(grid, F):
            calls.append(None)
            if len(calls) == k:
                raise NonExactForm("2-form is not closed")
            return real(grid, F)

        monkeypatch.setattr(invariants, "_helicity", helicity)

    return arm


@pytest.fixture
def nan_candidates(monkeypatch):
    """nan_candidates(after=1): every descent-kernel evaluation after the
    first `after` reads a NaN energy, as a candidate that left the finite
    numbers would; with after=1 that is every line-search candidate.
    The sweep of v that restores its gradient after a rejected candidate
    is fields._sweep, not flow._kernel, so it is neither counted nor
    poisoned.  Returns the call log."""

    def arm(after=1):
        real = flow._kernel
        calls = []

        def kernel(grid, v, grad=None):
            en, ceiling = real(grid, v, grad)
            calls.append(None)
            if len(calls) > after:
                en = en._replace(total=float("nan"))
            return en, ceiling

        monkeypatch.setattr(flow, "_kernel", kernel)
        return calls

    return arm
