"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from hartogs import floatroots

# (criterion name, passed) tuples recorded by tests/test_acceptance.py
_ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


@pytest.fixture
def acceptance_report():
    """Record a per-criterion verdict for the terminal summary."""

    def record(name: str, ok: bool) -> None:
        _ACCEPTANCE_RESULTS.append((name, ok))

    return record


@pytest.fixture
def aberth_calls(monkeypatch):
    """The degrees ``floatroots._aberth`` runs on: the one iteration behind
    ``numeric_roots``, and behind the inner roots of ``_inner_stack`` from
    k = 76 on, which the census and the witness's
    ``interior_float_roots`` take."""
    calls = []
    aberth = floatroots._aberth

    def counted(p):
        calls.append(p.degree)
        return aberth(p)

    monkeypatch.setattr(floatroots, "_aberth", counted)
    return calls


@pytest.fixture
def eigensolves(monkeypatch):
    """The shapes of the arrays ``np.linalg.eigvals`` runs on: the stacked
    colleague eigensolve behind the inner roots of ``_inner_stack`` up to
    k = 75, which the census and the witness's ``interior_float_roots``
    take, (members, k, k) (a witness's stack has one member), and a
    (k, k) per member where a stack failed."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in _ACCEPTANCE_RESULTS:
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {name}")
