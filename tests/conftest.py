"""Shared test plumbing: a per-test wall-clock deadline marker.

The futures coalescing tests (``tests/clients/test_futures_contract.py``)
drive real event loops and background drain threads; a bug that parks
an event loop or loses a wakeup would otherwise hang the whole tier-1
run until the CI job timeout.  ``@pytest.mark.deadline(seconds)``
arms a ``SIGALRM``-based timer around the test body so a stuck loop
fails fast, with a message naming the budget instead of a 30-minute
job kill.

The timer is POSIX-only and only meaningful from the main thread (where
Python delivers signals); elsewhere the marker degrades to a no-op
rather than skipping the test — the assertions still run, only the
hang protection is absent.  ``pytest-timeout`` would provide the same
service, but the test environment is stdlib-only by constraint.
"""

from __future__ import annotations

import signal
import threading

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "deadline(seconds): fail the test if its wall-clock runtime "
        "exceeds the budget (SIGALRM; POSIX main thread only)",
    )


@pytest.fixture(autouse=True)
def _deadline(request):
    marker = request.node.get_closest_marker("deadline")
    if marker is None:
        yield
        return
    seconds = float(marker.args[0])
    usable = (
        hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def on_alarm(_signum, _frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s deadline "
            "(stuck event loop or lost wakeup?)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
