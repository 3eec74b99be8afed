"""Repo-wide pytest plumbing: a per-test wall-clock cap.

A fault-tolerance suite's worst failure mode is the one it tests for —
a hang.  Every test therefore runs under a wall-clock cap:

* when ``pytest-timeout`` is installed (CI installs it through the
  ``test`` extra and passes ``--timeout``), it enforces the cap and
  this fallback stands down entirely;
* in bare environments (the plugin is an optional dependency, never a
  hard requirement) a SIGALRM-based fallback arms an interval timer
  around each test, so a wedged test dies with a ``TimeoutError``
  traceback at the offending line instead of wedging the whole run.

The fallback only engages where SIGALRM exists and tests run on the
main thread; individual tests can override the cap with
``@pytest.mark.timeout(seconds)`` (the same marker pytest-timeout
uses), and ``PORCUPINE_TEST_TIMEOUT`` overrides the default.
"""

import os
import signal
import threading

import pytest

try:
    import pytest_timeout  # noqa: F401 - presence check only

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

DEFAULT_TIMEOUT_S = float(os.environ.get("PORCUPINE_TEST_TIMEOUT", "600"))


def _fallback_active() -> bool:
    return (
        not _HAVE_PYTEST_TIMEOUT
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: a long-running test (runs by default; deselect with "
        "-m 'not slow')",
    )
    if not _HAVE_PYTEST_TIMEOUT:
        # pytest-timeout registers this marker itself when present
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock cap (enforced by the "
            "SIGALRM fallback in tests/conftest.py when pytest-timeout "
            "is not installed)",
        )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _fallback_active():
        yield
        return
    marker = item.get_closest_marker("timeout")
    seconds = DEFAULT_TIMEOUT_S
    if marker is not None and marker.args:
        seconds = float(marker.args[0])
    if seconds <= 0:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds:g}s wall-clock cap "
            "(SIGALRM fallback; install pytest-timeout for richer "
            "diagnostics)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
