"""The wall-clock limit `conftest` arms around each test's set-up and body."""

import signal

import pytest

from conftest import TIME_LIMIT_S, TimeLimitExceeded, time_limit


def test_a_busy_loop_fails_with_a_message_naming_the_limit():
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= TIME_LIMIT_S
    with pytest.raises(TimeLimitExceeded, match=r"wall-clock limit of 0\.2 s$"):
        with time_limit(0.2):
            while True:
                pass
