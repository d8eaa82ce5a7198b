from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def fan_widths(monkeypatch):
    """Give the library two cores whatever the machine has, and record the
    thread count of every fan-out that the transforms ask for."""
    from balset import balancing

    monkeypatch.setattr(balancing, "_cores", lambda: 2)
    widths: list[int] = []
    fan_out = balancing._fan_out

    def spy(threads: int):
        widths.append(threads)
        return fan_out(threads)

    monkeypatch.setattr(balancing, "_fan_out", spy)
    return widths
