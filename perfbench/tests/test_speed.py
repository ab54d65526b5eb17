"""The reference-speed adjustment and the tail percentile."""

import pytest

from run import TAIL_BEYOND, tail
from speed import REFERENCE_S, Reference


def test_factor_uses_the_samples_around_a_time():
    ref = Reference()
    ref.times = [0.0, 1.0, 2.0]
    ref.seconds = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert ref.factor(1.5) == pytest.approx(1 / 3)
    assert ref.factor(-1.0) == pytest.approx(1.0)
    assert ref.factor(5.0) == pytest.approx(0.25)


def test_sampling_is_rate_limited():
    ref = Reference()
    ref.sample()
    ref.sample_if_due()
    assert len(ref.seconds) == 1 and ref.seconds[0] > 0


def test_tail_keeps_ten_samples_beyond_it():
    times = [float(i) for i in range(40)]
    value, pct = tail(times)
    assert sum(t > value for t in times) == TAIL_BEYOND
    assert pct == pytest.approx(75.0)
