"""The speed probe scales by the reference time over recent kernel times."""

import time

import pytest

import speed


def test_scale_is_reference_over_the_median_recent_kernel_time():
    probe = speed.SpeedProbe()
    probe.samples.extend(speed.REFERENCE_S * f for f in (2, 4, 100))
    probe._last = time.perf_counter()  # no new sample is due yet
    assert probe.scale() == pytest.approx(0.25)


def test_settle_fills_the_window_with_fresh_samples():
    probe = speed.SpeedProbe()
    assert probe.settle() > 0
    assert len(probe.samples) == speed.WINDOW


def test_a_threaded_probe_counts_its_reps():
    probe = speed.SpeedProbe(threads=2)
    probe.samples.append(speed.REFERENCE_S * probe.reps)
    probe._last = time.perf_counter()
    assert probe.reps == 8 and probe.scale() == pytest.approx(1.0)
    assert probe.settle() > 0
