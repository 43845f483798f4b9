import numpy as np
import pytest

from randpde.errors import GeometryError, ParameterError
from randpde.perforations import (NoPerforations, PeriodicDiscs,
                                  RandomRectangles, build_perforations)


def test_periodic_discs_membership():
    perf = build_perforations("periodic_discs", epsilon=0.1, radius_factor=0.2)
    assert perf.indicator(0.05, 0.05)      # disc center
    assert not perf.indicator(0.1, 0.1)    # lattice corner, 0.0707 > 0.02 away


def test_shifted_discs_swap_roles():
    perf = build_perforations("shifted_periodic_discs", epsilon=0.1, radius_factor=0.2)
    assert perf.indicator(0.1, 0.1)
    assert not perf.indicator(0.05, 0.05)


def test_indicator_vectorized_and_pure():
    perf = PeriodicDiscs(epsilon=0.1, radius_factor=0.2)
    x = np.array([0.05, 0.1, 0.15])
    y = np.array([0.05, 0.1, 0.05])
    got = perf.indicator(x, y)
    assert got.tolist() == [True, False, True]
    assert np.array_equal(got, perf.indicator(x, y))
    # an x column and a y row classify the tensor grid, as a meshgrid does
    x = (np.arange(37) + 0.5) / 37
    y = (np.arange(23) + 0.5) / 23
    for perf in (NoPerforations(), perf,
                 PeriodicDiscs(epsilon=0.1, radius_factor=0.2, shift=(0.05, 0.05)),
                 build_perforations("random_rectangles", count=100, width_range=(0.02, 0.05),
                                    height_range=(0.02, 0.05), seed=2026)):
        got = perf.indicator(x[:, None], y[None, :])
        assert got.shape == (len(x), len(y))
        assert np.array_equal(got, perf.indicator(*np.meshgrid(x, y, indexing="ij")))
        assert got.any() or isinstance(perf, NoPerforations)


def test_random_rectangles_deterministic():
    a = build_perforations("random_rectangles", count=100,
                           width_range=(0.02, 0.05), height_range=(0.02, 0.05),
                           seed=7)
    b = build_perforations("random_rectangles", count=100,
                           width_range=(0.02, 0.05), height_range=(0.02, 0.05),
                           seed=7)
    assert a.rects == b.rects
    c = build_perforations("random_rectangles", count=100,
                           width_range=(0.02, 0.05), height_range=(0.02, 0.05),
                           seed=8)
    assert a.rects != c.rects
    for (cx, cy, w, h) in a.rects:
        assert 0 <= cx <= 1 and 0 <= cy <= 1
        assert 0.02 <= w <= 0.05 and 0.02 <= h <= 0.05


def test_rectangle_membership():
    perf = RandomRectangles(rects=((0.5, 0.5, 0.2, 0.1),))
    assert perf.indicator(0.55, 0.52)
    assert not perf.indicator(0.55, 0.58)
    assert perf.smallest_feature() == pytest.approx(0.1)


def test_no_perforations():
    perf = NoPerforations()
    assert not perf.indicator(np.linspace(0, 1, 5), np.linspace(0, 1, 5)).any()
    assert perf.smallest_feature() == np.inf


def test_degenerate_geometry_rejected():
    with pytest.raises(GeometryError):
        build_perforations("random_rectangles", count=1,
                           width_range=(2.0, 2.0), height_range=(2.0, 2.0), seed=0)
    with pytest.raises(ParameterError):
        PeriodicDiscs(epsilon=0.1, radius_factor=0.8)
    with pytest.raises(ParameterError):
        build_perforations("hexagons")
