"""Determinism contract of the counter-based streams."""

import numpy as np
import pytest

from gradflow.rng import RngStream


def test_same_address_same_draws():
    s = RngStream(20240613)
    a = s.normal_rows(step=5, start=17, stop=18, width=3)[0]
    b = RngStream(20240613).normal_rows(step=5, start=17, stop=18, width=3)[0]
    assert np.array_equal(a, b)


def test_distinct_addresses_differ():
    s = RngStream(1)
    base = s.uniform_rows(0, 0, 1, 4)[0]
    assert not np.array_equal(base, s.uniform_rows(0, 1, 2, 4)[0])
    assert not np.array_equal(base, s.uniform_rows(1, 0, 1, 4)[0])
    assert not np.array_equal(base, RngStream(2).uniform_rows(0, 0, 1, 4)[0])
    assert not np.array_equal(base, s.uniform_rows(0, 0, 1, 4, context=1)[0])


def test_rows_are_slices_of_the_block():
    s = RngStream(99)
    block = s.uniform_rows(step=3, start=0, stop=40, width=5)
    for i in (0, 1, 7, 39):
        assert np.array_equal(block[i], s.uniform_rows(3, i, i + 1, 5)[0])


@pytest.mark.parametrize("n_chunks", [1, 2, 3, 8, 40])
def test_chunked_generation_is_chunking_invariant(n_chunks):
    # any partition of the particle range reproduces the one-shot block
    s = RngStream(4321)
    j, width = 40, 6
    whole = s.uniform_rows(2, 0, j, width)
    bounds = np.linspace(0, j, n_chunks + 1).astype(int)
    parts = [s.uniform_rows(2, a, b, width) for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(whole, np.concatenate(parts, axis=0))


def test_execution_order_irrelevant():
    s = RngStream(11)
    forward = [s.uniform_rows(0, i, i + 1, 2)[0] for i in range(6)]
    backward = [s.uniform_rows(0, i, i + 1, 2)[0] for i in reversed(range(6))][::-1]
    assert np.array_equal(np.stack(forward), np.stack(backward))


def test_uniforms_open_interval_and_normals_finite():
    s = RngStream(0)
    u = s.uniform_rows(0, 0, 1000, 8)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    z = s.normal_rows(1, 0, 1000, 8)
    assert np.all(np.isfinite(z))


def test_gaussian_moments_sane():
    # 2e5 inverse-CDF normals: mean ~ N(0, 1/n), var ~ 1 +- 3 std errors
    z = RngStream(5).normal_rows(0, 0, 25000, 8).ravel()
    n = z.size
    assert abs(z.mean()) < 3.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_width_padding_does_not_alias_rows():
    # widths sharing a padded stride still address disjoint columns
    s = RngStream(77)
    w5 = s.uniform_rows(0, 0, 10, 5)
    w8 = s.uniform_rows(0, 0, 10, 8)
    assert np.array_equal(w5, w8[:, :5])
