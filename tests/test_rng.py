"""Determinism contract of the counter-based streams."""

import numpy as np
import pytest

from gradflow.rng import RngStream


def test_same_address_same_draws():
    s = RngStream(20240613)
    a = s.normal_rows(step=5, n=18, width=3)[17]
    b = RngStream(20240613).normal_rows(step=5, n=18, width=3)[17]
    assert np.array_equal(a, b)


def test_distinct_addresses_differ():
    s = RngStream(1)
    base = s.uniform_rows(0, 2, 4)
    assert not np.array_equal(base[0], base[1])                     # particle
    assert not np.array_equal(base[:, 0], base[:, 1])               # column
    assert not np.array_equal(base, s.uniform_rows(1, 2, 4))        # step
    assert not np.array_equal(base, RngStream(2).uniform_rows(0, 2, 4))
    assert not np.array_equal(base, s.uniform_rows(0, 2, 4, context=1))
    z = s.normal_rows(0, 2, 4)
    assert not np.array_equal(z[:, 0], z[:, 1])
    assert not np.array_equal(z, s.normal_rows(0, 2, 4, context=1))


@pytest.mark.parametrize("n_chunks", [1, 2, 3, 8, 40])
def test_chunked_generation_is_chunking_invariant(n_chunks):
    # any partition of the columns, each part read from its first column,
    # reproduces the one-shot block
    s = RngStream(4321)
    j, width = 6, 40
    bounds = np.linspace(0, width, n_chunks + 1).astype(int)
    for draw in (s.uniform_rows, s.normal_rows):
        whole = draw(2, j, width)
        parts = [draw(2, j, b - a, column=a) for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(whole, np.concatenate(parts, axis=1))


def test_execution_order_irrelevant():
    # a column's draws do not depend on which columns were drawn before it
    s = RngStream(11)
    forward = [s.normal_rows(0, 5, 1, column=c)[:, 0] for c in range(6)]
    backward = [s.normal_rows(0, 5, 1, column=c)[:, 0] for c in reversed(range(6))][::-1]
    assert np.array_equal(np.stack(forward), np.stack(backward))


def test_uniforms_open_interval_and_normals_finite():
    s = RngStream(0)
    u = s.uniform_rows(0, 1000, 8)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    z = s.normal_rows(1, 1000, 8)
    assert np.all(np.isfinite(z))


def test_gaussian_moments_sane():
    # 2e5 ziggurat normals: mean ~ N(0, 1/n), var ~ 1 +- 3 std errors
    z = RngStream(5).normal_rows(0, 25000, 8).ravel()
    n = z.size
    assert abs(z.mean()) < 3.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_width_padding_does_not_alias_rows():
    # a narrow block is a prefix of a wider one
    s = RngStream(77)
    w5 = s.uniform_rows(0, 10, 5)
    w8 = s.uniform_rows(0, 10, 8)
    assert np.array_equal(w5, w8[:, :5])
    assert np.array_equal(s.normal_rows(0, 10, 5), s.normal_rows(0, 10, 8)[:, :5])
