"""Random-stream layout 4: one SFC64 stream per column, seeded by its
address through SeedSequence, read whole."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflow.config import parse_config
from gradflow.rng import RNG_LAYOUT, RngStream, _U_MIN
from gradflow.runner import run_experiment


def _column(seed, ctx, step, c):
    entropy = np.random.SeedSequence([seed % 2**64, ctx % 2**64, step % 2**64, c + 1])
    return np.random.Generator(np.random.SFC64(entropy))


def test_column_c_is_its_own_address_seeded_stream():
    n = 37
    for seed, ctx, step, width in ((20240613, 0, 0, 1), (20240613, 0, 9, 3),
                                   (20240613, 1, 0, 5), (20240613, 0, 2**40, 2),
                                   (-7, 0, 4, 2), (2**63 + 5, 1, 3, 1)):
        uniforms = RngStream(seed).uniform_rows(step, n, width, context=ctx)
        normals = RngStream(seed).normal_rows(step, n, width, context=ctx)
        assert uniforms.shape == normals.shape == (n, width)
        for c in range(width):
            want = np.maximum(_column(seed, ctx, step, c).random(n), _U_MIN)
            assert np.array_equal(uniforms[:, c], want)
            assert np.array_equal(normals[:, c],
                                  _column(seed, ctx, step, c).standard_normal(n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40), width=st.integers(1, 6), extra=st.integers(1, 5),
       column=st.integers(0, 6), step=st.integers(0, 2**20), gaussian=st.booleans())
def test_narrow_blocks_are_prefixes_and_column_blocks_are_slices(n, width, extra, column,
                                                                 step, gaussian):
    s = RngStream(99)
    draw = s.normal_rows if gaussian else s.uniform_rows
    block = draw(step, n, width, column=column)
    assert block.shape == (n, width)
    assert np.array_equal(block, draw(step, n, width + extra, column=column)[:, :width])
    assert np.array_equal(block, draw(step, n, column + width)[:, column:])


@pytest.mark.parametrize("d_seed, d_ctx, d_step, d_col",
                         [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)],
                         ids=["step", "column", "context", "seed"])
def test_neighbouring_addresses_give_independent_normals(d_seed, d_ctx, d_step, d_col):
    # SeedSequence hashes nearby addresses apart: the column one step, one
    # column, one context or one seed away is uncorrelated with this one,
    # and both have the moments of N(0, 1), each within 5 standard errors
    n, seed, ctx, step, c = 100_000, 12, 0, 40, 1
    base = RngStream(seed).normal_rows(step, n, 1, context=ctx, column=c)[:, 0]
    other = RngStream(seed + d_seed).normal_rows(step + d_step, n, 1, context=ctx + d_ctx,
                                                  column=c + d_col)[:, 0]
    assert abs(np.corrcoef(base, other)[0, 1]) < 5.0 / np.sqrt(n)
    for z in (base, other):
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_manifest_declares_the_layout(tmp_path):
    cfg = parse_config("""\
problem: double_well
method: ula
tau: 0.01
steps: 3
seed: 1
particles: 5
init: [0.0]
outputs:
  - {kind: samples, path: s.csv}
""")
    run_experiment(cfg, out_root=tmp_path)
    assert RNG_LAYOUT == 4
    assert json.loads((tmp_path / "manifest.json").read_text())["rng_layout"] == 4
