"""Random-stream layout 3: one Philox stream per column, read whole."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from gradflow.config import parse_config
from gradflow.rng import RNG_LAYOUT, RngStream, _KEY_PAD, _U_MIN
from gradflow.runner import run_experiment


def _column(seed, ctx, step, c):
    key = np.array([seed, _KEY_PAD], dtype=np.uint64)
    counter = np.array([0, ctx, step, c + 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_column_c_is_its_own_philox_stream():
    seed, n = 20240613, 37
    for ctx, step, width in ((0, 0, 1), (0, 9, 3), (1, 0, 5), (0, 2**40, 2)):
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
    assert RNG_LAYOUT == 3
    assert json.loads((tmp_path / "manifest.json").read_text())["rng_layout"] == 3
