"""Random-stream layout 2: one Philox stream per column, draws over particles."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from gradflow.config import parse_config
from gradflow.rng import RNG_LAYOUT, RngStream, _KEY_PAD, _U_MIN
from gradflow.runner import run_experiment


def _column(seed, ctx, step, c, n):
    key = np.array([seed, _KEY_PAD], dtype=np.uint64)
    counter = np.array([0, ctx, step, c + 1], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(n)
    return np.maximum(draws, _U_MIN)


def test_column_c_is_its_own_philox_stream():
    seed, n = 20240613, 37
    for ctx, step, width in ((0, 0, 1), (0, 9, 3), (1, 0, 5), (0, 2**40, 2)):
        block = RngStream(seed).uniform_rows(step, 0, n, width, context=ctx)
        assert block.shape == (n, width)
        for c in range(width):
            assert np.array_equal(block[:, c], _column(seed, ctx, step, c, n))


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 37), split=st.integers(0, 40), length=st.integers(0, 40),
       width=st.integers(1, 6), extra=st.integers(1, 5))
def test_chunks_concatenate_and_narrow_blocks_are_prefixes(start, split, length,
                                                           width, extra):
    s = RngStream(99)
    stop = start + length
    mid = min(start + split, stop)
    whole = s.uniform_rows(4, start, stop, width)
    chunks = np.concatenate([s.uniform_rows(4, start, mid, width),
                             s.uniform_rows(4, mid, stop, width)])
    assert np.array_equal(chunks, whole)
    assert np.array_equal(whole, s.uniform_rows(4, 0, stop, width)[start:])
    assert np.array_equal(whole, s.uniform_rows(4, start, stop, width + extra)[:, :width])


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
    assert RNG_LAYOUT == 2
    assert json.loads((tmp_path / "manifest.json").read_text())["rng_layout"] == 2
