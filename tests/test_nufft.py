"""NufftSum against independent references: mpmath for one unit source at
unwrapped phases, long-double direct sums for dense phase cells, and the
same sources reordered or split into batches."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab._nufft import RELATIVE_ACCURACY, TAYLOR_ACCURACY, NufftSum, grid_step
from zetalab.arith import lambda_segments

BOUND = RELATIVE_ACCURACY + TAYLOR_ACCURACY


def _dense_sources(dt, t0=60.0, sigma=1.0):
    """Phases dt log n and Lambda-like weights for the prime powers in (1e7, 1.1e7]."""
    (value, logp), = lambda_segments(10**7, 11 * 10**6, segment_size=10**6)
    ln = np.log(value.astype(np.float64))
    return dt * ln, logp * np.exp(-sigma * ln) * np.exp(-1j * t0 * ln)


def _direct_long_double(phi, c, modes):
    ph = np.outer(np.asarray(modes, dtype=np.longdouble), phi.astype(np.longdouble))
    re, im = c.real.astype(np.longdouble), c.imag.astype(np.longdouble)
    cos, sin = np.cos(ph), np.sin(ph)
    return (cos @ re + sin @ im).astype(np.float64) + 1j * (cos @ im - sin @ re).astype(np.float64)


def _run(n_out, batches):
    acc = NufftSum(n_out)
    for phi, c in batches:
        acc.add(phi, c)
    return acc.finish()


@pytest.mark.parametrize("n_out", [257, 1500, 20000])
def test_unit_source_matches_mpmath(n_out):
    # One source, so nothing cancels: the gridding error shows in full.
    # The phases are unwrapped, up to 800 rad either way.
    rng = np.random.default_rng(n_out)
    modes = [n_out - 1, n_out - 2] + rng.integers(0, n_out, 6).tolist()
    for phi in (-799.3, -3.1, 0.7, 2.0 * math.pi, 123.456, 799.9):
        out = _run(n_out, [(np.array([phi]), np.array([1.0 + 0.0j]))])
        for j in modes:
            with mp.workdps(40):
                want = complex(mp.exp(-1j * j * mp.mpf(phi)))
            assert abs(out[j] - want) <= RELATIVE_ACCURACY, (phi, j)


@pytest.mark.parametrize("n_out, dt", [(1000, 0.25), (257, 0.9)])
def test_dense_cells_match_long_double(n_out, dt):
    # Near 1e7 consecutive prime powers are ~1e-6 rad apart, so every phase
    # cell (width 0.2 / n_out) holds hundreds of sources.
    phi, c = _dense_sources(dt)
    modes = np.arange(n_out - 16, n_out)
    out = _run(n_out, [(phi, c)])
    want = _direct_long_double(phi, c, modes)
    assert np.max(np.abs(out[modes] - want)) <= BOUND * np.sum(np.abs(c))


def test_order_and_batching_agree():
    # Dense cells plus three isolated sources appended out of order (so the
    # add sorts), then the same sources permuted, and split into two batches
    # at an index inside a dense cell.
    phi, c = _dense_sources(0.25)
    phi = np.concatenate([phi, [-7.5, 0.01, 40.0]])
    c = np.concatenate([c, [0.3, -0.2j, 0.1 + 0.1j]])
    total = np.sum(np.abs(c))
    whole = _run(1000, [(phi, c)])
    perm = np.random.default_rng(7).permutation(phi.size)
    cut = phi.size // 3
    for batches in ([(phi[perm], c[perm])], [(phi[:cut], c[:cut]), (phi[cut:], c[cut:])]):
        assert np.max(np.abs(_run(1000, batches) - whole)) <= BOUND * total
    modes = np.arange(1000 - 16, 1000)
    assert np.max(np.abs(whole[modes] - _direct_long_double(phi, c, modes))) <= BOUND * total


@settings(max_examples=200, deadline=None)
@given(t_lo=st.floats(0.0, 1e7 - 1.0), frac=st.floats(0.0, 1.0), n=st.integers(16, 30_000),
       seed=st.integers(0, 2**32 - 1))
def test_grid_step_accepts_sample_line_grids_and_rejects_random_t(t_lo, frac, n, seed):
    # The t that lab.sample_line builds for a count, for a spacing dt, and
    # for random mode, on [t_lo, t_hi] below the height cap 1e7, spans >= 1.
    t_hi = t_lo + 1.0 + frac * (1e7 - 1.0 - t_lo)
    by_count = np.linspace(t_lo, t_hi, n)
    dt = (t_hi - t_lo) / (n - 1)
    by_dt = t_lo + dt * np.arange(int(math.floor((t_hi - t_lo) / dt)) + 1)
    for t in (by_count, by_dt):  # by_dt may come out one point short of n
        want = (t[0], (t[-1] - t[0]) / (t.size - 1)) if t.size >= 16 else None
        assert grid_step(t) == want
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    assert grid_step(np.sort(t_lo + (t_hi - t_lo) * rng.random(n))) is None
