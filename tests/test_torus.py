"""Tests for the random Euler-product torus model: exact moments against a
brute-force product-quadrature oracle, the product-form characteristic
function against both Monte Carlo and the truncated moment expansion, and
the moment bound reports."""

import dataclasses
import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import j0

from zetalab import lab, torus
from zetalab.errors import DomainError, QuadratureError
from zetalab.torus import (
    chf_by_moments,
    chf_moments_envelope,
    chf_montecarlo,
    chf_product,
    eval_S,
    make_torus_model,
    moment_bound_check,
    torus_moment_exact,
    _eval_S_block,
)


def _moment_bruteforce(model, m, k, K=16):
    """E[S^m conj(S)^k] by the midpoint product rule over the full torus.

    The integrand is a trigonometric polynomial of per-prime degree at most
    3 (m + k), so the rule is exact once K exceeds that; completely
    independent of the per-prime product route.
    """
    n_p = model.n_primes()
    grids = np.meshgrid(
        *[(np.arange(K) + 0.5) / K for _ in range(n_p)], indexing="ij"
    )
    theta = np.stack([g.ravel() for g in grids], axis=1)
    S = _eval_S_block(model, theta)
    return complex(np.mean(S**m * np.conj(S) ** k))


@pytest.fixture(scope="module")
def model_10():
    return make_torus_model(0.75, 10.0)


def test_second_moment_is_two_exactly(model_10, model_075_300):
    for model in (model_10, model_075_300):
        got = torus_moment_exact(model, 1, 1)
        assert got.imag == 0.0
        assert abs(got.real - 2.0) <= 1e-14
        # Same diagonal sum, computed directly from the term table.
        diag = math.fsum(float(c) * float(c) for c in model.term_coeff)
        assert abs(got.real - diag) <= 1e-14


def test_first_moments_vanish(model_10, model_075_300):
    for model in (model_10, model_075_300):
        assert torus_moment_exact(model, 1, 0) == 0.0
        assert torus_moment_exact(model, 0, 1) == 0.0
    assert torus_moment_exact(model_10, 0, 0) == 1.0


def test_moments_match_bruteforce_quadrature(model_10):
    # Includes the off-diagonal (2, 1), nonzero because p * p matches the
    # prime-square term p^2 <= x under unique factorization.
    for m, k in [(1, 1), (2, 0), (2, 1), (2, 2), (0, 2), (1, 2)]:
        exact = torus_moment_exact(model_10, m, k)
        brute = _moment_bruteforce(model_10, m, k)
        assert abs(exact - brute) <= 1e-12, (m, k)
    assert abs(torus_moment_exact(model_10, 2, 1).real - 0.3589665091334) <= 1e-12


# E[S^m conj(S)^k] at sigma = 0.75, as the integer-keyed coefficient matching
# that preceded the per-prime product computed them; absent pairs are 0.
_PINNED_10 = {(0, 0): 1.0, (1, 1): 2.0, (1, 2): 0.3589665091334002,
              (1, 3): 0.043886096961586116, (2, 2): 7.26904418191848,
              (2, 3): 3.6269283473341316, (2, 4): 1.0239227291962214,
              (3, 3): 36.628555443352205}
_PINNED_300 = {(0, 0): 1.0, (1, 1): 2.0, (1, 2): 0.16319794647362285,
               (1, 3): 0.032783769436242075, (2, 2): 7.867025762075931,
               (2, 3): 1.863697281666265, (3, 3): 45.84259980377091}


def test_moments_pinned_to_coefficient_matching(model_10, model_075_300):
    for model, pinned, pairs in (
            (model_10, _PINNED_10, [(m, k) for m in range(7) for k in range(7 - m)]),
            (model_075_300, _PINNED_300, [(m, k) for m in range(4) for k in range(4)])):
        for m, k in pairs:
            want = pinned.get((min(m, k), max(m, k)), 0.0)
            got = torus_moment_exact(model, m, k)
            assert got.imag == 0.0 and abs(got.real - want) <= 1e-14 * want, (model.x, m, k)


def test_moments_near_the_critical_line_at_large_x():
    # 9,592 primes: integer-keyed maps of their products outgrow memory from
    # order 2, while the per-prime product stays exact where it must.
    model = make_torus_model(0.52, 1e5)
    M = torus._moment_table(model, 2)
    assert M[1, 0] == 0.0 and M[0, 1] == 0.0
    assert abs(M[1, 1] - 2.0) <= 1e-13
    m22 = torus_moment_exact(model, 2, 2)
    assert m22.imag == 0.0 and m22.real == M[2, 2] and 7.0 < m22.real < 8.0


def test_fourth_moment_against_montecarlo(model_075_300):
    report = moment_bound_check(model_075_300, 2, 100_000, seed=11)
    assert report["mc_matches_exact"]
    exact = torus_moment_exact(model_075_300, 2, 2).real
    assert report["exact"] == exact
    assert abs(report["mc_estimate"] - exact) <= 3.0 * report["mc_std_error"]


def test_moment_bounds_through_k3(model_075_300):
    for k in range(4):
        report = moment_bound_check(model_075_300, k, 30_000, seed=5)
        assert report["bound"] == 18.0**k * math.factorial(k)
        assert report["exact_within_bound"]
        assert report["mc_within_bound"]
        assert report["mc_matches_exact"]
    # k = 0 is the normalization sanity row.
    base = moment_bound_check(model_075_300, 0, 30_000, seed=5)
    assert base["exact"] == 1.0
    assert base["mc_estimate"] == 1.0


def test_explicit_V_rescales_moments(model_10):
    scaled = make_torus_model(0.75, 10.0, V=2.0 * model_10.V)
    got = torus_moment_exact(scaled, 1, 1).real
    assert abs(got - 1.0) <= 1e-14


def test_chf_product_basics(model_10):
    assert chf_product(model_10, 0.0, 0.0) == 1.0 + 0.0j
    a = chf_product(model_10, 0.3, -0.2)
    # theta -> -theta sends S to conj(S), so the chf is even in v; plain
    # conjugation inverts both arguments. (The chf is genuinely complex at
    # small x: the third-order moment E[S^2 conj S] does not vanish.)
    assert abs(a - chf_product(model_10, 0.3, 0.2)) <= 1e-12
    assert abs(a - np.conj(chf_product(model_10, -0.3, 0.2))) <= 1e-12
    assert abs(a.imag) > 1e-3


def _chf_midpoint_every_prime(model, u, v, K):
    """The chf as a product over every prime of its K-point midpoint
    integral, single-term primes included: no closed form involved."""
    max_exp = int(np.max(model.term_exponent))
    coeff_mat = np.zeros((model.n_primes(), max_exp))
    coeff_mat[model.term_prime_index, model.term_exponent - 1] = model.term_coeff
    theta = (np.arange(K) + 0.5) / K
    z = coeff_mat @ np.exp(2j * math.pi * np.outer(np.arange(1, max_exp + 1), theta))
    out = complex(1.0, 0.0)
    for f in np.exp(2j * math.pi * (u * z.real + v * z.imag)).mean(axis=1):
        out *= complex(f)
    return out


def test_chf_product_matches_midpoint_oracle():
    model = make_torus_model(0.52, 1e4)
    axis = np.linspace(-1.0, 1.0, 5)
    for u in axis:
        for v in axis:
            u, v = float(u), float(v)
            oracle = _chf_midpoint_every_prime(model, u, v, 128)
            assert abs(oracle - _chf_midpoint_every_prime(model, u, v, 256)) <= 1e-14
            assert abs(chf_product(model, u, v) - oracle) <= 1e-12, (u, v)


def test_chf_product_grid_matches_midpoint_oracle():
    model = make_torus_model(0.52, 1e4)
    axis = np.linspace(-1.0, 1.0, 5)
    grid = chf_product(model, axis, axis)
    for i, u in enumerate(axis.tolist()):
        for j, v in enumerate(axis.tolist()):
            assert abs(grid[i, j] - _chf_midpoint_every_prime(model, u, v, 128)) <= 1e-12, (u, v)


@pytest.fixture(scope="module")
def model_052_1e5():
    return make_torus_model(0.52, 1e5)


def test_chf_product_grid_equals_node_calls(model_10, model_052_1e5, monkeypatch):
    # The 7x7 and 11x11 grids of `chf --sigma 0.52 --x 1e5`, and at x = 10 a
    # grid whose nodes take anywhere from K = 64 to K = 4096 midpoints.
    sizes, einsum = [], np.einsum  # the K of each midpoint mean formed
    monkeypatch.setattr(np, "einsum", lambda spec, A, B: sizes.append(A.shape[1]) or einsum(spec, A, B))
    for model, u, v in [(model_052_1e5, np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 7)),
                        (model_052_1e5, np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 11)),
                        (model_10, np.array([-40.0, -5.0, 0.0, 5.0, 10.0, 200.0]),
                         np.array([0.3, -2.0, 60.0, 7.5]))]:
        grid, picked = chf_product(model, u, v), set()
        assert grid.shape == (u.size, v.size)
        for i, a in enumerate(u.tolist()):
            for j, b in enumerate(v.tolist()):
                start = len(sizes)
                assert grid[i, j] == chf_product(model, a, b), (a, b)
                picked.add(max(sizes[start:]))
    assert len(picked) >= 3 and 64 in picked, picked


def _quadrature_bound(model, u, v, K):
    """|J0 product| g 2 M* / (rho^K - 1) at the best rho of lab._RHO, from scipy's J0:
    the stated bound on the midpoint error of a chf_product entry at K points."""
    counts = np.bincount(model.term_prime_index)
    several = counts[model.term_prime_index] > 1
    r = math.hypot(u, v)
    j0_prod = np.prod(j0(2 * math.pi * r * model.term_coeff[~several]))
    weight = 2 * np.count_nonzero(counts > 1) * abs(j0_prod)
    c_star = np.zeros(int(np.max(model.term_exponent)))
    np.maximum.at(c_star, model.term_exponent[several] - 1, model.term_coeff[several])
    log_rho = np.log(lab._RHO)
    log_m = 2 * math.pi * r * (np.sinh(np.outer(log_rho, np.arange(1, c_star.size + 1))) @ c_star)
    log_bound = math.log(weight) + log_m - K * log_rho - np.log1p(-lab._RHO ** -float(K))
    return math.exp(float(np.min(log_bound)))


def test_chf_product_meets_its_bound(model_052_1e5, monkeypatch):
    # Each node's K meets the stated bound _CHF_TOL and K / 2 would not; the entry
    # lies within _CHF_TOL of the every-prime midpoint product at 2K.
    sizes, einsum = [], np.einsum  # the K of each midpoint mean formed
    monkeypatch.setattr(np, "einsum", lambda spec, A, B: sizes.append(A.shape[1]) or einsum(spec, A, B))
    tol, far = torus._CHF_TOL, np.linspace(-3.0, 3.0, 9) / math.sqrt(2.0)
    for model, axis in [(model_052_1e5, np.linspace(-1.0, 1.0, 7)),
                        (make_torus_model(0.717, 1e5), far), (make_torus_model(1.151, 1e5), far)]:
        grid = chf_product(model, axis, axis)
        for i, u in enumerate(axis.tolist()):
            for j, v in enumerate(axis.tolist()):
                start = len(sizes)
                chf_product(model, u, v)
                K = max(sizes[start:])
                assert _quadrature_bound(model, u, v, K) <= tol, (u, v, K)
                assert K == 64 or _quadrature_bound(model, u, v, K // 2) > tol, (u, v, K)
                ref = _chf_midpoint_every_prime(model, u, v, 2 * K)
                assert abs(grid[i, j] - ref) <= tol, (u, v, K)


def test_chf_product_grid_edges(model_10, model_052_1e5):
    for u, v, shape in [([], [0.1, 0.2], (0, 2)), ([0.1], [], (1, 0)), ([], [], (0, 0))]:
        assert chf_product(model_10, np.array(u), np.array(v)).shape == shape
    # 2 pi u Re z overflows at u = 1e308 (2 pi v Im z at v = 1e308 stays finite,
    # and the product there is 0): the first such node in row order is named.
    axis = np.array([0.5, 1e308])
    with pytest.raises(QuadratureError, match=r"K = 64, \(u, v\) = \(1e\+308, 0\.5\)"):
        chf_product(model_052_1e5, axis, axis)


def test_chf_product_temporaries_are_bounded(model_052_1e5, monkeypatch):
    # Unblocked, the 40 columns' factors and phases would take 40 * 65 * 128 * 24
    # bytes = 8 MB at K = 128; a block holds at most _CHF_BLOCK_BYTES of them,
    # here 1 MB (5 columns). The rest is the call's own per-term arrays, no
    # larger than the model's. Blocking leaves every entry's bits alone.
    model, axis = model_052_1e5, np.linspace(-1.0, 1.0, 40)
    want = chf_product(model, axis, axis)
    monkeypatch.setattr(torus, "_CHF_BLOCK_BYTES", 1 << 20)
    model_bytes = sum(getattr(model, f.name).nbytes for f in dataclasses.fields(model)
                      if isinstance(getattr(model, f.name), np.ndarray))
    tracemalloc.start()
    try:
        got = chf_product(model, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= torus._CHF_BLOCK_BYTES + 2 * model_bytes, peak


def test_j0_against_mpmath():
    lo, hi = torus._J0_SERIES_MAX, torus._J0_HANKEL_MIN
    small = np.array([0.0, 1e-8, 0.3, 0.524, 1.0, np.nextafter(lo, 0.0), lo])
    edges = [np.nextafter(lo, 3.0), np.nextafter(hi, 0.0), hi, np.nextafter(hi, 30.0)]
    x = np.concatenate([small, edges, np.linspace(0.0, 300.0, 601),
                        np.random.default_rng(3).uniform(0.0, 300.0, 200), [1e3, 1e5, 1e8]])
    # A batch cuts its series by its largest argument, so the series-only
    # batch and the mixed one are checked apart.
    with mp.workdps(30):
        for batch in (small, x):
            for xi, got in zip(batch, torus._j0(batch)):
                assert abs(mp.mpf(float(got)) - mp.besselj(0, xi)) <= 4e-16 + 2e-16 * xi, xi
    assert torus._j0(np.array([0.5, 1e300, np.inf]))[2] == 0.0


def test_chf_product_bessel_product_against_mpmath():
    # The 9,527 single-term primes of the model at (0.52, 1e5): chf_product is
    # then their product of J0 factors alone, here at the radii r = 1/3 and 1.
    full = make_torus_model(0.52, 1e5)
    counts = np.bincount(full.term_prime_index)
    single = counts[full.term_prime_index] == 1
    model = dataclasses.replace(
        full, primes=full.primes[counts == 1], term_value=full.term_value[single],
        term_prime_index=np.arange(int(single.sum())),
        term_exponent=full.term_exponent[single], term_coeff=full.term_coeff[single])
    assert len(model) == model.n_primes() == 9527
    with mp.workdps(30):
        for r in (1.0 / 3.0, 1.0):
            args = 2.0 * math.pi * r * model.term_coeff
            want = mp.fprod(mp.besselj(0, mp.mpf(float(a))) for a in args)
            got = chf_product(model, r, 0.0)
            assert got.imag == 0.0
            assert abs(mp.mpf(got.real) - want) <= 1e-14 * abs(want), r


def test_chf_product_cost_is_bounded_at_huge_radius():
    # J0 costs O(1) per argument at any radius. The product underflows to 0
    # at r = 1e4 and 1e300; at u = 1e308, 2 pi r overflows and the quadrature
    # of the primes with several terms cannot settle: the product is not
    # finite at the first quadrature size, so no doubling is tried.
    model = make_torus_model(0.52, 1e5)
    start = time.perf_counter()
    for u, v in [(1e4, 0.0), (1e300, 0.0), (1e300, 1e300)]:
        assert chf_product(model, u, v) == 0.0
    for u, v in [(1e308, 0.0), (1e308, 1e308)]:
        with pytest.raises(QuadratureError, match=r"K = 64\b"), np.errstate(all="ignore"):
            chf_product(model, u, v)
    assert time.perf_counter() - start < 20.0


def test_chf_product_single_term_closed_form():
    # At x = 3 the primes 2 and 3 each have one term, so the chf is the
    # product of two Bessel factors and depends on (u, v) only through r.
    model = make_torus_model(0.75, 3.0)
    assert np.array_equal(model.primes, [2, 3])
    c2, c3 = (float(c) for c in model.term_coeff)
    for u, v in [(0.3, -0.2), (0.7, 0.1), (-1.1, 0.9)]:
        r = math.hypot(u, v)
        got = chf_product(model, u, v)
        assert abs(got - j0(2 * math.pi * r * c2) * j0(2 * math.pi * r * c3)) <= 1e-15
        assert got.imag == 0.0
        assert abs(chf_product(model, v, u) - got) <= 1e-15
        assert abs(chf_product(model, r, 0.0) - got) <= 1e-15


def test_chf_product_matches_moment_expansion(model_10):
    u, v = 0.007, 0.003
    prod = chf_product(model_10, u, v)
    trunc = chf_by_moments(model_10, u, v, N=6)
    env = chf_moments_envelope(u, v, 6)
    assert env < 1e-4
    assert abs(prod - trunc) <= env
    # N = 2 keeps only the constant term (odd orders vanish).
    assert chf_by_moments(model_10, u, v, N=2) == 1.0 + 0.0j


def test_chf_product_matches_montecarlo(model_075_300):
    vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    exact = chf_product(model_075_300, vals, vals)
    mc, se = chf_montecarlo(model_075_300, vals, vals, 20_000, seed=3)
    assert exact.shape == mc.shape == se.shape == (5, 5)
    assert np.all(np.abs(mc - exact) <= 3.0 * se + 1e-12)


def test_chf_montecarlo_deterministic_across_workers(model_10):
    a, se_a = chf_montecarlo(model_10, 0.4, 0.1, 9000, seed=42)
    b, se_b = chf_montecarlo(model_10, 0.4, 0.1, 9000, seed=42)
    assert a == b and se_a == se_b
    d, _ = chf_montecarlo(model_10, 0.4, 0.1, 9000, seed=43)
    assert d != a


def test_chf_grids_match_pointwise(model_10):
    # 0, the exact pairs +-0.25 and +-0.6, and the unpaired 0.9.
    u = np.array([-0.6, -0.25, 0.0, 0.25, 0.6, 0.9])
    v = np.array([0.9, -0.25, 0.0, 0.25])
    grid = chf_product(model_10, u, v)
    mc, se = chf_montecarlo(model_10, u, v, 5000, seed=8)
    moments = chf_by_moments(model_10, u, v, N=6)
    assert grid.shape == mc.shape == se.shape == moments.shape == (6, 4)
    S = torus._sample_S(model_10, 5000, seed=8)
    for i, a in enumerate(u.tolist()):
        for j, b in enumerate(v.tolist()):
            assert grid[i, j] == chf_product(model_10, a, b), (a, b)
            assert abs(moments[i, j] - chf_by_moments(model_10, a, b, N=6)) <= 1e-15
            point, point_se = chf_montecarlo(model_10, a, b, 5000, seed=8)
            assert abs(mc[i, j] - point) <= 1e-15 and abs(se[i, j] - point_se) <= 1e-15
            # The jackknife standard error of the mean, straight from the samples.
            g = np.exp(2j * math.pi * (a * S.real + b * S.imag))
            assert abs(mc[i, j] - g.mean()) <= 1e-15
            jack = math.sqrt(np.sum(np.abs(g - g.mean()) ** 2) / (g.size * (g.size - 1)))
            assert abs(se[i, j] - jack) <= 1e-12 * jack
    for chf in (chf_product, chf_by_moments,
                lambda m, a, b: chf_montecarlo(m, a, b, 5000, seed=8)):
        for bad in ((np.array([0.1, math.nan]), v), (u, np.array([math.inf])),
                    (np.zeros((2, 2)), v), (0.1, np.zeros((1, 3)))):
            with pytest.raises(DomainError):
                chf(model_10, *bad)


def test_eval_S_matches_block_route(model_10):
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    theta = rng.random((5, model_10.n_primes()))
    block = _eval_S_block(model_10, theta)
    for i in range(5):
        point = {int(p): float(theta[i, j]) for j, p in enumerate(model_10.primes)}
        scalar = eval_S(model_10, point)
        assert abs(scalar - block[i]) <= 1e-13
    # theta = 0 gives the plain coefficient sum.
    zero = eval_S(model_10, {int(p): 0.0 for p in model_10.primes})
    want = math.fsum(float(c) for c in model_10.term_coeff)
    assert abs(zero - want) <= 1e-15


def test_model_structure(model_075_300):
    m = model_075_300
    assert m.n_primes() == int(np.count_nonzero(m.term_exponent == 1))
    values = m.primes[m.term_prime_index].astype(np.float64) ** m.term_exponent
    assert np.array_equal(values.astype(np.int64), m.term_value)
    assert np.all(m.term_value <= m.x)
    assert np.all(m.term_coeff > 0.0)


def test_domain_and_capacity_errors(model_10):
    with pytest.raises(DomainError):
        make_torus_model(0.5, 100.0)
    with pytest.raises(DomainError):
        make_torus_model(0.75, 100.0, V=-1.0)
    with pytest.raises(DomainError):
        torus_moment_exact(model_10, 4, 3)
    with pytest.raises(DomainError):
        torus_moment_exact(model_10, -1, 1)
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.1)):
        with pytest.raises(DomainError):
            chf_product(model_10, *bad)
    with pytest.raises(DomainError):
        chf_montecarlo(model_10, 0.1, 0.1, 500, seed=0)
    for n_samples in (0, 1, 999):
        with pytest.raises(DomainError):
            moment_bound_check(model_10, 1, n_samples, seed=0)
    with pytest.raises(DomainError):
        chf_by_moments(model_10, 0.1, 0.1, N=3)
    with pytest.raises(DomainError):
        chf_by_moments(model_10, 0.1, 0.1, N=8)
    with pytest.raises(DomainError):
        eval_S(model_10, {2: 0.1, 3: 0.2, 5: 0.3})


def test_chf_product_quadrature_failure(model_10, monkeypatch):
    # Oscillation far beyond any reachable midpoint resolution: the bound asks
    # for more than 64 * 2^8 points, and the node is refused with one line
    # before any midpoint mean is formed.
    formed, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: formed.append(args) or einsum(*args))
    with pytest.raises(QuadratureError, match=r"^chf_product needs K = \S+ > 16384 midpoints "
                                              r"at \(u, v\) = \(300000, 0\)$"):
        chf_product(model_10, 3e5, 0.0)
    assert formed == []
