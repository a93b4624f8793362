"""Dirichlet sums sum_n c_n exp(-i t log n) on a set of t, and the NUFFT behind them.

dirichlet_sum(blocks, t, tol) is the one evaluator of these sums (zeta's main
sums on a line, selberg's prime polynomial). Its blocks (ell, w) hold
nonnegative real w of shape (R, K), row r + 1 = row r times ell; it returns
the R row sums S_r and a bound per row and point. An equispaced t (grid_step)
takes one NufftSum, each add spending the Taylor budget tol, and every row but
the last moves to the exact t_j as S_r - i delta S_{r+1}, with the offset
delta = t_j - (t0 + j dt); other t go to exp_sum_direct, delta = 0. With
B_r = sum w_r, B_R = sum w_{R-1} ell and T the taylor_bound spent, a moved
row's bound is RELATIVE_ACCURACY (B_r + |delta| B_{r+1}) + delta^2 B_{r+2} / 2
+ (1 + |delta|) T, the last row's RELATIVE_ACCURACY B_r + |delta| B_{r+1} + T.

NufftSum computes out[j] = sum_k w_k exp(-i t_j ell_k) on t_j = t0 + j dt,
j < n_out. With the twist exp(-i t0 ell) in the weight it is a type-1 sum in
j at the unwrapped phases phi = dt ell = n h + d, n = rint(phi / h), reduced
in integers against the grid step h = 2 pi / Mr held in two doubles: no
rounding of 2 pi or h shifts mode j by j * eps. A source goes onto grid
points n - 6..n + 6, Mr = 8 ceil(n_out / 2), with the weights exp(beta
(sqrt(1 - z^2) - 1)), z = (m h - d) / 6.5 h (Barnett, Magland & af
Klinteberg, SIAM J. Sci. Comput. 41 (2019)). Mode j, read from the centre
of the band, is FFT index j - jc (mod Mr), jc = Mr / 8, of the sources
twisted by exp(-i jc phi) = exp(-i pi n / 4) exp(-i jc d), divided by the
kernel's Fourier transform (22-node Gauss-Legendre), whose largest factor
is 1.44 times its smallest. One unit source errs by at most 2.5e-14 against
mpmath (+-800 rad, up to 2e4 modes); RELATIVE_ACCURACY * sum |w| stays the
certificate, beside the rounding of t0 ell in a lone twist (eps |t0 ell| / 2).

Dense sources are grouped by ell-cell first (the Taylor NUFFT of
Anderson-Dahleh). Cells are 0.2 / max|t_j| wide (at most 1), so |t_j delta|
<= 0.1 for the offset delta from a cell centre c. A lone source takes its
twist and is spread at its phase; a cell with several takes the twist once,
at c (t0 c exact by Dekker's two-product), and is spread at dt c as
exp(-i t0 c) M_k, M_k = sum w delta^k / k!, k < K (real for real w), each
into its own Taylor-order grid (allocated when first needed); finish()
sums (-i t_j)^k mode_k by Horner's rule. An add with a dense cell charges
its truncation 0.1^K / K! * sum |w| (|e^{ix} - its first K terms| <= |x|^K
/ K!) to taylor_bound: K = 9 by default, at most TAYLOR_ACCURACY * sum |w|
(3.05e-15); add(ell, w, tol) keeps the fewest K whose charge is at most
tol, or nine where none is. Spreading is additive: the FFT runs once, in
finish(), and results do not depend on batching or order, up to the bounds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

RELATIVE_ACCURACY = 3e-13  # the certificate; one unit source errs by at most 2.5e-14
_SPREAD = 6  # ES half-width: 2 * 6 + 1 grid points per source
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)
# FINUFFT's shape rule at oversampling 4 = Mr / 2 jc, the band's width for odd n_out too.
_BETA = 0.97 * math.pi * (2 * _SPREAD + 1) * (1.0 - 1.0 / 8.0)
_ROOT8 = np.exp(-0.25j * math.pi * np.arange(8))  # exp(-i pi n / 4) by n mod 8
_CELL = 0.2  # ell-cell width times max|t_j| (at most 1 wide): |t_j delta| <= 0.1
_ORDERS = 9  # Taylor orders 0..8 per cell
TAYLOR_ACCURACY = math.exp(0.1) * 0.1**_ORDERS / math.factorial(_ORDERS)


class NufftSum:
    """Streaming accumulator for sum_k w_k exp(-i t_j ell_k), t_j = t0 + j dt."""

    def __init__(self, t0: float, dt: float, n_out: int, shape: tuple = ()):
        if n_out < 1:
            raise ValueError("n_out must be positive")
        self.t0, self.dt, self.n_out = float(t0), float(dt), int(n_out)
        self.Mr = 8 * -(-self.n_out // 2)  # jc = Mr / 8 makes jc n h = pi n / 4 exactly
        self.jc, self.spread, self.h = self.Mr // 8, _SPREAD, 2.0 * math.pi / self.Mr
        self.alpha = (_SPREAD + 0.5) * self.h
        # h = h_hi + h_lo to double-double; n * h_hi is exact for |n| < 2**29.
        self._h_hi = float(np.float32(self.h))
        self._h_lo = ((2.0 * math.pi - self._h_hi * self.Mr) + _TWO_PI_LO) / self.Mr
        self._width = _CELL / max(abs(self.t0), abs(self.t0 + (self.n_out - 1) * self.dt), _CELL)
        self.taylor_bound = 0.0  # Taylor remainder bounds spent by add
        self.shape = tuple(shape)
        # Axis 0 is the Taylor order; it grows to the most orders a dense cell takes.
        # Grid point i sits at i - spread: finish() wraps the 2 spread end points.
        self._grid = np.zeros((1,) + self.shape + (self.Mr + 2 * _SPREAD,), dtype=np.complex128)

    def add(self, ell: np.ndarray, w: np.ndarray, tol: float | None = None) -> None:
        """Spread sources: frequencies ell (shape (K,)), weights w (*shape, K), real or complex.
        With tol > 0, each row keeps the Taylor orders tol needs (see the module docstring)."""
        ell = np.asarray(ell, dtype=np.float64)
        w = np.asarray(w, dtype=np.complex128 if np.iscomplexobj(w) else np.float64)
        if ell.ndim != 1 or w.shape != self.shape + ell.shape:
            raise ValueError("w must have shape (*shape, len(ell))")
        mass = float(np.max(np.sum(np.abs(w), axis=-1), initial=0.0))
        tau, orders = 0.5 * _CELL, _ORDERS
        if tol is not None:
            if not tol > 0:
                raise ValueError("tol must be positive")
            orders = next((k for k in range(1, _ORDERS)
                           if tau**k / math.factorial(k) * mass <= tol), _ORDERS)
        cell = np.floor(ell / self._width)
        if np.any(cell[1:] < cell[:-1]):
            order = np.argsort(cell, kind="stable")
            ell, w, cell = ell[order], np.take(w, order, axis=-1), cell[order]
        starts = np.flatnonzero(np.diff(cell, prepend=-np.inf))
        if starts.size == ell.size:  # no dense cell: spread as given, holding no extra arrays
            del cell, starts
            self._spread(self._grid[0], self.dt * ell, w * np.exp(-1j * self.t0 * ell))
            return
        self.taylor_bound += tau**orders / math.factorial(orders) * mass
        counts = np.diff(starts, append=ell.size)
        dense, term = counts > 1, w
        one, centre = starts[~dense], (cell[starts[dense]] + 0.5) * self._width
        del cell, starts
        if one.size:  # spread the lone sources, keep the dense cells' sources
            lone = ell[one]
            self._spread(self._grid[0], self.dt * lone,
                         np.take(w, one, axis=-1) * np.exp(-1j * self.t0 * lone))
            keep = np.repeat(dense, counts)
            ell, term, counts = ell[keep], np.compress(keep, w, axis=-1), counts[dense]
        if self._grid.shape[0] < orders:
            self._grid = np.pad(self._grid, [(0, orders - self._grid.shape[0])]
                                + [(0, 0)] * (1 + len(self.shape)))
        delta, at = np.repeat(centre, counts), np.cumsum(counts) - counts
        delta = np.subtract(ell, delta, out=delta)
        del ell
        moments = [np.add.reduceat(term, at, axis=-1)]
        for k in range(1, orders):  # term = w delta^k, in place once it is not w
            term = np.multiply(term, delta, out=None if k == 1 else term)
            moments.append(np.add.reduceat(term, at, axis=-1) / math.factorial(k))
        p, (ah, al), (bh, bl) = self.t0 * centre, _split(self.t0), _split(centre)
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # t0 c = p + e exactly (Dekker)
        twist = np.exp(-1j * p) * (1.0 - 1j * e)  # once per cell; the moments stay real for real w
        self._spread(self._grid[:orders], self.dt * centre, np.array(moments) * twist)

    def _spread(self, grid, phi, c) -> None:
        """Add the ES-gridded sources c (*S, K), twisted by exp(-i jc phi), at phases phi
        into grids (*S, Mr + 2 spread), all grid offsets in one bincount per row and part."""
        h, S, L = self.h, self.spread, self.Mr + 2 * self.spread
        n = np.rint(phi / h)  # phi = n h + d, with d in [-h/2, h/2]
        d = (phi - n * self._h_hi) - n * self._h_lo
        n = n.astype(np.int64)
        c = c * (_ROOT8[n & 7] * np.exp(-1j * self.jc * d))
        idx = (np.mod(n, self.Mr) + np.arange(2 * S + 1)[:, None]).ravel()
        # The kernel at z = (m h - d) / alpha, m = -S..S, in place.
        G = 1.0 - np.subtract.outer(np.arange(-S, S + 1) * (h / self.alpha), d / self.alpha) ** 2
        G = np.exp(_BETA * (np.sqrt(np.maximum(G, 0.0, out=G), out=G) - 1.0), out=G)
        for r in np.ndindex(c.shape[:-1]):
            grid.real[r] += np.bincount(idx, weights=(G * c[r].real).ravel(), minlength=L)
            grid.imag[r] += np.bincount(idx, weights=(G * c[r].imag).ravel(), minlength=L)

    def finish(self) -> np.ndarray:
        """Modes 0..n_out-1 (*shape, n_out). The accumulator stays valid for further add()s."""
        S, Mr = self.spread, self.Mr
        grid = self._grid[..., S:Mr + S].copy()
        grid[..., Mr - S:] += self._grid[..., :S]
        grid[..., :S] += self._grid[..., Mr + S:]
        k = np.arange(self.n_out) - self.jc
        z, wphi = _es_nodes()
        deconv = self.h / (self.alpha * (np.cos(np.outer(k * self.alpha, z)) @ wphi))
        modes = np.fft.fft(grid)[..., np.mod(k, Mr)] * deconv
        t = self.t0 + self.dt * np.arange(self.n_out, dtype=np.float64)
        out = modes[-1]
        for mode in modes[-2::-1]:  # Horner in -i t_j over the Taylor orders
            out = mode + (-1j * t) * out
        return out


@functools.cache
def _es_nodes():
    """22 = 2 + ceil(1.5 (2 _SPREAD + 1)) Gauss-Legendre nodes z on (0, 1), 2 weight kernel(z):
    the kernel's Fourier transform 2 int_0^1 kernel(z) cos(xi z) dz is their cos(xi z) sum."""
    x, w = np.polynomial.legendre.leggauss(2 + math.ceil(1.5 * (2 * _SPREAD + 1)))
    z = 0.5 * (x + 1.0)
    return z, w * np.exp(_BETA * (np.sqrt(1.0 - z * z) - 1.0))


def _split(x):
    """Veltkamp's split x = hi + lo into 26-bit halves (by 2**27 + 1), for Dekker's product."""
    hi = 134217729.0 * x - (134217729.0 * x - x)
    return hi, x - hi


def grid_step(t: np.ndarray):
    """(t0, dt) when the 1-d t holds at least 16 points t_j = t0 + j dt,
    dt = (t[-1] - t0) / (n - 1), each within 4 eps max|t| (np.linspace and
    t0 + dt * arange are); else None. The one test that routes t to NufftSum."""
    n = t.shape[0]
    if n < 16:
        return None
    step = float(t[0]), (float(t[-1]) - float(t[0])) / (n - 1)
    dev = np.max(np.abs(_offset(t, step)))
    return step if dev <= 4.0 * np.finfo(float).eps * np.max(np.abs(t)) else None


def _offset(t: np.ndarray, step) -> np.ndarray:
    """t_j - (t0 + j dt) for step (t0, dt), exact up to one rounding (Knuth's two-sum
    for t - t0, Dekker's product for j dt, j < 2**26); zeros for step None."""
    if step is None:
        return np.zeros(t.shape)
    (t0, dt), j = step, np.arange(t.shape[0], dtype=np.float64)
    diff, p, (hi, lo) = t - t0, j * dt, _split(dt)
    b = diff - t
    return (diff - p) + (((t - (diff - b)) + (-t0 - b)) - ((j * hi - p) + j * lo))


def dirichlet_masses(blocks) -> np.ndarray:
    """The masses (B_0, ..., B_R) of a block stream: B_r = sum w_r, B_R = sum w_{R-1} ell."""
    return sum(np.append(w.sum(axis=1), np.sum(w[-1] * ell)) for ell, w in blocks)


def dirichlet_bound(t: np.ndarray, B: np.ndarray, taylor: float = 0.0) -> np.ndarray:
    """dirichlet_sum's (R, len(t)) bounds from the masses B and the Taylor charge."""
    delta, B = np.abs(_offset(t, grid_step(t))), B[:, None]
    moved = (RELATIVE_ACCURACY * (B[:-2] + delta * B[1:-1]) + 0.5 * delta**2 * B[2:]
             + taylor * (1.0 + delta))
    return np.vstack([moved, RELATIVE_ACCURACY * B[-2:-1] + delta * B[-1:] + taylor])


def dirichlet_sum(blocks, t: np.ndarray, tol: float | None = None):
    """(S, bound), both (R, len(t)): the rows S_r = sum w_r exp(-i t ell) at the 1-d t
    (see the module docstring); an empty stream sums to one row of zeros."""
    blocks = iter(blocks)
    block = next(blocks, (np.zeros(0), np.zeros((1, 0))))
    step, S, B = grid_step(t), 0.0, 0.0
    acc = NufftSum(*step, t.shape[0], shape=block[1].shape[:1]) if step else None
    while block is not None:  # a block is released once the next one is drawn
        ell, w = block
        B = B + dirichlet_masses([block])
        if acc:
            acc.add(ell, w, tol)
        else:
            S = S + exp_sum_direct(ell, w, t)
        block = next(blocks, None)
    if acc:
        S = acc.finish()
        S[:-1] -= 1j * _offset(t, step) * S[1:]
    return S, dirichlet_bound(t, B, acc.taylor_bound if acc else 0.0)


def exp_sum_direct(omega: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Direct sum_k c_k exp(-i t_j omega_k), chunked, for weights c (*shape, K) as
    NufftSum.add takes them; returns (*shape, len(t)). Rows of c share cos and sin,
    and real rows stay real. dirichlet_sum's other route, and zeta's band loop."""
    omega = np.asarray(omega, dtype=np.float64)
    c = np.asarray(c, dtype=np.complex128 if np.iscomplexobj(c) else np.float64)
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(c.shape[:-1] + t.shape, dtype=np.complex128)
    step = max(1, 4_000_000 // max(1, t.shape[0]))
    for lo in range(0, omega.shape[0], step):
        ph, ck = np.outer(t, omega[lo:lo + step]), c[..., lo:lo + step]
        cs, sn = np.cos(ph), np.sin(ph)
        for r in np.ndindex(ck.shape[:-1]):
            out[r] += cs @ ck[r] - 1j * (sn @ ck[r])
    return out
