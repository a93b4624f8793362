"""Type-1 nonuniform FFT by Gaussian gridding (Greengard-Lee style).

Computes out[j] = sum_k c_k exp(-i j phi_k), j < n_out, from unwrapped
phases phi_k, reduced in integers, n = rint(phi / h), against the grid step
h = 2 pi / Mr held in two doubles: no rounding of 2 pi or h shifts mode j by
j * eps. Sources are spread onto an oversampled grid with a truncated
Gaussian; one FFT and a deconvolution recover the modes. With oversampling 2
and width 14 the error is at most RELATIVE_ACCURACY * sum |c| (one unit
source against mpmath: 1.6-1.9e-13 within +-800 rad, up to 1e5 modes).

Dense sources are grouped by phase cell first (the Taylor NUFFT of
Anderson-Dahleh). Cells are 0.2 / n_out wide, so |j delta| < 0.1 for the
offset delta from a cell centre. A lone source is spread at its phase; a
cell with several is spread at its centre as M_k = sum c delta^k / k!,
k < 9, each into its own Taylor-order grid (allocated at the first such
cell), and finish() sums (-i j)^k mode_k by Horner's rule. The truncation
adds at most TAYLOR_ACCURACY * sum |c| (3.05e-15).

Spreading is additive, so callers stream sources segment by segment and the
FFT runs once at the end; results do not depend on batching or order, up to
the stated bounds.
"""

from __future__ import annotations

import math

import numpy as np

RELATIVE_ACCURACY = 3e-13  # measured at these two only:
_RATIO, _SPREAD = 2, 14  # grid oversampling, Gaussian half-width in grid cells
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)
_CELL = 0.2  # cell width times n_out
_ORDERS = 9  # Taylor orders 0..8 per cell
TAYLOR_ACCURACY = math.exp(0.1) * 0.1**_ORDERS / math.factorial(_ORDERS)


class NufftSum:
    """Streaming accumulator for sum_k c_k exp(-i j phi_k)."""

    def __init__(self, n_out: int, shape: tuple = ()):
        if n_out < 1:
            raise ValueError("n_out must be positive")
        self.n_out = int(n_out)
        M = 2 * self.n_out
        self.Mr = _RATIO * M
        self.spread = _SPREAD
        self.tau = math.pi * _SPREAD / (M * M * _RATIO * (_RATIO - 0.5))
        self.h = 2.0 * math.pi / self.Mr
        # h = h_hi + h_lo to double-double; n * h_hi is exact for |n| < 2**29.
        self._h_hi = float(np.float32(self.h))
        self._h_lo = ((2.0 * math.pi - self._h_hi * self.Mr) + _TWO_PI_LO) / self.Mr
        self.shape = tuple(shape)
        # Axis 0 is the Taylor order; it grows to _ORDERS on the first dense cell.
        self._grid = np.zeros((1,) + self.shape + (self.Mr,), dtype=np.complex128)

    def add(self, phi: np.ndarray, c: np.ndarray) -> None:
        """Spread sources: unwrapped phases phi (radians, shape (K,)), weights c (*shape, K)."""
        phi = np.asarray(phi, dtype=np.float64)
        c = np.asarray(c, dtype=np.complex128)
        if phi.ndim != 1 or c.shape != self.shape + phi.shape:
            raise ValueError("c must have shape (*shape, len(phi))")
        width = _CELL / self.n_out
        cell = np.floor(phi / width)
        if np.any(cell[1:] < cell[:-1]):
            order = np.argsort(cell, kind="stable")
            phi, c, cell = phi[order], np.take(c, order, axis=-1), cell[order]
        starts = np.flatnonzero(np.diff(cell, prepend=-np.inf))
        if starts.size == phi.size:  # no dense cell: spread as given, holding no extra arrays
            del cell, starts
            self._spread(self._grid[0], phi, c)
            return
        counts = np.diff(starts, append=phi.size)
        one, dense = starts[counts == 1], counts > 1
        self._spread(self._grid[0], phi[one], np.take(c, one, axis=-1))
        if self._grid.shape[0] == 1:
            self._grid = np.pad(self._grid, [(0, _ORDERS - 1)] + [(0, 0)] * (1 + len(self.shape)))
        centre = (cell[starts[dense]] + 0.5) * width
        keep = np.repeat(dense, counts)
        delta = phi[keep] - np.repeat(centre, counts[dense])
        term, at = np.compress(keep, c, axis=-1), np.cumsum(counts[dense]) - counts[dense]
        moments = [np.add.reduceat(term, at, axis=-1)]
        for k in range(1, _ORDERS):
            term = term * (delta / k)
            moments.append(np.add.reduceat(term, at, axis=-1))
        self._spread(self._grid, centre, np.array(moments))

    def _spread(self, grid, phi, c) -> None:
        """Add the Gaussian-gridded sources c (*S, K) at phases phi into grids (*S, Mr),
        all grid offsets in one bincount per row and part: O(Mr) per row, not per offset."""
        tau, h, Mr = self.tau, self.h, self.Mr
        n = np.rint(phi / h)  # phi = n h - d, with d in [-h/2, h/2]
        d = -((phi - n * self._h_hi) - n * self._h_lo)
        S, m = self.spread, np.arange(-self.spread, self.spread + 1)
        idx = (np.mod(-n.astype(np.int64), Mr) + np.mod(m, Mr)[:, None]).ravel()
        idx[idx >= Mr] -= Mr
        # exp(-(d - m h)^2 / 4 tau) = exp(-d^2 / 4 tau) E1^m exp(-(m h)^2 / 4 tau), out from m = 0.
        G = np.empty((2 * S + 1, phi.shape[0]))
        G[S], E1 = np.exp(-d * d / (4.0 * tau)), np.exp(d * h / (2.0 * tau))
        for k in range(1, S + 1):
            G[S + k], G[S - k] = G[S + k - 1] * E1, G[S - k + 1] / E1
        G *= np.exp(-((m * h) ** 2) / (4.0 * tau))[:, None]
        for r in np.ndindex(c.shape[:-1]):
            grid.real[r] += np.bincount(idx, weights=(G * c[r].real).ravel(), minlength=Mr)
            grid.imag[r] += np.bincount(idx, weights=(G * c[r].imag).ravel(), minlength=Mr)

    def finish(self) -> np.ndarray:
        """Modes 0..n_out-1 (*shape, n_out). The accumulator stays valid for further add()s."""
        spectrum = np.fft.ifft(self._grid)
        j = np.arange(self.n_out, dtype=np.float64)
        deconv = math.sqrt(math.pi / self.tau) * np.exp(j * j * self.tau)
        modes = spectrum[..., : self.n_out] * deconv
        out = modes[-1]
        for mode in modes[-2::-1]:  # Horner in -i j over the Taylor orders
            out = mode + (-1j * j) * out
        return out


def grid_step(t: np.ndarray):
    """(t0, dt) when the 1-d t holds at least 16 points t_j = t0 + j dt,
    dt = (t[-1] - t0) / (n - 1), each within 4 eps max|t| (np.linspace and
    t0 + dt * arange are); else None. The one test that routes t to NufftSum."""
    n = t.shape[0]
    if n < 16:
        return None
    t0, dt = float(t[0]), (float(t[-1]) - float(t[0])) / (n - 1)
    dev = np.max(np.abs(t - (t0 + np.arange(n) * dt)))
    return (t0, dt) if dev <= 4.0 * np.finfo(float).eps * np.max(np.abs(t)) else None


def exp_sum_direct(omega: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Direct sum_k c_k exp(-i t_j omega_k), chunked, for weights c (*shape, K)
    as NufftSum.add takes them; returns (*shape, len(t)). Rows of c share cos
    and sin, and real rows stay real. The exact reference for NufftSum, the
    general-grid fallback, and the main sums of zeta's Euler-Maclaurin engine.
    """
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
