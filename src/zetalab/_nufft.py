"""Type-1 nonuniform FFT by Gaussian gridding (Greengard-Lee style).

Computes out[j] = sum_k c_k exp(-i j phi_k) for j = 0..n_out-1, with the
phases phi_k anywhere in [0, 2pi). Sources are spread onto an oversampled
uniform grid with a truncated Gaussian window, then one FFT and a
deconvolution recover the modes. With oversampling 2 and spreading width 14
the error is at most RELATIVE_ACCURACY * sum_k |c_k| (checked against
long-double sums for up to 1e5 modes), as offsets are taken from the exact
grid step 2 pi / Mr: a rounded step would shift mode j by j * eps.

The accumulator form lets callers stream arbitrarily large source sets
segment by segment: spreading is additive, and the FFT happens once at the
end. Results are independent of how sources are batched.
"""

from __future__ import annotations

import math

import numpy as np

RELATIVE_ACCURACY = 3e-14
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - float(2 pi)


class NufftSum:
    """Streaming accumulator for sum_k c_k exp(-i j phi_k)."""

    def __init__(self, n_out: int, ratio: int = 2, spread: int = 14, shape: tuple = ()):
        if n_out < 1:
            raise ValueError("n_out must be positive")
        self.n_out = int(n_out)
        M = 2 * self.n_out
        self.Mr = ratio * M
        self.spread = spread
        self.tau = math.pi * spread / (M * M * ratio * (ratio - 0.5))
        self.h = 2.0 * math.pi / self.Mr
        # h = h_hi + h_lo to double-double; i * h_hi is exact (24 bits).
        self._h_hi = float(np.float32(self.h))
        self._h_lo = ((2.0 * math.pi - self._h_hi * self.Mr) + _TWO_PI_LO) / self.Mr
        self.shape = tuple(shape)
        self._grid_re = np.zeros(self.shape + (self.Mr,))
        self._grid_im = np.zeros(self.shape + (self.Mr,))

    def add(self, phi: np.ndarray, c: np.ndarray) -> None:
        """Spread sources: phases phi (radians, shape (K,)), weights c (*shape, K)."""
        phi = np.asarray(phi, dtype=np.float64)
        c = np.asarray(c, dtype=np.complex128)
        if phi.ndim != 1 or c.shape != self.shape + phi.shape:
            raise ValueError("c must have shape (*shape, len(phi))")
        if phi.size == 0:
            return
        tau, h, Mr = self.tau, self.h, self.Mr
        x = np.mod(-phi, 2.0 * math.pi)
        i0 = np.rint(x / h)
        d = (x - i0 * self._h_hi) - i0 * self._h_lo
        i0 = i0.astype(np.int64)
        E0 = c * np.exp(-d * d / (4.0 * tau))
        E1 = np.exp(d * h / (2.0 * tau))
        Epos = np.ones(phi.shape[0])
        Eneg = np.ones(phi.shape[0])
        for m in range(self.spread + 1):
            if m > 0:
                Epos = Epos * E1
                Eneg = Eneg / E1
            g2 = math.exp(-((m * h) ** 2) / (4.0 * tau))
            for sgn in (0,) if m == 0 else (1, -1):
                Em = 1.0 if m == 0 else (Epos if sgn > 0 else Eneg)
                w = E0 * Em * g2
                idx = np.mod(i0 + sgn * m, Mr)
                for r in np.ndindex(self.shape):
                    self._grid_re[r] += np.bincount(idx, weights=w[r].real, minlength=Mr)
                    self._grid_im[r] += np.bincount(idx, weights=w[r].imag, minlength=Mr)

    def finish(self) -> np.ndarray:
        """Modes 0..n_out-1 (*shape, n_out). The accumulator stays valid for further add()s."""
        spectrum = np.fft.ifft(self._grid_re + 1j * self._grid_im)
        j = np.arange(self.n_out, dtype=np.float64)
        deconv = math.sqrt(math.pi / self.tau) * np.exp(j * j * self.tau)
        return spectrum[..., : self.n_out] * deconv


def exp_sum_direct(omega: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Direct evaluation of sum_k c_k exp(-i t_j omega_k), chunked.

    The slow exact reference for NufftSum, and the general-grid fallback.
    """
    omega = np.asarray(omega, dtype=np.float64)
    c = np.asarray(c, dtype=np.complex128)
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape[0], dtype=np.complex128)
    step = max(1, 4_000_000 // max(1, t.shape[0]))
    for lo in range(0, omega.shape[0], step):
        hi = min(lo + step, omega.shape[0])
        ph = np.outer(t, omega[lo:hi])
        out += np.cos(ph) @ c[lo:hi] - 1j * (np.sin(ph) @ c[lo:hi])
    return out
