"""Laurent polynomial matrices over the complex numbers.

A Laurent polynomial matrix holds a finite set of coefficient matrices
(taps) attached to powers of z^{-1}.  It models an FIR MIMO transfer
function A(z) = sum_n A[n] z^{-n}, where n may be negative.  All heavy
lifting for the rest of the package (frequency evaluation, parahermitian
transposition, products, energy) lives here.
"""

from __future__ import annotations

import numpy as np

# Coefficients at or below this magnitude are considered numerical debris
# when trimming assembled products; well below experiment noise floors,
# above double-precision convolution error for the orders used here (<= ~30).
TRIM_TOL = 1e-12


class PolyMatrix:
    """Immutable matrix of Laurent polynomials in z^{-1}.

    Coefficients are a dense complex tensor of shape (M, L, T); tap t holds
    the coefficient matrix of z^{-(n_min + t)}.  A negative ``n_min`` means
    the matrix carries positive powers of z (non-causal terms).  The zero
    matrix is represented with a single zero tap at n_min = 0.
    """

    __slots__ = ("_coeffs", "_n_min")

    def __init__(self, coeffs, n_min: int = 0):
        c = np.array(coeffs, dtype=np.complex128, copy=True)
        if c.ndim != 3 or c.shape[2] < 1:
            raise ValueError("coeffs must have shape (M, L, T) with T >= 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient")
        c.setflags(write=False)
        self._coeffs = c
        self._n_min = int(n_min)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(np.zeros((rows, cols, 1)), 0)

    @classmethod
    def identity(cls, dim: int) -> "PolyMatrix":
        return cls(np.eye(dim)[:, :, None], 0)

    @classmethod
    def constant(cls, mat) -> "PolyMatrix":
        """Order-zero matrix from a single coefficient matrix."""
        m = np.asarray(mat, dtype=np.complex128)
        if m.ndim != 2:
            raise ValueError("constant() expects a 2-D matrix")
        return cls(m[:, :, None], 0)

    @classmethod
    def delay(cls, dim: int, power: int = 1) -> "PolyMatrix":
        """z^{-power} times the identity."""
        return cls(np.eye(dim)[:, :, None], power)

    # -- basic queries ------------------------------------------------

    @property
    def rows(self) -> int:
        return self._coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self._coeffs.shape[1]

    @property
    def n_taps(self) -> int:
        return self._coeffs.shape[2]

    @property
    def n_min(self) -> int:
        return self._n_min

    @property
    def n_max(self) -> int:
        return self._n_min + self.n_taps - 1

    @property
    def order(self) -> int:
        """Span of the power support, n_max - n_min."""
        return self.n_taps - 1

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only view of the (M, L, T) coefficient tensor."""
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not np.any(self._coeffs)

    def tap(self, n: int) -> np.ndarray:
        """Coefficient matrix of z^{-n} (zero outside the stored support)."""
        t = n - self._n_min
        if 0 <= t < self.n_taps:
            return self._coeffs[:, :, t].copy()
        return np.zeros((self.rows, self.cols), dtype=np.complex128)

    def max_abs(self) -> float:
        return float(np.abs(self._coeffs).max())

    def __repr__(self) -> str:
        return (
            f"PolyMatrix({self.rows}x{self.cols}, taps z^{{{-self.n_min}}}"
            f"..z^{{{-self.n_max}}})"
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} + "
                f"{other.rows}x{other.cols}"
            )
        lo = min(self.n_min, other.n_min)
        hi = max(self.n_max, other.n_max)
        out = np.zeros((self.rows, self.cols, hi - lo + 1), dtype=np.complex128)
        a0 = self.n_min - lo
        b0 = other.n_min - lo
        out[:, :, a0 : a0 + self.n_taps] += self._coeffs
        out[:, :, b0 : b0 + other.n_taps] += other._coeffs
        return PolyMatrix(out, lo).trim(0.0)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(-self._coeffs, self._n_min)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "PolyMatrix":
        if isinstance(scalar, PolyMatrix):
            return NotImplemented
        return PolyMatrix(self._coeffs * complex(scalar), self._n_min)

    __rmul__ = __mul__

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Polynomial matrix product by tap convolution.

        C[n] = sum_k A[k] B[n-k]; power offsets add.
        """
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        Ta, Tb = self.n_taps, other.n_taps
        out = np.zeros((self.rows, other.cols, Ta + Tb - 1), dtype=np.complex128)
        for i in range(Ta):
            ai = self._coeffs[:, :, i]
            out[:, :, i : i + Tb] += np.einsum("ml,lkt->mkt", ai, other._coeffs)
        return PolyMatrix(out, self.n_min + other.n_min).trim(0.0)

    def shifted(self, power: int) -> "PolyMatrix":
        """Multiply by z^{-power}: same taps, offset shifted."""
        return PolyMatrix(self._coeffs, self._n_min + power)

    def parahermitian(self) -> "PolyMatrix":
        """Parahermitian transpose A^P(z) = A^H(1/z*).

        Conjugate-transposes every tap and reverses the power axis.
        """
        c = np.conj(np.swapaxes(self._coeffs[:, :, ::-1], 0, 1))
        return PolyMatrix(c, -(self._n_min + self.n_taps - 1))

    # -- evaluation ---------------------------------------------------

    def _eval_many(self, omegas: np.ndarray) -> np.ndarray:
        powers = self._n_min + np.arange(self.n_taps)
        phases = np.exp(-1j * np.outer(omegas, powers))  # (K, T)
        return np.tensordot(phases, np.moveaxis(self._coeffs, 2, 0), axes=(1, 0))

    def eval(self, omega: float) -> np.ndarray:
        """Value on the unit circle at z = e^{j omega}."""
        return self._eval_many(np.array([float(omega)]))[0]

    def eval_grid(self, n_bins: int) -> np.ndarray:
        """Values at the uniform grid omega_k = 2 pi k / K, k = 0..K-1.

        Returns a (K, M, L) array.  For K >= n_taps the grid is a zero-padded
        FFT over the tap axis, times the phase exp(-2 pi j k n_min / K) of
        the Laurent offset; it agrees with pointwise eval() to rounding,
        within 1e-12 * (1 + sum of |coefficients|).  For K < n_taps the taps
        would alias, so the grid uses the direct contraction of eval() and
        agrees with it exactly.
        """
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if n_bins < self.n_taps:
            omegas = 2.0 * np.pi * np.arange(n_bins) / n_bins
            return self._eval_many(omegas)
        grid = np.fft.fft(np.moveaxis(self._coeffs, 2, 0), n=n_bins, axis=0)
        if self._n_min:
            # reduce k * n_min mod K in integers so the phase stays exact on
            # long grids; reducing n_min first keeps the product below K^2
            k = (np.arange(n_bins) * (self._n_min % n_bins)) % n_bins
            grid *= np.exp(-2j * np.pi * k / n_bins)[:, None, None]
        return grid

    # -- energies and predicates ---------------------------------------

    def frob_energy(self) -> float:
        """Sum of squared magnitudes of all coefficients."""
        return float(np.sum(np.abs(self._coeffs) ** 2))

    def trim(self, tol: float = TRIM_TOL) -> "PolyMatrix":
        """Strip leading/trailing tap slices with max magnitude <= tol."""
        if tol < 0:
            raise ValueError("tol must be >= 0")
        mags = np.abs(self._coeffs).reshape(-1, self.n_taps).max(axis=0)
        keep = np.flatnonzero(mags > tol)
        if keep.size == 0:
            return PolyMatrix.zeros(self.rows, self.cols)
        lo, hi = int(keep[0]), int(keep[-1])
        if lo == 0 and hi == self.n_taps - 1:
            return self
        return PolyMatrix(self._coeffs[:, :, lo : hi + 1], self._n_min + lo)

    def is_parahermitian(self, tol: float = 1e-10) -> bool:
        """True when A equals A^P up to max coefficient magnitude tol."""
        if self.rows != self.cols:
            raise ValueError("parahermitian check requires a square matrix")
        return (self - self.parahermitian()).max_abs() <= tol

    def is_paraunitary(self, tol: float = 1e-10) -> bool:
        """True when A(z) A^P(z) = I up to max coefficient magnitude tol."""
        if self.rows != self.cols:
            raise ValueError("paraunitary check requires a square matrix")
        residual = (self @ self.parahermitian()) - PolyMatrix.identity(self.rows)
        return residual.max_abs() <= tol

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON form: {M, L, n_min, coeffs: T taps of MxL [re, im] pairs}."""
        taps = [
            [
                [[float(v.real), float(v.imag)] for v in row]
                for row in self._coeffs[:, :, t]
            ]
            for t in range(self.n_taps)
        ]
        return {"M": self.rows, "L": self.cols, "n_min": self._n_min, "coeffs": taps}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolyMatrix":
        taps = np.asarray(d["coeffs"], dtype=float)
        if taps.ndim != 4 or taps.shape[3] != 2:
            raise ValueError("coeffs must be T x M x L x [re, im]")
        if taps.shape[1] != d["M"] or taps.shape[2] != d["L"]:
            raise ValueError("coeffs shape disagrees with M, L")
        c = taps[..., 0] + 1j * taps[..., 1]
        return cls(np.moveaxis(c, 0, 2), int(d["n_min"]))
