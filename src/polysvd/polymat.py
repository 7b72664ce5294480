"""Laurent polynomial matrices over the complex numbers.

A Laurent polynomial matrix holds a finite set of coefficient matrices
(taps) attached to powers of z^{-1}.  It models an FIR MIMO transfer
function A(z) = sum_n A[n] z^{-n}, where n may be negative.  All heavy
lifting for the rest of the package (frequency evaluation, parahermitian
transposition, products, energy) lives here.
"""

from __future__ import annotations

import operator

import numpy as np

# Coefficients at or below this magnitude are considered numerical debris
# when trimming assembled products; well below experiment noise floors,
# above double-precision convolution error for the orders used here (<= ~30).
TRIM_TOL = 1e-12


def _integer(value, name: str = "power offset", least: int = None) -> int:
    """value as an int; TypeError unless an integer type, ValueError below least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _nonnegative(value, name: str) -> None:
    """ValueError unless a level or tolerance is finite and >= 0."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} = {value} must be finite and >= 0")


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
        self._n_min = _integer(n_min)

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

    def max_abs(self) -> float:
        return float(np.abs(self._coeffs).max())

    def __repr__(self) -> str:
        return (
            f"PolyMatrix({self.rows}x{self.cols}, taps z^{{{-self.n_min}}}"
            f"..z^{{{-self.n_max}}})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._n_min == other._n_min and np.array_equal(self._coeffs, other._coeffs)

    def __hash__(self) -> int:  # keeps frozen records that hold one hashable
        return hash((self._n_min, self._coeffs.shape))

    def __reduce__(self):  # through __init__, so a copy is read-only too
        return PolyMatrix, (self._coeffs, self._n_min)

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
        return PolyMatrix(self._coeffs, self._n_min + _integer(power))

    def parahermitian(self) -> "PolyMatrix":
        """Parahermitian transpose A^P(z) = A^H(1/z*).

        Conjugate-transposes every tap and reverses the power axis.
        """
        c = np.conj(np.swapaxes(self._coeffs[:, :, ::-1], 0, 1))
        return PolyMatrix(c, -(self._n_min + self.n_taps - 1))

    # -- evaluation ---------------------------------------------------

    def eval_at(self, omegas) -> np.ndarray:
        """A(e^{j omega}) = sum_n A[n] e^{-j omega n} (the z^{-n} convention)
        at each omega of a sequence, as a (len(omegas), M, L) array.

        The taps are summed in order in real arithmetic, so a frequency's
        value is bitwise the same whatever other frequencies share the call:
        eval_at(omegas)[k] equals eval_at([omegas[k]])[0].  numpy's complex
        product would round by the loop it takes.
        """
        powers = self._n_min + np.arange(self.n_taps)
        phases = np.exp(-1j * np.outer(powers, omegas))  # (T, K): K innermost
        taps = np.moveaxis(self._coeffs, 2, 0)[..., None]  # (T, M, L, 1)
        out = np.zeros((self.rows, self.cols, phases.shape[1]), dtype=np.complex128)
        for p, q, c, d in zip(phases.real, phases.imag, taps.real, taps.imag):
            out.real += p * c - q * d
            out.imag += p * d + q * c
        return np.ascontiguousarray(np.moveaxis(out, 2, 0))

    def eval_grid(self, n_bins: int) -> np.ndarray:
        """Values at the uniform grid omega_k = 2 pi k / K, k = 0..K-1.

        Returns a (K, M, L) array.  On the grid z^{-n} depends on n mod K
        only, so tap t is added into bin (n_min + t) mod K and one in-place
        FFT over the bins gives the values for every K and n_min, equal to
        eval_at's within 1e-12 * (1 + sum of |coefficients|); K is an integer >= 1.
        """
        n_bins = _integer(n_bins, "n_bins", 1)
        folded = np.zeros((n_bins, self.rows, self.cols), dtype=np.complex128)
        bins = (self._n_min % n_bins + np.arange(self.n_taps)) % n_bins
        np.add.at(folded, bins, np.moveaxis(self._coeffs, 2, 0))
        return np.fft.fft(folded, axis=0, out=folded)

    # -- energies and predicates ---------------------------------------

    def frob_energy(self) -> float:
        """Sum of squared magnitudes of all coefficients."""
        return float(np.sum(np.abs(self._coeffs) ** 2))

    def trim(self, tol: float = TRIM_TOL) -> "PolyMatrix":
        """Strip leading/trailing tap slices with max magnitude <= tol (finite, >= 0)."""
        _nonnegative(tol, "tol")
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
        c = np.moveaxis(self._coeffs, 2, 0)
        taps = np.stack([c.real, c.imag], axis=-1).tolist()
        return {"M": self.rows, "L": self.cols, "n_min": self._n_min, "coeffs": taps}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolyMatrix":
        for key in ("M", "L", "n_min"):
            if not isinstance(d[key], int) or isinstance(d[key], bool):
                raise ValueError(f"{key} must be an integer, got {d[key]!r}")
        taps = np.asarray(d["coeffs"], dtype=float)
        if taps.ndim != 4 or taps.shape[3] != 2:
            raise ValueError("coeffs must be T x M x L x [re, im]")
        if taps.shape[1] != d["M"] or taps.shape[2] != d["L"]:
            raise ValueError("coeffs shape disagrees with M, L")
        c = taps[..., 0] + 1j * taps[..., 1]
        return cls(np.moveaxis(c, 0, 2), d["n_min"])
