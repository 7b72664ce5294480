"""Bin-wise SVD over a frequency grid and singular-value trajectory tracking.

Two views of the singular values of A(e^{j omega}) on a uniform grid:

* majorized: per-bin descending, nonnegative values (the ordinary SVD order);
* smooth: signed tracks associated across bins so that each track follows
  one continuous singular-value function, which may cross zero and other
  tracks.

The smooth association is a one-pass greedy procedure; diagnostics extract
the minimum track gap and the minimum smallest value over the grid.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import densela
from .polymat import PolyMatrix

# Singular values below this fraction of the bin maximum carry a numerically
# meaningless u-v pairing phase; the sign tracker does not refresh its
# reference vector from such bins.
_SIGN_REF_REL_FLOOR = 1e-7

# Greedy-match score margin below which the association is reported ambiguous.
AMBIGUITY_MARGIN = 0.1


class AssociationAmbiguous(UserWarning):
    """Smooth association could not clearly separate candidate matches.

    Signals a grid that is too coarse for the subspace rotation between
    adjacent bins, or an exact algebraic multiplicity in the underlying
    system.  Not fatal: the affected bins keep the previous track order.
    """


@dataclass(frozen=True)
class BinwiseSvd:
    """Full SVD factors at every bin of a uniform frequency grid."""

    omegas: np.ndarray  # (K,)
    U: np.ndarray       # (K, M, M)
    sigma: np.ndarray   # (K, R), R = min(M, L), descending per bin
    V: np.ndarray       # (K, L, L)

    @property
    def n_bins(self) -> int:
        return self.omegas.size

    @property
    def n_tracks(self) -> int:
        return self.sigma.shape[1]

    def result(self, k: int) -> densela.SvdResult:
        """Materialize the k-th bin as a plain SvdResult."""
        return densela.SvdResult(U=self.U[k], sigma=self.sigma[k], V=self.V[k])


@dataclass
class SvTrajectories:
    """Singular-value tracks over the grid.

    values is (R, K).  In smooth mode, permutations[k] maps each track to
    the majorized bin index it took at bin k, signs holds the applied sign
    per track and bin, and U/V hold the phase-aligned singular vectors of
    each track (columns ordered by track).  wrap_permutation/wrap_signs
    report how the tracks would continue from the last bin back into bin 0;
    wrap consistency is reported, never enforced.
    """

    mode: str  # "majorized" | "smooth"
    omegas: np.ndarray
    values: np.ndarray
    permutations: Optional[np.ndarray] = None  # (K, R) int
    signs: Optional[np.ndarray] = None         # (R, K) in {-1, +1}
    U: Optional[np.ndarray] = field(default=None, repr=False)  # (K, M, R)
    V: Optional[np.ndarray] = field(default=None, repr=False)  # (K, L, R)
    wrap_permutation: Optional[np.ndarray] = None
    wrap_signs: Optional[np.ndarray] = None

    @property
    def n_bins(self) -> int:
        return self.omegas.size

    @property
    def n_tracks(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Exact grid minima of the majorized trajectories.

    min_gap is the minimum over bins and adjacent track pairs of
    values[m] - values[m+1]; min_smallest is the minimum of the last track.
    Both carry the frequency at which they occur.  gap_curves keeps the
    per-pair gap curves for plotting.  min_gap is None for single-track
    systems.
    """

    min_gap: Optional[float]
    omega_min_gap: Optional[float]
    min_smallest: float
    omega_min_smallest: float
    gap_curves: np.ndarray  # (R-1, K)
    omegas: np.ndarray


def binwise_svd(a: PolyMatrix, n_bins: int) -> BinwiseSvd:
    """SVD of A(e^{j omega_k}) at omega_k = 2 pi k / K.

    K should comfortably exceed twice the order span of ``a`` for the
    smooth association to be reliable; K >= 1 is accepted.
    """
    grid = a.eval_grid(n_bins)
    u, s, v = densela.svd_stack(grid)
    omegas = 2.0 * np.pi * np.arange(n_bins) / n_bins
    return BinwiseSvd(omegas=omegas, U=u, sigma=s, V=v)


def majorized_trajectories(bins: BinwiseSvd) -> SvTrajectories:
    """Per-bin descending nonnegative tracks; no cross-bin reassociation."""
    return SvTrajectories(
        mode="majorized",
        omegas=bins.omegas.copy(),
        values=bins.sigma.T.copy(),
    )


def _greedy_match(score: np.ndarray):
    """Assign tracks (rows) to bin indices (cols) by descending score.

    Returns (perm, ambiguous): perm[m] is the column picked for row m;
    ambiguous is True when some pick beat its best available alternative
    by less than AMBIGUITY_MARGIN.

    Fast path: when the row argmaxes form a permutation and every pick
    beats the other entries of its row by AMBIGUITY_MARGIN, the elimination
    below takes exactly those picks, largest first, and finds none
    ambiguous: a column rival of the pick taken lies in the row of a
    smaller pick, so it is at least AMBIGUITY_MARGIN below that pick too.
    """
    r = score.shape[0]
    rows = np.arange(r)
    perm = score.argmax(axis=1)
    if len(set(perm.tolist())) == r:
        others = score.copy()
        others[rows, perm] = -np.inf
        if (score[rows, perm] - others.max(axis=1)).min() >= AMBIGUITY_MARGIN:
            return perm, False
    sc = score.copy()
    perm = np.full(r, -1, dtype=int)
    ambiguous = False
    for _ in range(r):
        m, i = np.unravel_index(np.argmax(sc), sc.shape)
        best = sc[m, i]
        sc[m, i] = -np.inf
        alt = max(sc[m, :].max(), sc[:, i].max())
        if np.isfinite(alt) and best - alt < AMBIGUITY_MARGIN:
            ambiguous = True
        perm[m] = i
        sc[m, :] = -np.inf
        sc[:, i] = -np.inf
    return perm, ambiguous


def _phase_aligned(g: np.ndarray, perm: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Columns perm of (u, v), each pair rotated by the unit phase that makes
    its overlap g[m, perm[m]] with the previous left vector real positive."""
    c = g[np.arange(perm.size), perm]
    mag = np.abs(c)
    phase = np.divide(c.conj(), mag, out=np.ones_like(c), where=mag > 0.0)
    return u.take(perm, axis=1) * phase, v.take(perm, axis=1) * phase


def _flipped(v_ref: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per column: Re <v_ref, v> < 0."""
    return np.einsum("ij,ij->j", v_ref.conj(), v).real < 0.0


def smooth_trajectories(bins: BinwiseSvd) -> SvTrajectories:
    """Associate bin-wise singular triples into continuous signed tracks.

    Per bin k (sequentially from bin 0), for all tracks at once:

    1. match bin-k triples to the bin-(k-1) tracks greedily, in descending
       order of the left-singular-vector overlap |<u_prev, u_cur>|;
    2. rotate (u_cur, v_cur) by the common unit phase that makes
       <u_prev, u_cur> real and positive;
    3. if Re <v_ref, v_cur> < 0 for the track's reference right vector,
       negate v_cur and the singular value at this bin (a sign change of
       the underlying analytic singular value);
    4. record the permutation and sign.

    The reference right vector is refreshed only at bins where the track's
    singular value is well above the bin's noise floor: at (near-)zero
    values the u-v pairing phase returned by the dense SVD is meaningless,
    and refreshing there would randomize the sign tracking across a zero
    crossing.  Bins with ambiguous matches keep the previous permutation
    and refresh nothing; an AssociationAmbiguous warning summarizes them.

    The result is one representative of the sign/permutation equivalence
    class of the analytic singular values: per-track global sign and track
    order are not canonical.
    """
    k_bins = bins.n_bins
    r = bins.n_tracks
    signs = np.ones((r, k_bins))
    perms = np.empty((k_bins, r), dtype=int)
    u_al = np.empty((k_bins, bins.U.shape[1], r), dtype=np.complex128)
    v_al = np.empty((k_bins, bins.V.shape[1], r), dtype=np.complex128)

    perms[0] = np.arange(r)
    u_al[0] = bins.U[0][:, :r]
    v_al[0] = bins.V[0][:, :r]

    smax = bins.sigma.max(axis=1)
    floors = _SIGN_REF_REL_FLOOR * np.where(smax > 0, smax, 1.0)
    u_prev = u_al[0]
    v_ref = v_al[0].copy()
    has_ref = bins.sigma[0] > floors[0]

    ambiguous_bins = []
    for k in range(1, k_bins):
        g = u_prev.conj().T @ bins.U[k][:, :r]
        perm, ambiguous = _greedy_match(np.abs(g))
        if ambiguous:
            ambiguous_bins.append(k)
            perm = perms[k - 1]
        perms[k] = perm
        u, v = _phase_aligned(g, perm, bins.U[k], bins.V[k])
        sign = np.where(has_ref, np.where(_flipped(v_ref, v), -1.0, 1.0),
                        signs[:, k - 1])
        v *= sign
        signs[:, k] = sign
        u_al[k] = u
        v_al[k] = v
        if not ambiguous:
            u_prev = u
            refresh = bins.sigma[k][perm] > floors[k]
            np.copyto(v_ref, v, where=refresh)
            has_ref |= refresh
    values = signs * np.take_along_axis(bins.sigma, perms, axis=1).T

    # wrap-around step: continue from the last bin back into bin 0
    g = u_prev.conj().T @ bins.U[0][:, :r]
    wrap_perm, _ = _greedy_match(np.abs(g))
    _, v = _phase_aligned(g, wrap_perm, bins.U[0], bins.V[0])
    wrap_signs = np.where(has_ref & _flipped(v_ref, v), -1.0, 1.0)

    if ambiguous_bins:
        first = ambiguous_bins[0]
        warnings.warn(
            AssociationAmbiguous(
                f"ambiguous track association at {len(ambiguous_bins)} of "
                f"{k_bins} bins (first at bin {first}, omega="
                f"{bins.omegas[first]:.6f}); kept previous track order there"
            ),
            stacklevel=2,
        )

    return SvTrajectories(
        mode="smooth",
        omegas=bins.omegas.copy(),
        values=values,
        permutations=perms,
        signs=signs,
        U=u_al,
        V=v_al,
        wrap_permutation=wrap_perm,
        wrap_signs=wrap_signs,
    )


def diagnostics(traj: SvTrajectories) -> DiagnosticsReport:
    """Grid minima of adjacent-track gaps and of the smallest track.

    Majorized mode only: the gap structure is meaningful for descending
    nonnegative values.
    """
    if traj.mode != "majorized":
        raise ValueError("diagnostics require majorized-mode trajectories")
    vals = traj.values
    r, _ = vals.shape
    last = vals[r - 1]
    k_small = int(np.argmin(last))
    if r >= 2:
        gaps = vals[:-1] - vals[1:]
        flat = int(np.argmin(gaps))
        _, k_gap = np.unravel_index(flat, gaps.shape)
        min_gap = float(gaps.reshape(-1)[flat])
        omega_gap = float(traj.omegas[k_gap])
    else:
        gaps = np.empty((0, vals.shape[1]))
        min_gap = None
        omega_gap = None
    return DiagnosticsReport(
        min_gap=min_gap,
        omega_min_gap=omega_gap,
        min_smallest=float(last[k_small]),
        omega_min_smallest=float(traj.omegas[k_small]),
        gap_curves=gaps,
        omegas=traj.omegas.copy(),
    )


def interp_linear(traj: SvTrajectories, omega: float) -> np.ndarray:
    """Per-track linear interpolation between neighboring bins, 2 pi wrapped."""
    k_bins = traj.n_bins
    pos = (float(omega) % (2.0 * np.pi)) * k_bins / (2.0 * np.pi)
    near = round(pos)
    if abs(pos - near) < 1e-9:
        return traj.values[:, int(near) % k_bins].copy()
    k0 = int(np.floor(pos)) % k_bins
    k1 = (k0 + 1) % k_bins
    frac = pos - np.floor(pos)
    return (1.0 - frac) * traj.values[:, k0] + frac * traj.values[:, k1]


def write_trajectory_csv(traj: SvTrajectories, fh, extra: Optional[dict] = None,
                         meta_line: Optional[str] = None) -> None:
    """Write `omega,track_1,...,track_R[,extra...],mode` rows at 17 digits.

    ``extra`` maps column names to (R_extra, K) arrays appended between the
    tracks and the mode column; ``meta_line`` is emitted verbatim first.
    """
    w = csv.writer(fh, lineterminator="\n")
    if meta_line is not None:
        fh.write(meta_line + "\n")
    header = ["omega"] + [f"track_{m + 1}" for m in range(traj.n_tracks)]
    extra = extra or {}
    for name, arr in extra.items():
        header += [f"{name}_{m + 1}" for m in range(arr.shape[0])]
    header.append("mode")
    w.writerow(header)
    for k in range(traj.n_bins):
        row = [f"{traj.omegas[k]:.17g}"]
        row += [f"{traj.values[m, k]:.17g}" for m in range(traj.n_tracks)]
        for arr in extra.values():
            row += [f"{arr[m, k]:.17g}" for m in range(arr.shape[0])]
        row.append(traj.mode)
        w.writerow(row)
