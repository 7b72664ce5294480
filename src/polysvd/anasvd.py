"""Bin-wise SVD over a frequency grid and singular-value trajectory tracking.

Two views of the singular values of A(e^{j omega}) on a uniform grid:

* majorized: per-bin descending, nonnegative values (the ordinary SVD order);
* smooth: signed tracks associated across bins so that each track follows
  one continuous singular-value function, which may cross zero and other
  tracks.

The smooth association runs in two batched stages.  First every bin is
matched: a clear match against the bin before it, tested for all adjacent
pairs at once, or else the greedy match against its reference, the last
non-ambiguous bin.  Then one pass composes the matches into track orders,
phases and signs.  Diagnostics extract the minimum track gap and the
minimum smallest value over the grid.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
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

# Bins per batched product in smooth association, and rows per `%` call of
# the CSV writer `_write_rows`: bounds their temporaries.
_BLOCK = 512


class AssociationAmbiguous(UserWarning):
    """Smooth association could not clearly separate candidate matches.

    Signals a grid that is too coarse for the subspace rotation between
    adjacent bins, or an exact algebraic multiplicity in the underlying
    system.  Not fatal: the affected bins keep the previous track order.
    """


@dataclass(frozen=True)
class BinwiseSvd:
    """SVD factors at every bin of a uniform frequency grid.

    U and V are None when the grid was decomposed without singular vectors.
    """

    omegas: np.ndarray            # (K,)
    U: Optional[np.ndarray]       # (K, M, M)
    sigma: np.ndarray             # (K, R), R = min(M, L), descending per bin
    V: Optional[np.ndarray]       # (K, L, L)

    @property
    def n_bins(self) -> int:
        return self.omegas.size

    @property
    def n_tracks(self) -> int:
        return self.sigma.shape[1]


@dataclass
class SvTrajectories:
    """Singular-value tracks over the grid.

    values is (R, K).  In smooth mode, permutations[k] maps each track to
    the majorized bin index it took at bin k, phases[k] holds the unit
    phase that aligns each track's singular vectors at bin k with the
    track's left vector at its reference bin, and the sign bit of
    values[m, k] is the sign applied to track m at bin k, -0.0 included
    (np.copysign(1.0, values)).  aligned_vectors(bins, traj) rebuilds from
    these the phase-aligned, signed singular vectors of each track.
    ambiguous_bins lists, in ascending order, the bins whose association
    was ambiguous (empty when there are none).
    """

    mode: str  # "majorized" | "smooth"
    omegas: np.ndarray
    values: np.ndarray
    permutations: Optional[np.ndarray] = None  # (K, R) int
    phases: Optional[np.ndarray] = None        # (K, R) complex, |.| = 1
    ambiguous_bins: Optional[np.ndarray] = None  # (n,) int

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
    Both carry the frequency at which they occur.  min_gap is None for
    single-track systems.
    """

    min_gap: Optional[float]
    omega_gap: Optional[float]
    min_smallest: float
    omega_smallest: float


def binwise_svd(a: PolyMatrix, n_bins: int, vectors: bool = True) -> BinwiseSvd:
    """SVD of A(e^{j omega_k}) at omega_k = 2 pi k / K.

    K should comfortably exceed twice the order span of ``a`` for the
    smooth association to be reliable; K >= 1 is accepted.  With
    ``vectors=False`` only the singular values are computed and U and V
    are None: enough for the majorized trajectories and their diagnostics,
    not for smooth association.
    """
    grid = a.eval_grid(n_bins)
    u, s, v = densela.svd_stack(grid, vectors=vectors)
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
    """
    r = score.shape[0]
    sc = score.copy()
    perm = np.full(r, -1, dtype=int)
    ambiguous = False
    for _ in range(r):
        m, i = np.unravel_index(np.argmax(sc), sc.shape)
        best = sc[m, i]
        sc[m, i] = -np.inf
        alt = max(sc[m, :].max(), sc[:, i].max())
        if best - alt < AMBIGUITY_MARGIN:
            ambiguous = True
        perm[m] = i
        sc[m, :] = -np.inf
        sc[:, i] = -np.inf
    return perm, ambiguous


def _unit(c: np.ndarray) -> np.ndarray:
    """conj(c) / |c| elementwise, 1 where c is zero."""
    mag = np.abs(c)
    return np.divide(c.conj(), mag, out=np.ones_like(c), where=mag > 0.0)


def _adjacent_matches(u: np.ndarray):
    """The clear-match test applied to every pair of adjacent bins.

    u is (K, M, R).  For k >= 1, with S_k = |u[k-1]^H u[k]|, returns the row
    argmaxes a[k] of S_k, fast[k] telling whether they form a permutation
    whose every pick beats the rest of its row by AMBIGUITY_MARGIN, and w[k],
    the unit phase conj(d)/|d| of each picked overlap d.  Bin 0 starts the
    tracks: a[0] is the identity and w[0] is 1.  The products run over
    blocks of _BLOCK bins to keep temporaries small.

    Where fast[k] holds, _greedy_match(S_k) returns (a[k], False): its
    elimination takes exactly the argmax picks, largest first, and finds
    none ambiguous, since a column rival of the pick taken lies in the row
    of a smaller pick and so is at least AMBIGUITY_MARGIN below that pick
    too.
    """
    k_bins, _, r = u.shape
    a = np.empty((k_bins, r), dtype=int)
    a[0] = np.arange(r)
    w = np.ones((k_bins, r), dtype=np.complex128)
    fast = np.zeros(k_bins, dtype=bool)
    # flat index of entry (k, m, 0) of a block's overlaps, and of (k, 0) of
    # its (bin, column) table
    row_at = np.arange(0, _BLOCK * r * r, r).reshape(_BLOCK, r)
    bin_at = np.arange(0, _BLOCK * r, r)[:, None]
    for b0 in range(1, k_bins, _BLOCK):
        b1 = min(b0 + _BLOCK, k_bins)
        n = b1 - b0
        g = u[b0 - 1:b1 - 1].conj().transpose(0, 2, 1) @ u[b0:b1]
        score = np.abs(g)
        pick = score.argmax(axis=2)
        at = row_at[:n] + pick
        best = score.reshape(-1)[at]
        score.reshape(-1)[at] = -np.inf
        rival = score[:, :, 0].copy()  # the runner-up of each row
        for c in range(1, r):
            np.maximum(rival, score[:, :, c], out=rival)
        clear = (best - rival >= AMBIGUITY_MARGIN).all(axis=1)
        # r picks form a permutation when they take every column
        taken = np.zeros(n * r, dtype=bool)
        taken[bin_at[:n] + pick] = True
        a[b0:b1] = pick
        fast[b0:b1] = clear & taken.reshape(n, r).all(axis=1)
        w[b0:b1] = _unit(g.reshape(-1)[at])
    return a, w, fast


def _aligned_rows(x: np.ndarray, perms: np.ndarray, phases: np.ndarray,
                  k, m) -> np.ndarray:
    """The phase-aligned vectors of tracks m at bins k, as rows: column
    perms[k, m] of x[k] times phases[k, m], for index arrays k and m that
    broadcast together."""
    rows = x[k, :, perms[k, m]]
    rows *= phases[k, m][..., None]
    return rows


def _track_signs(v: np.ndarray, perms: np.ndarray, phases: np.ndarray,
                 refresh: np.ndarray) -> np.ndarray:
    """Signs (K, R) of the phase-aligned right vectors of the tracks: at bin
    k, track m takes column perms[k, m] of v[k] (K, L, L) times phases[k, m].

    refresh marks the bins where a track refreshes its reference; last[k]
    is the last refresh bin <= k (-1 for none).  A track's sign is +1 until
    it has a reference.  After that its reference at bin k is its last
    refresh bin r < k, and the sign is s_r, negated where Re <v[r], v[k]>
    < 0; an exact 0 keeps s_r.  The refresh bins chain to each other, so
    s_r is the parity of the negative steps along the chain: a cumulative
    count, exact.  The aligned vectors are gathered one block of _BLOCK
    bins at a time.
    """
    k_bins, r = perms.shape
    tracks = np.arange(r)
    last = np.maximum.accumulate(
        np.where(refresh, np.arange(k_bins)[:, None], -1), axis=0)
    x = np.zeros((k_bins, r))
    for b0 in range(1, k_bins, _BLOCK):
        b1 = min(b0 + _BLOCK, k_bins)
        v_ref = _aligned_rows(v, perms, phases,
                              np.maximum(last[b0 - 1:b1 - 1], 0), tracks)
        v_cur = _aligned_rows(v, perms, phases, np.arange(b0, b1)[:, None], tracks)
        x[b0:b1] = np.einsum("kji,kji->kj", v_ref.conj(), v_cur).real
    negative = x < 0.0  # bin 0 has no reference: x stays 0 there
    negative[1:] &= last[:-1] >= 0
    odd = np.zeros((k_bins, r), dtype=bool)  # the reference's sign is -1
    odd[1:] = np.bitwise_and(np.cumsum(refresh & negative, axis=0)[:-1], 1)
    return np.where(negative ^ odd, -1.0, 1.0)


def _associate(u: np.ndarray, r: int):
    """Track permutations and unit phases from the left vectors u (K, M, M).

    Returns (perms, phases, ambiguous): per bin the column each track takes
    and the phase that aligns it with the track's u_prev, and the mask of
    ambiguous bins.  a[k] maps the columns of bin k's reference, the last
    non-ambiguous bin before k, to bin k's, and w[k] holds the unit phases
    of the picks.  An ambiguous bin maps by the identity; its phase step
    multiplies its own phase only, outside the cumulative product, so that
    the next bin composes with the reference.
    """
    k_bins = u.shape[0]
    u = u[:, :, :r]
    tracks = np.arange(r)
    a, w, fast = _adjacent_matches(u)
    ambiguous = np.zeros(k_bins, dtype=bool)
    todo = (np.flatnonzero(~fast[1:]) + 1)[::-1].tolist()  # smallest bin last
    ref = 0
    while todo:
        k = todo.pop()
        if not ambiguous[k - 1]:
            ref = k - 1
        g = u[ref].conj().T @ u[k]
        a[k], ambiguous[k] = _greedy_match(np.abs(g))
        if ambiguous[k]:
            a[k] = tracks
            if k + 1 < k_bins and k + 1 not in todo[-1:]:
                todo.append(k + 1)
        w[k] = _unit(g[tracks, a[k]])

    perms = a
    row_at = np.arange(0, k_bins * r, r)[:, None]  # flat index of (k, 0)
    shift = 1
    while shift < k_bins:
        perms[shift:] = perms.reshape(-1)[perms[:-shift] + row_at[shift:]]
        shift *= 2
    phases = np.ones((k_bins, r), dtype=np.complex128)
    phases[1:] = w.reshape(-1)[perms[:-1] + row_at[1:]]
    own = phases[ambiguous]
    phases[ambiguous] = 1.0
    np.cumprod(phases, axis=0, out=phases)
    phases[ambiguous] *= own
    return perms, phases, ambiguous


def smooth_trajectories(bins: BinwiseSvd) -> SvTrajectories:
    """Associate bin-wise singular triples into continuous signed tracks.

    Per bin k, for all tracks at once, against the aligned left vectors
    u_prev of the last non-ambiguous bin before k (bin 0 included):

    1. match bin-k triples to the tracks greedily, in descending order of
       the left-singular-vector overlap |<u_prev, u_cur>|;
    2. record the common unit phase that makes <u_prev, u_cur> real and
       positive; it aligns (u_cur, v_cur) wherever they are read, but
       bins.U and bins.V are never rotated in place or copied aligned;
    3. give v_cur and the singular value at this bin the track's sign at
       its reference right vector v_ref, negated if Re <v_ref, v_cur> < 0
       (a sign change of the underlying analytic singular value) and kept
       if it is exactly 0; the sign is +1 while the track has no reference;
    4. record the permutation and the signed value.

    The reference right vector is refreshed only at bins where the track's
    singular value is well above the bin's noise floor: at (near-)zero
    values the u-v pairing phase returned by the dense SVD is meaningless,
    and refreshing there would randomize the sign tracking across a zero
    crossing.  Bins with ambiguous matches keep the previous permutation
    and refresh nothing; an AssociationAmbiguous warning summarizes them.

    The steps run in two batched stages.  The match stage gives every bin
    a column map from its reference, the last non-ambiguous bin before it,
    and the unit phases of the picked overlaps: from batched products of
    adjacent bins where their row argmaxes form a clear permutation (see
    _adjacent_matches), else from the greedy match on the raw overlap with
    the reference, in a Python loop that reads no permutation or phase.
    The compose stage chains maps and phases over all bins at once (see
    _associate).  Signs follow from the refresh chain as a cumulative
    count of negative steps (see _track_signs).

    The aligned vectors, which the association itself reads only one
    block or bin at a time, are rebuilt on demand by aligned_vectors.

    The result is one representative of the sign/permutation equivalence
    class of the analytic singular values: per-track global sign and track
    order are not canonical.
    """
    if bins.U is None:
        raise ValueError("smooth association needs the singular vectors "
                         "(binwise_svd with vectors=True)")
    k_bins = bins.n_bins
    r = bins.n_tracks
    perms, phases, ambiguous = _associate(bins.U, r)
    k = np.arange(k_bins)[:, None]
    sigma = bins.sigma.reshape(-1)[perms + k * r]
    smax = bins.sigma.max(axis=1, keepdims=True)
    refresh = ~ambiguous[:, None] & (sigma > _SIGN_REF_REL_FLOOR * smax)
    signs = _track_signs(bins.V, perms, phases, refresh)
    values = signs.T * sigma.T

    ambiguous_bins = np.flatnonzero(ambiguous)
    if ambiguous_bins.size:
        first = ambiguous_bins[0]
        warnings.warn(
            AssociationAmbiguous(
                f"ambiguous track association at {ambiguous_bins.size} of "
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
        phases=phases,
        ambiguous_bins=ambiguous_bins,
    )


def aligned_vectors(bins: BinwiseSvd, traj: SvTrajectories):
    """The phase-aligned, signed singular vectors of the smooth tracks.

    Returns (U, V), (K, M, R) and (K, L, R): column m at bin k is the
    column permutations[k, m] of bins.U[k] (bins.V[k]) times phases[k, m],
    and for V also times the sign of values[m, k], so that
    U[k] diag(values[:, k]) V[k]^H is A at bin k.  Both are transposed
    views of C-ordered (K, R, M) and (K, R, L) arrays, so each track's
    vector at a bin is contiguous.  ``bins`` must be the grid ``traj`` was tracked on.
    """
    if traj.mode != "smooth" or traj.n_bins != bins.n_bins:
        raise ValueError("aligned vectors need smooth-mode trajectories "
                         "tracked on the same grid")
    if bins.U is None:
        raise ValueError("aligned vectors need the singular vectors "
                         "(binwise_svd with vectors=True)")
    k = np.arange(bins.n_bins)[:, None]
    tracks = np.arange(traj.n_tracks)
    u = _aligned_rows(bins.U, traj.permutations, traj.phases, k, tracks)
    v = _aligned_rows(bins.V, traj.permutations, traj.phases, k, tracks)
    v *= np.copysign(1.0, traj.values).T[:, :, None]
    return u.transpose(0, 2, 1), v.transpose(0, 2, 1)


def diagnostics(traj: SvTrajectories) -> DiagnosticsReport:
    """Grid minima of adjacent-track gaps and of the smallest track.

    Majorized mode only: the gap structure is meaningful for descending
    nonnegative values.
    """
    if traj.mode != "majorized":
        raise ValueError("diagnostics require majorized-mode trajectories")
    vals = traj.values
    last = vals[-1]
    k_small = int(np.argmin(last))
    min_gap = omega_gap = None
    if vals.shape[0] >= 2:
        gaps = vals[:-1] - vals[1:]
        flat = int(np.argmin(gaps))
        _, k_gap = np.unravel_index(flat, gaps.shape)
        min_gap = float(gaps.reshape(-1)[flat])
        omega_gap = float(traj.omegas[k_gap])
    return DiagnosticsReport(
        min_gap=min_gap,
        omega_gap=omega_gap,
        min_smallest=float(last[k_small]),
        omega_smallest=float(traj.omegas[k_small]),
    )


def track_deviation(values: np.ndarray, reference: np.ndarray) -> float:
    """Max deviation of tracks from reference tracks, both (R, K), minimized
    over track permutation and per-track global sign.  Raises ValueError
    unless both have the same (R, K) shape, and for R > 10, whose R!
    permutations are too many to enumerate.

    cost[p, m] is the smaller sup deviation of track p or of its negation
    from reference m; the result is the minimum over permutations of the
    largest cost[perm[m], m].
    """
    values, reference = np.asarray(values), np.asarray(reference)
    if values.ndim != 2 or values.shape != reference.shape:
        raise ValueError(f"tracks of shape {values.shape} do not match "
                         f"reference tracks of shape {reference.shape}")
    r = values.shape[0]
    if r > 10:
        raise ValueError(f"{r} tracks are too many to enumerate; at most 10")
    v, f = values[:, None, :], reference[None, :, :]
    cost = np.minimum(np.abs(v - f).max(axis=2), np.abs(v + f).max(axis=2))
    perms = np.array(list(itertools.permutations(range(r))))
    return float(cost[perms, np.arange(r)].max(axis=1).min())


def write_trajectory_csv(traj: SvTrajectories, fh, extra: Optional[dict] = None,
                         meta_line: Optional[str] = None) -> None:
    """Write ``traj`` through `_write_rows` as `omega,track_1,...,track_R,
    [extra...,]mode`; ``extra`` maps names to (R_extra, K) arrays."""
    extra = extra or {}
    names = ["omega"] + [f"track_{m + 1}" for m in range(traj.n_tracks)]
    for name, arr in extra.items():
        names += [f"{name}_{m + 1}" for m in range(arr.shape[0])]
    _write_rows(fh, names + ["mode"],
                np.vstack([traj.omegas, traj.values, *extra.values()]).T,
                meta_line, tail="," + traj.mode)


def _write_rows(fh, names: list, table: np.ndarray,
                meta_line: Optional[str] = None, tail: str = "") -> None:
    """The package's one CSV writer: ``meta_line`` if given, the header
    ``names``, then each row of the 2-D ``table`` as ``%.17g`` cells and
    ``tail``.  ``%.17g`` reads back bitwise and prints integers below 1e17
    as plain digits."""
    fh.write(("" if meta_line is None else meta_line + "\n") + ",".join(names) + "\n")
    fmt = ",".join(["%.17g"] * table.shape[1]) + tail + "\n"
    for b0 in range(0, table.shape[0], _BLOCK):
        block = table[b0:b0 + _BLOCK]
        fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))
