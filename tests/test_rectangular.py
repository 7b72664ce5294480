"""Rectangular ground truths (M != N) through the whole bin-wise pipeline:
binwise_svd, smooth_trajectories, reference_tracks, perturb_and_analyze."""

import numpy as np
import pytest

from polysvd import (
    PerturbConfig,
    SeededRng,
    aligned_vectors,
    binwise_svd,
    majorized_trajectories,
    perturb_and_analyze,
    reference_tracks,
    smooth_trajectories,
    track_deviation,
)
from polysvd import perturb
from polysvd.sysgen import assemble, random_paraunitary, random_parahermitian_scalar

K = 1024
SHAPES = [(3, 2), (2, 3)]


def rectangular(rows, cols, seed):
    """assemble(order-3 paraunitary U, 4-tap scalars, order-3 paraunitary V)."""
    g = SeededRng(seed).generator()
    u = random_paraunitary(rows, 3, g)
    v = random_paraunitary(cols, 3, g)
    sigmas = [random_parahermitian_scalar(4, g) for _ in range(min(rows, cols))]
    return assemble(u, sigmas, v)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", SHAPES, ids=["3x2", "2x3"])
class TestRectangular:
    def test_smooth_tracks(self, shape, seed):
        sys_ = rectangular(*shape, seed)
        bins = binwise_svd(sys_.A, K)
        r = min(shape)
        assert bins.U.shape == (K, shape[0], shape[0])
        assert bins.V.shape == (K, shape[1], shape[1])
        smooth = smooth_trajectories(bins)
        assert smooth.values.shape == (r, K)
        u, v = aligned_vectors(bins, smooth)
        assert u.shape == (K, shape[0], r) and v.shape == (K, shape[1], r)
        mags = -np.sort(-np.abs(smooth.values), axis=0)
        assert np.abs(mags - bins.sigma.T).max() <= 1e-12 * bins.sigma.max()
        # the signed tracks are the generator scalars, up to order and sign
        truth = np.stack([np.real(s.eval_grid(K)[:, 0, 0]) for s in sys_.sigmas])
        assert track_deviation(smooth.values, truth) <= 1e-12 * bins.sigma.max()

    def test_reference_tracks(self, shape, seed):
        sys_ = rectangular(*shape, seed)
        majorized = majorized_trajectories(binwise_svd(sys_.A, K, vectors=False))
        assert np.abs(reference_tracks(sys_, K) - majorized.values).max() <= 1e-9

    def test_perturbed_tracks_within_weyl_bound(self, shape, seed):
        sys_ = rectangular(*shape, seed)
        cfg = PerturbConfig(trials=2, n_bins=K, seed=seed, sigma2_norm=1e-4)
        results, traj = perturb_and_analyze(sys_, cfg)
        assert traj.values.shape == (min(shape), K)
        assert all(r.report.min_gap > 0 and r.report.min_smallest > 0
                   for r in results)
        # the last trial's error, redrawn from its stream
        rng = SeededRng(cfg.seed, stream=cfg.trials - 1).generator()
        err = perturb.scale_to_normalized(
            perturb.random_error(*shape, sys_.A.order, 1.0, rng), sys_.A,
            cfg.sigma2_norm)
        bound = np.linalg.norm(err.eval_grid(K), axis=(1, 2))
        dev = np.abs(traj.values - reference_tracks(sys_, K))
        assert np.all(dev <= bound + 1e-12)
