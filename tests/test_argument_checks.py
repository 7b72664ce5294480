"""Argument checks of the library functions: each refusal and its message."""

import re

import numpy as np
import pytest

from polysvd import (
    PerturbConfig,
    PolyMatrix,
    SeededRng,
    WienerEstimate,
    bin_histogram_trials,
    binwise_svd,
    example1,
    mse_decomposition,
    random_error,
    reference_tracks,
    scale_to_normalized,
    simulate,
    stewart_bounds,
)
from polysvd.sysgen import assemble, random_paraunitary, random_parahermitian_scalar
from polysvd.sysid import SignalFrame, wiener_estimate

EX1 = example1()
RNG = SeededRng(0)
SCALAR = PolyMatrix(np.ones((1, 1, 1)))
NOT_PU = PolyMatrix(2.0 * np.eye(2)[:, :, None])
JSON_3X2 = {**EX1.A.to_json_dict(), "M": 3}
FRAME = SignalFrame(np.zeros((2, 10)), np.zeros((2, 10)), 0.0)
NAN, INF = float("nan"), float("inf")

CASES = [
    ("PerturbConfig-level", lambda: PerturbConfig(sigma2_norm=-1e-4),
     "sigma2_norm = -0.0001 must be finite and >= 0"),
    ("PerturbConfig-sigma2_norm-nan", lambda: PerturbConfig(sigma2_norm=NAN),
     "sigma2_norm = nan must be finite and >= 0"),
    ("PerturbConfig-sigma2_e-inf", lambda: PerturbConfig(sigma2_e=INF),
     "sigma2_e = inf must be finite and >= 0"),
    ("PerturbConfig-sigma2_e-negative", lambda: PerturbConfig(sigma2_e=-2.0),
     "sigma2_e = -2.0 must be finite and >= 0"),
    ("PerturbConfig-trials", lambda: PerturbConfig(trials=-1, sigma2_e=1e-4),
     "trials must be >= 1"),
    ("PerturbConfig-n_bins", lambda: PerturbConfig(n_bins=0, sigma2_e=1e-4),
     "n_bins must be >= 1"),
    ("PerturbConfig-seed", lambda: PerturbConfig(seed=-1, sigma2_e=1e-4),
     "seed must be >= 0"),
    ("PerturbConfig-error_order", lambda: PerturbConfig(error_order=-1, sigma2_e=1e-4),
     "error_order must be >= 0"),
    ("random_error-sigma2_e", lambda: random_error(2, 2, 1, -1.0, RNG),
     "sigma2_e = -1.0 must be finite and >= 0"),
    ("random_error-sigma2_e-nan", lambda: random_error(2, 2, 1, NAN, RNG),
     "sigma2_e = nan must be finite and >= 0"),
    ("random_error-sigma2_e-inf", lambda: random_error(2, 2, 1, INF, RNG),
     "sigma2_e = inf must be finite and >= 0"),
    ("random_error-order", lambda: random_error(2, 2, -1, 1.0, RNG),
     "order must be >= 0"),
    ("scale_to_normalized-target", lambda: scale_to_normalized(EX1.A, EX1.A, -1.0),
     "target = -1.0 must be finite and >= 0"),
    ("scale_to_normalized-target-nan", lambda: scale_to_normalized(EX1.A, EX1.A, NAN),
     "target = nan must be finite and >= 0"),
    ("scale_to_normalized-target-inf", lambda: scale_to_normalized(EX1.A, EX1.A, INF),
     "target = inf must be finite and >= 0"),
    ("bin_histogram_trials-trials", lambda: bin_histogram_trials(EX1, np.pi, 0, 1e-4, RNG),
     "trials must be >= 1"),
    ("bin_histogram_trials-trials-negative",
     lambda: bin_histogram_trials(EX1, np.pi, -5, 1e-4, RNG), "trials must be >= 1"),
    ("bin_histogram_trials-sigma2_e-nan",
     lambda: bin_histogram_trials(EX1, np.pi, 100, NAN, RNG),
     "sigma2_e = nan must be finite and >= 0"),
    ("bin_histogram_trials-sigma2_e-inf",
     lambda: bin_histogram_trials(EX1, np.pi, 100, INF, RNG),
     "sigma2_e = inf must be finite and >= 0"),
    ("bin_histogram_trials-sigma2_e-negative",
     lambda: bin_histogram_trials(EX1, np.pi, 100, -1e-4, RNG),
     "sigma2_e = -0.0001 must be finite and >= 0"),
    ("PolyMatrix.constant-1d", lambda: PolyMatrix.constant(np.ones(2)),
     "constant() expects a 2-D matrix"),
    ("eval_grid-0", lambda: EX1.A.eval_grid(0), "n_bins must be >= 1"),
    ("eval_grid-negative", lambda: EX1.A.eval_grid(-16), "n_bins must be >= 1"),
    ("trim-negative", lambda: EX1.A.trim(-1.0), "tol = -1.0 must be finite and >= 0"),
    ("trim-nan", lambda: EX1.A.trim(NAN), "tol = nan must be finite and >= 0"),
    ("trim-inf", lambda: EX1.A.trim(INF), "tol = inf must be finite and >= 0"),
    ("is_parahermitian-non-square", lambda: PolyMatrix(np.ones((2, 3, 1))).is_parahermitian(),
     "parahermitian check requires a square matrix"),
    ("from_json_dict-shape", lambda: PolyMatrix.from_json_dict(JSON_3X2),
     "coeffs shape disagrees with M, L"),
    ("random_paraunitary-order", lambda: random_paraunitary(2, -1, RNG),
     "order must be >= 0"),
    ("random_parahermitian_scalar-length", lambda: random_parahermitian_scalar(0, RNG),
     "length must be >= 1"),
    ("random_parahermitian_scalar-length-negative",
     lambda: random_parahermitian_scalar(-3, RNG), "length must be >= 1"),
    ("assemble-sigma-count", lambda: assemble(EX1.U, EX1.sigmas[:1], EX1.V),
     "need 2 scalar singular values"),
    ("assemble-V", lambda: assemble(EX1.U, EX1.sigmas, NOT_PU),
     "V is not paraunitary"),
    ("assemble-sigma-shape", lambda: assemble(EX1.U, (EX1.A, SCALAR), EX1.V),
     "sigma 0 must be 1x1"),
    ("wiener_estimate-j_hat", lambda: wiener_estimate(FRAME, -1), "j_hat must be >= 0"),
    ("wiener_estimate-reg-nan", lambda: wiener_estimate(FRAME, 0, reg=np.nan),
     "reg = nan must be finite and >= 0"),
    ("wiener_estimate-reg-inf", lambda: wiener_estimate(FRAME, 0, reg=np.inf),
     "reg = inf must be finite and >= 0"),
    ("wiener_estimate-reg-negative", lambda: wiener_estimate(FRAME, 0, reg=-1.0),
     "reg = -1.0 must be finite and >= 0"),
    ("SignalFrame-1d", lambda: SignalFrame(x=np.zeros(5), y=np.zeros(5), sigma2_v=0.0),
     "x and y must be 2-D, got 1-D and 1-D"),
    ("SignalFrame-3d-y", lambda: SignalFrame(np.zeros((2, 5)), np.zeros((2, 5, 1)), 0.0),
     "x and y must be 2-D, got 2-D and 3-D"),
    ("SignalFrame-sigma2_v-nan", lambda: SignalFrame(np.zeros((2, 5)), np.zeros((2, 5)), np.nan),
     "sigma2_v = nan must be finite and >= 0"),
    ("SignalFrame-sigma2_v-inf", lambda: SignalFrame(np.zeros((2, 5)), np.zeros((2, 5)), np.inf),
     "sigma2_v = inf must be finite and >= 0"),
    ("SignalFrame-sigma2_v-negative",
     lambda: SignalFrame(np.zeros((2, 5)), np.zeros((2, 5)), -0.5),
     "sigma2_v = -0.5 must be finite and >= 0"),
    ("simulate-sigma2_v-nan", lambda: simulate(EX1, 300, NAN, RNG),
     "sigma2_v = nan must be finite and >= 0"),
    ("simulate-sigma2_v-inf", lambda: simulate(EX1, 300, INF, RNG),
     "sigma2_v = inf must be finite and >= 0"),
    ("simulate-sigma2_v-negative", lambda: simulate(EX1, 300, -1.0, RNG),
     "sigma2_v = -1.0 must be finite and >= 0"),
]


@pytest.mark.parametrize("call, message", [(c, m) for _, c, m in CASES],
                         ids=[name for name, _, _ in CASES])
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


INTEGER_CASES = [
    ("simulate-n_samples-float", lambda: simulate(EX1, 1000.0, 0.0, RNG),
     "n_samples must be an integer, got 1000.0"),
    ("simulate-n_samples-str", lambda: simulate(EX1, "300", 0.0, RNG),
     "n_samples must be an integer, got '300'"),
    ("wiener_estimate-j_hat-float", lambda: wiener_estimate(FRAME, 2.0),
     "j_hat must be an integer, got 2.0"),
    ("wiener_estimate-j_hat-None", lambda: wiener_estimate(FRAME, None),
     "j_hat must be an integer, got None"),
    ("wiener_estimate-j_hat-nan", lambda: wiener_estimate(FRAME, NAN),
     "j_hat must be an integer, got nan"),
    ("simulate-n_samples-inf", lambda: simulate(EX1, INF, 0.0, RNG),
     "n_samples must be an integer, got inf"),
    ("eval_grid-float", lambda: EX1.A.eval_grid(16.0), "n_bins must be an integer, got 16.0"),
    ("eval_grid-nan", lambda: EX1.A.eval_grid(NAN), "n_bins must be an integer, got nan"),
    ("eval_grid-inf", lambda: EX1.A.eval_grid(INF), "n_bins must be an integer, got inf"),
    ("binwise_svd-float", lambda: binwise_svd(EX1.A, 16.0),
     "n_bins must be an integer, got 16.0"),
    ("reference_tracks-float", lambda: reference_tracks(EX1, 16.0),
     "n_bins must be an integer, got 16.0"),
    ("PerturbConfig-trials-nan", lambda: PerturbConfig(trials=NAN, sigma2_e=1e-4),
     "trials must be an integer, got nan"),
    ("PerturbConfig-n_bins-inf", lambda: PerturbConfig(n_bins=INF, sigma2_e=1e-4),
     "n_bins must be an integer, got inf"),
    ("random_error-order-float", lambda: random_error(2, 2, 1.5, 1.0, RNG),
     "order must be an integer, got 1.5"),
    ("random_error-order-nan", lambda: random_error(2, 2, NAN, 1.0, RNG),
     "order must be an integer, got nan"),
    ("random_error-order-inf", lambda: random_error(2, 2, INF, 1.0, RNG),
     "order must be an integer, got inf"),
    ("bin_histogram_trials-trials-float",
     lambda: bin_histogram_trials(EX1, np.pi, 100.0, 1e-4, RNG),
     "trials must be an integer, got 100.0"),
    ("bin_histogram_trials-trials-nan",
     lambda: bin_histogram_trials(EX1, np.pi, NAN, 1e-4, RNG),
     "trials must be an integer, got nan"),
    ("bin_histogram_trials-trials-inf",
     lambda: bin_histogram_trials(EX1, np.pi, INF, 1e-4, RNG),
     "trials must be an integer, got inf"),
    ("random_paraunitary-order-float", lambda: random_paraunitary(2, 2.0, RNG),
     "order must be an integer, got 2.0"),
    ("random_paraunitary-order-nan", lambda: random_paraunitary(2, NAN, RNG),
     "order must be an integer, got nan"),
    ("random_paraunitary-order-inf", lambda: random_paraunitary(2, INF, RNG),
     "order must be an integer, got inf"),
    ("random_parahermitian_scalar-length-float",
     lambda: random_parahermitian_scalar(3.0, RNG), "length must be an integer, got 3.0"),
    ("random_parahermitian_scalar-length-nan",
     lambda: random_parahermitian_scalar(NAN, RNG), "length must be an integer, got nan"),
    ("random_parahermitian_scalar-length-inf",
     lambda: random_parahermitian_scalar(INF, RNG), "length must be an integer, got inf"),
    ("mse_decomposition-J_hat-float",
     lambda: mse_decomposition(FRAME, WienerEstimate(PolyMatrix.zeros(2, 2), 2.0, 0.0), EX1),
     "J_hat must be an integer, got 2.0"),
    ("stewart_bounds-m-float", lambda: stewart_bounds(np.eye(2), np.zeros((2, 2)), 1.0),
     "m must be an integer, got 1.0"),
]


@pytest.mark.parametrize("call, message", [(c, m) for _, c, m in INTEGER_CASES],
                         ids=[name for name, _, _ in INTEGER_CASES])
def test_non_integer_refused_with_its_message(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("draw", [
    lambda g: random_error(2, 2, 1, NAN, g),
    lambda g: random_error(2, 2, 1.0, 1.0, g),
    lambda g: bin_histogram_trials(EX1, np.pi, 100, NAN, g),
    lambda g: random_paraunitary(2, 2.0, g),
    lambda g: random_parahermitian_scalar(3.0, g),
], ids=["random_error-nan", "random_error-order", "bin_histogram_trials",
        "random_paraunitary", "random_parahermitian_scalar"])
def test_refused_draw_leaves_the_generator_as_it_was(draw):
    g = np.random.default_rng(7)
    state = g.bit_generator.state
    with pytest.raises((TypeError, ValueError)):
        draw(g)
    assert g.bit_generator.state == state
