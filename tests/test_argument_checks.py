"""Argument checks of the library functions: each refusal and its message."""

import re

import numpy as np
import pytest

from polysvd import (
    PerturbConfig,
    PolyMatrix,
    SeededRng,
    bin_histogram_trials,
    example1,
    random_error,
    scale_to_normalized,
)
from polysvd.sysgen import assemble, random_paraunitary, random_parahermitian_scalar
from polysvd.sysid import SignalFrame, wiener_estimate

EX1 = example1()
RNG = SeededRng(0)
SCALAR = PolyMatrix(np.ones((1, 1, 1)))
NOT_PU = PolyMatrix(2.0 * np.eye(2)[:, :, None])
JSON_3X2 = {**EX1.A.to_json_dict(), "M": 3}
FRAME = SignalFrame(np.zeros((2, 10)), np.zeros((2, 10)), 0.0)

CASES = [
    ("PerturbConfig-level", lambda: PerturbConfig(sigma2_norm=-1e-4),
     "perturbation variance must be >= 0"),
    ("random_error-sigma2_e", lambda: random_error(2, 2, 1, -1.0, RNG),
     "sigma2_e must be >= 0"),
    ("random_error-order", lambda: random_error(2, 2, -1, 1.0, RNG),
     "order must be >= 0"),
    ("scale_to_normalized-target", lambda: scale_to_normalized(EX1.A, EX1.A, -1.0),
     "target must be >= 0"),
    ("bin_histogram_trials-trials", lambda: bin_histogram_trials(EX1, np.pi, 0, 1e-4, RNG),
     "trials must be >= 1"),
    ("PolyMatrix.constant-1d", lambda: PolyMatrix.constant(np.ones(2)),
     "constant() expects a 2-D matrix"),
    ("eval_grid-0", lambda: EX1.A.eval_grid(0), "n_bins must be >= 1"),
    ("trim-negative", lambda: EX1.A.trim(-1.0), "tol must be >= 0"),
    ("is_parahermitian-non-square", lambda: PolyMatrix(np.ones((2, 3, 1))).is_parahermitian(),
     "parahermitian check requires a square matrix"),
    ("from_json_dict-shape", lambda: PolyMatrix.from_json_dict(JSON_3X2),
     "coeffs shape disagrees with M, L"),
    ("random_paraunitary-order", lambda: random_paraunitary(2, -1, RNG),
     "order must be >= 0"),
    ("random_parahermitian_scalar-length", lambda: random_parahermitian_scalar(0, RNG),
     "length must be >= 1"),
    ("assemble-sigma-count", lambda: assemble(EX1.U, EX1.sigmas[:1], EX1.V),
     "need 2 scalar singular values"),
    ("assemble-V", lambda: assemble(EX1.U, EX1.sigmas, NOT_PU),
     "V is not paraunitary"),
    ("assemble-sigma-shape", lambda: assemble(EX1.U, (EX1.A, SCALAR), EX1.V),
     "sigma 0 must be 1x1"),
    ("wiener_estimate-j_hat", lambda: wiener_estimate(FRAME, -1), "j_hat must be >= 0"),
    ("SignalFrame-1d", lambda: SignalFrame(x=np.zeros(5), y=np.zeros(5), sigma2_v=0.0),
     "x and y must be 2-D, got 1-D and 1-D"),
    ("SignalFrame-3d-y", lambda: SignalFrame(np.zeros((2, 5)), np.zeros((2, 5, 1)), 0.0),
     "x and y must be 2-D, got 2-D and 3-D"),
]


@pytest.mark.parametrize("call, message", [(c, m) for _, c, m in CASES],
                         ids=[name for name, _, _ in CASES])
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
