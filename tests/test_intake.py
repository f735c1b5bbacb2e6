"""One table of malformed covariance blocks across every entry point.

Each block goes through ``problem.covariance``, so each failure kind raises
the same error class at every library entry point, with a message that
starts with the entry's name, and exits 2 from the CLI naming the block's
JSON path.
"""

import numpy as np
import pytest

from cifusion import JointCovariance, PartialEstimate, cli
from cifusion.errors import DimensionMismatchError, NonFiniteError, NotPdError, NotPsdError
from cifusion.linalg import RESULT_RTOL
from cifusion.simulator import NoiseSpec, init_network

from test_cli import COVARIANCE_PATHS, verify_with_covariance

_ROUNDED = np.array([[2.0, 1.0], [1.0 + 1e-3 * RESULT_RTOL * 2.0, 2.0]])

#: case -> (block, error class or None for accepted, the message after the name)
CASES = {
    "asymmetric": ([[2.0, 1.0], [0.0, 2.0]], NotPdError,
                   "not symmetric: differs from its transpose by 1"),
    "rounding": (_ROUNDED.tolist(), None, None),
    "nan": ([[1.0, 0.0], [0.0, float("nan")]], NonFiniteError, "holds a NaN or an infinity"),
    "shape": ([[1.0, 0.0]], DimensionMismatchError, "shape (1, 2), expected (2, 2)"),
    "indefinite": ([[-1.0, 0.0], [0.0, 1.0]], NotPsdError,
                   "matrix is not PSD (min eigenvalue -1)"),
    "singular": ([[1.0, 0.0], [0.0, 0.0]], NotPdError, None),
}

#: the reason a PSD but singular block gives where the entry needs it PD
STRICT = "covariance estimate must be strictly PD (min eigenvalue 0)"


def _partial_estimate(block):
    PartialEstimate(np.eye(2), [0.0, 0.0], block)


def _joint(block):
    JointCovariance(block, np.zeros((2, 2)), np.eye(2))


def _p_list(block):
    spec = NoiseSpec(h_list=[np.eye(2), np.eye(2)], p_list=[block, np.eye(2)])
    _, truth = init_network(2, 2, seed=0, noise_spec=spec)
    # the ground truth keeps an accepted block as given
    np.testing.assert_array_equal(truth.node_cov(0), block)


#: entry -> (call, the name its messages start with, the singular reason or None if PSD is enough)
LIBRARY = {
    "PartialEstimate": (_partial_estimate, "P_hat", STRICT),
    "JointCovariance": (_joint, "P1", None),
    "init_network": (_p_list, "p_list[0]", "not positive definite"),
}

#: CLI paths whose block must be strictly PD
STRICT_PATHS = {"est1.P_hat", "est2.P_hat"}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", LIBRARY)
def test_library_entry(entry, case):
    call, name, singular = LIBRARY[entry]
    block, error, reason = CASES[case]
    if case == "singular":
        error, reason = (NotPdError, singular) if singular else (None, None)
    if error is None:
        call(block)
        return
    with pytest.raises(error) as exc:
        call(block)
    assert type(exc.value) is error
    assert str(exc.value) == f"{name}: {reason}"


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("where", COVARIANCE_PATHS)
def test_cli_block(tmp_path, capsys, where, case):
    block, error, reason = CASES[case]
    if case == "singular":
        error, reason = (NotPdError, STRICT) if where in STRICT_PATHS else (None, None)
    rc = cli.main(verify_with_covariance(tmp_path, where, block))
    captured = capsys.readouterr()
    if error is None:
        # accepted: the certificates run, and may fail on a block that is not conservative
        assert rc in (0, 1) and captured.err == ""
        return
    assert rc == 2
    assert captured.err == f"error: {where}: {reason}\n"
    assert captured.out == ""
