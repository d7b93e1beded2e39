"""Argument checks that no other test reaches: each call must raise exactly
ValueError (not a subclass such as DimensionGuardError) with its message."""

import re

import numpy as np
import pytest

from symsub.channels import Superoperator, compose, identity_superoperator, trace_channel
from symsub.concentration import MultiPartition, mu_exact
from symsub.definetti import definetti_epsilon
from symsub.exactcomb import enumerate_types, real_moment_ratio
from symsub.guards import set_max_dim
from symsub.randomness import RngStream, haar_state, haar_unitary
from symsub.tensorspace import Matching, Operator, Permutation, matching_operator, partial_trace

CASES = {
    "operator_empty_dims": (
        lambda: Operator(np.eye(1), (), (1,)),
        "subsystem dimension lists must be nonempty",
    ),
    "operator_shape": (
        lambda: Operator(np.eye(3), (2,), (2,)),
        "matrix shape (3, 3) does not match dims (2,) x (2,)",
    ),
    "superoperator_shape": (
        lambda: Superoperator(np.eye(4), (2,), (3,)),
        "superoperator shape (4, 4) does not match dims (3,) <- (2,)",
    ),
    "operator_trace_not_square": (
        lambda: Operator(np.zeros((2, 3)), (2,), (3,)).trace(),
        "trace requires square subsystem structure",
    ),
    "operator_matmul_dims": (
        lambda: Operator(np.eye(2), (2,), (2,)) @ Operator(np.eye(3), (3,), (3,)),
        "dimension mismatch: (2,) vs (3,)",
    ),
    "compose_dims": (
        lambda: compose(identity_superoperator((2,)), identity_superoperator((3,))),
        "dimension mismatch: (2,) vs (3,)",
    ),
    "permutation_repeated_image": (
        lambda: Permutation((0, 0)),
        "(0, 0) is not a permutation",
    ),
    "permutation_compose_size": (
        lambda: Permutation.identity(2).compose(Permutation.identity(3)),
        "size mismatch",
    ),
    "matching_operator_n": (
        lambda: matching_operator(2, 3, Matching(((0, 1), (2, 3)))),
        "matching size does not match n",
    ),
    "partial_trace_not_square": (
        lambda: partial_trace(Operator(np.zeros((2, 4)), (2,), (2, 2)), [0]),
        "partial trace requires row_dims == col_dims",
    ),
    "trace_channel_k_above_n": (
        lambda: trace_channel(2, 2, 3),
        "need 0 <= k <= n",
    ),
    "mu_exact_partition_dims": (
        lambda: mu_exact(Operator(np.eye(6), (2, 3), (2, 3)), MultiPartition((3, 2)), 1),
        "operator dims (2, 3) do not match partition (3, 2)",
    ),
    "definetti_epsilon_d_zero": (
        lambda: definetti_epsilon(0, 4, 1),
        "invalid arguments",
    ),
    "enumerate_types_d_zero": (
        lambda: enumerate_types(0, 3),
        "d must be positive",
    ),
    "real_moment_ratio_d_zero": (
        lambda: real_moment_ratio(0, 2),
        "d must be positive",
    ),
    "real_moment_ratio_n_negative": (
        lambda: real_moment_ratio(2, -1),
        "n must be nonnegative",
    ),
    "set_max_dim_zero": (
        lambda: set_max_dim(0),
        "max dim must be positive",
    ),
    "haar_state_d_zero": (
        lambda: haar_state(0, RngStream(seed=1)),
        "d must be positive",
    ),
    "haar_unitary_d_zero": (
        lambda: haar_unitary(0, RngStream(seed=1)),
        "d must be positive",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_arguments_raise_value_error_with_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
