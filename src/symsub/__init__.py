"""Symmetric-subspace numerics.

Exact combinatorics, dense tensor-space operators, the cloning and
measure-and-prepare channel families with their exchange identities, de Finetti
coefficient recursions, seeded Monte Carlo moment checks, and moment-method
concentration bounds.

``import symsub`` loads no submodule: each exported name, and each submodule,
is imported on first access (PEP 562), so exact work never pays for numpy.
"""

from importlib import import_module as _import_module

# submodule -> the names it exports at the package level
_EXPORTS = {
    "exactcomb": (
        "TypeVector",
        "binomial",
        "conjugation_fixed_dimension",
        "enumerate_types",
        "jacobi_polynomial",
        "mp_clone_coefficient",
        "mp_clone_polynomial",
        "mp_polynomial_jacobi_identity",
        "multinomial",
        "real_moment_ratio",
        "sym_dim",
    ),
    "guards": ("DimensionGuardError", "max_dim", "set_max_dim"),
    "tensorspace": (
        "Matching",
        "Operator",
        "Permutation",
        "enumerate_matchings",
        "matching_from_permutation",
        "matching_operator",
        "operator_from_json",
        "operator_tensor",
        "operator_to_json",
        "partial_trace",
        "permutation_operator",
        "sym_projector_group",
        "tensor_power_span_rank",
        "type_isometry",
    ),
    "channels": (
        "Superoperator",
        "apply",
        "choi_matrix",
        "clone_channel",
        "clone_channel_sym",
        "compose",
        "estimation_fidelity",
        "f_overlap",
        "mp_channel",
        "mp_channel_sym",
        "trace_channel",
        "trace_channel_sym",
        "verify_chiribella",
    ),
    "definetti": (
        "DeFinettiCoefficients",
        "check_coefficient_bounds",
        "definetti_epsilon",
        "exp_definetti_coefficients",
        "exp_definetti_full_coefficients",
        "verify_exp_definetti",
    ),
    "randomness": (
        "RngStream",
        "gaussian_vector",
        "haar_state",
        "haar_unitary",
        "mc_projector_moment",
        "mc_real_unit_moment",
        "mc_tensor_power_mean",
        "random_projector",
    ),
    "concentration": (
        "MultiPartition",
        "TailBoundResult",
        "experiment_product_free",
        "experiment_schmidt_tail",
        "mu_exact",
        "nu_max",
        "product_state_threshold",
        "smooth_gap_bound",
        "tail_bound",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
