"""Property tests of the exact coefficient identities over random (d, n, k, s),
reaching beyond the fixed grids of the acceptance suite (d, n <= 10, k <= 8).

``chiribella_coefficient_identity`` is the rescaled hypergeometric weight of
f_overlap against ``mp_clone_coefficient``; ``mp_polynomial_jacobi_identity`` is
the Jacobi form of the coefficient polynomial, which needs d + n >= k for its
recurrence to stay regular.  Both are exact rational comparisons.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from symsub.channels import chiribella_coefficient_identity
from symsub.exactcomb import mp_polynomial_jacobi_identity

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def _dnks(draw):
    d = draw(st.integers(1, 60))
    n = draw(st.integers(0, 500))
    k = draw(st.integers(0, 200))
    s = draw(st.integers(0, k))
    return d, n, k, s


@DERANDOMIZED
@given(_dnks())
def test_chiribella_coefficient_identity_property(dnks):
    assert chiribella_coefficient_identity(*dnks), dnks


@st.composite
def _regular_dnk(draw):
    d = draw(st.integers(1, 60))
    n = draw(st.integers(0, 500))
    k = draw(st.integers(0, min(d + n, 150)))
    return d, n, k


@DERANDOMIZED
@given(_regular_dnk())
def test_mp_polynomial_jacobi_identity_property(dnk):
    assert mp_polynomial_jacobi_identity(*dnk), dnk
