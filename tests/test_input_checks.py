"""Input checks of the library entries that no other test reaches: each refuses its bad value with ValueError."""

import pytest

from vaughanlab import FRConfig
from vaughanlab.arith import theta_progression
from vaughanlab.constants import euler_gamma_bessel, euler_gamma_harmonic
from vaughanlab.frmodel import fr_value_naive, mobius_cr_identity
from vaughanlab.variance import accumulate_modulus

_CASES = {
    "is_prime(-1)": (lambda t, cfg: t.sieve.is_prime(-1), "n must be nonnegative, got -1"),
    "theta_progression(-1)": (lambda t, cfg: theta_progression(-1, 3, 1, t), "x must be nonnegative, got -1"),
    "accumulate_modulus(0)": (lambda t, cfg: accumulate_modulus(0, 100, cfg), "modulus must be >= 1, got 0"),
    "fr_value_naive(0)": (lambda t, cfg: fr_value_naive(0, cfg), "n must be >= 1, got 0"),
    "mobius_cr_identity(v=0)": (lambda t, cfg: mobius_cr_identity(0, 1, t.sieve), "v must be >= 1, got 0"),
    "mobius_cr_identity(N=-1)": (lambda t, cfg: mobius_cr_identity(6, -1, t.sieve), "N must be >= 0, got -1"),
    "euler_gamma_harmonic(9)": (lambda t, cfg: euler_gamma_harmonic(9), "terms must be >= 10, got 9"),
    "euler_gamma_bessel(3)": (lambda t, cfg: euler_gamma_bessel(3), "n must be >= 4, got 3"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_library_entry_refuses_bad_input(case, tables_small):
    call, message = _CASES[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(tables_small, FRConfig(R=10.0, tables=tables_small))
