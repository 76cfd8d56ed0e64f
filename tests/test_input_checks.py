"""Input checks of the library entries that no other test reaches: each refuses its bad value with ValueError."""

import numpy as np
import pytest

from vaughanlab import FRConfig, Mode, RestrictionMode, bdh_variance, delta_sq_progression, variance_sum
from vaughanlab.arith import psi_progression, theta_progression
from vaughanlab.constants import euler_gamma_bessel, euler_gamma_harmonic
from vaughanlab.frmodel import fr_value_naive, mobius_cr_identity, rho_star
from vaughanlab.variance import accumulate_modulus

_ALL = RestrictionMode(Mode.ALL)

_CASES = {
    "is_prime(-1)": (lambda t, cfg: t.sieve.is_prime(-1), "n must be nonnegative, got -1"),
    "theta_progression(-1)": (lambda t, cfg: theta_progression(-1, 3, 1, t), "x must be nonnegative, got -1"),
    "accumulate_modulus(0)": (lambda t, cfg: accumulate_modulus(0, 100, cfg), "modulus must be >= 1, got 0"),
    "fr_value_naive(0)": (lambda t, cfg: fr_value_naive(0, cfg), "n must be >= 1, got 0"),
    "mobius_cr_identity(v=0)": (lambda t, cfg: mobius_cr_identity(0, 1, t.sieve), "v must be >= 1, got 0"),
    "mobius_cr_identity(N=-1)": (lambda t, cfg: mobius_cr_identity(6, -1, t.sieve), "N must be >= 0, got -1"),
    "euler_gamma_harmonic(9)": (lambda t, cfg: euler_gamma_harmonic(9), "terms must be >= 10, got 9"),
    "euler_gamma_bessel(3)": (lambda t, cfg: euler_gamma_bessel(3), "n must be >= 4, got 3"),
    # bounds that slice or count take integers only, never a float of integral value
    "variance_sum(Q=100.0)": (lambda t, cfg: variance_sum(2000, 100.0, cfg, _ALL), "Q must be an integer, got 100.0"),
    "variance_sum(x=2000.0)": (lambda t, cfg: variance_sum(2000.0, 100, cfg, _ALL), "x must be an integer, got 2000.0"),
    "bdh_variance(Q=10.0)": (lambda t, cfg: bdh_variance(2000, 10.0, t), "Q must be an integer, got 10.0"),
    "delta_sq_progression(v=6.0)": (lambda t, cfg: delta_sq_progression(2000, 6.0, 1, cfg), "v must be an integer, got 6.0"),
    "delta_sq_progression(N=1.0)": (lambda t, cfg: delta_sq_progression(2000, 6, 1.0, cfg), "N must be an integer, got 1.0"),
    "rho_star(v=6.0)": (lambda t, cfg: rho_star(2000, 6.0, 1, cfg), "v must be an integer, got 6.0"),
    "theta_progression(x=2000.0)": (lambda t, cfg: theta_progression(2000.0, 6, 1, t), "x must be an integer, got 2000.0"),
    "psi_progression(x=2000.5)": (lambda t, cfg: psi_progression(2000.5, 6, 1, t), "x must be an integer, got 2000.5"),
    "accumulate_modulus(x=100.0)": (lambda t, cfg: accumulate_modulus(6, 100.0, cfg), "x must be an integer, got 100.0"),
    "RestrictionMode(N=2.5)": (lambda t, cfg: RestrictionMode(Mode.SHIFT_COPRIME, 2.5), "N must be an integer, got 2.5"),
    "RestrictionMode(N=2.0)": (lambda t, cfg: RestrictionMode(Mode.ALL, 2.0), "N must be an integer, got 2.0"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_library_entry_refuses_bad_input(case, tables_small):
    call, message = _CASES[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(tables_small, FRConfig(R=10.0, tables=tables_small))


def test_numpy_integers_are_integers(tables_small):
    # the integer checks take numpy's integers, and the results are the int arguments' bit for bit
    cfg = FRConfig(R=10.0, tables=tables_small)
    i = np.int64
    assert (variance_sum(i(2000), i(100), cfg, RestrictionMode(Mode.SHIFT_COPRIME, np.int32(2)), q_low=90.0).empirical
            == variance_sum(2000, 100, cfg, RestrictionMode(Mode.SHIFT_COPRIME, 2), q_low=90.0).empirical)
    assert bdh_variance(i(2000), i(10), tables_small).empirical == bdh_variance(2000, 10, tables_small).empirical
    assert delta_sq_progression(i(2000), i(6), i(1), cfg) == delta_sq_progression(2000, 6, 1, cfg)
    assert theta_progression(i(2000), 6, 1, tables_small) == theta_progression(2000, 6, 1, tables_small)
