"""Every corner of the coverage laws' domain gives a checked value or an
expected typed error.

The grid is fixed before the run: path-loss exponents from just above 2 to
8, array shapes from 1x1 to 8x16 with the MMSE law and every PZF order m
with delta >= 0, zero noise, and unit noise at base-station intensities
from 1e-300 to 1e300, each law at thresholds from 0 to 2^100 in one array
call.  A law either raises an error of the expected set below, or returns
finite values in [0, 1] that do not rise with z and stay at or below the
zero-noise law.  Any warning fails the sweep.
"""

import warnings

import numpy as np
import pytest

from cellmimo.errors import CellMimoError, ConfigError
from cellmimo.geometry import NetworkConfig
from cellmimo.mmse import coverage_mmse
from cellmimo.pzf import coverage_pzf

_SHAPES = [(1, 1), (1, 4), (2, 4), (4, 16), (1, 16), (8, 16)]
_LAMS = [1e-300, 1e-40, 1e-6, 1.0, 1e6, 1e300]
_Z = np.array([0.0, 1e-12, 1e-3, 1.0, 1e3, 2.0**64, 2.0**100])
# Rounding lets a law near 1 rise by a few ulps between thresholds: noisy
# MMSE 4x16 at alpha 2.5 and lam 1 reads 0.9999999999999922 at z = 1e-12
# and 0.9999999999999974 at z = 1e-3.
_RISE = 1e-14
_ABOVE_QUIET = 1e-12


def _laws(n_t, n_r):
    """(name, law) for MMSE and every PZF order with delta >= 0."""
    yield "mmse", coverage_mmse
    for m in range(1, n_r // n_t + 1):
        yield f"pzf m={m}", lambda config, z, m=m: coverage_pzf(config, z, m)


def _expected_error(alpha, sigma2, lam):
    """The one expected typed error: at lam = 1e-300 and alpha >= 2.5 the
    noise scale n_t sigma2 (pi lam)^(-alpha/2) exceeds the largest float."""
    return sigma2 > 0.0 and lam == 1e-300 and alpha >= 2.5


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0, 8.0])
def test_laws_over_the_domain_return_checked_values_or_expected_errors(alpha):
    errors = 0
    for n_t, n_r in _SHAPES:
        for name, law in _laws(n_t, n_r):
            quiet = None  # the zero-noise values, the first cell's
            for sigma2, lam in [(0.0, 1.0)] + [(1.0, lam) for lam in _LAMS]:
                where = (n_t, n_r, name, alpha, sigma2, lam)
                config = NetworkConfig(lam=lam, alpha=alpha, sigma2=sigma2, n_t=n_t, n_r=n_r)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        values = law(config, _Z)
                except CellMimoError as exc:
                    assert _expected_error(alpha, sigma2, lam), (where, repr(exc))
                    assert isinstance(exc, ConfigError) and "overflows" in str(exc), where
                    errors += 1
                    continue
                assert not _expected_error(alpha, sigma2, lam), where
                assert np.all(np.isfinite(values)), (where, values)
                assert np.all((values >= 0.0) & (values <= 1.0)), (where, values)
                assert np.all(np.diff(values) <= _RISE), (where, values)
                quiet = values if quiet is None else quiet
                assert np.all(values <= quiet * (1.0 + _ABOVE_QUIET)), (where, values, quiet)
    # 35 laws per alpha: MMSE and 29 PZF orders over the six shapes.
    assert errors == (35 if alpha >= 2.5 else 0)
