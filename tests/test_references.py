"""Independent references from the wiretap literature.

The GSVD optimum is an achievable secrecy rate, so no capacity result may
lie below it. These properties hold it under two bounds computed without
the GSVD:

- for one receive antenna, the MISOME secrecy capacity of Khisti and
  Wornell ("Secure transmission with multiple antennas I", 2010),
  log2 of the largest generalized eigenvalue of
  (I + P hr^H hr, I + P He^H He), floored at zero;
- for every shape, the capacity of Hr alone (no eavesdropper), water-filled
  over its squared singular values at the radiated power of the optimum.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from gsvdcap import gsvd, secrecy_rate, solve_mu, subchannel_gains

from conftest import random_pair

# Excess allowed over a bound, relative to max(1, bound) bits.
REL_SLACK = 1e-12
POWERS = [0.1, 1.0, 10.0, 1e3, 1e5]


def optimal_rate(pair, power):
    """The GSVD optimum's secrecy rate and its radiated power."""
    gains = subchannel_gains(gsvd(pair))
    alloc = solve_mu(gains, power)
    return secrecy_rate(gains, alloc), alloc.effective_power


def misome_capacity(hr, he, power):
    """max(0, log2 lambda_max(I + P hr^H hr, I + P He^H He)) in bits."""
    eye = np.eye(hr.shape[1])
    lam = scipy.linalg.eigh(eye + power * (hr.conj().T @ hr),
                            eye + power * (he.conj().T @ he),
                            eigvals_only=True)[-1]
    return max(0.0, float(np.log2(lam)))


def water_filling_capacity(hr, power):
    """log2 det(I + Hr Q Hr^H) maximized over tr Q <= power, in bits."""
    g = np.linalg.svd(hr, compute_uv=False) ** 2
    g = g[g > 0]
    for k in range(g.size, 0, -1):
        # Water level with the k strongest modes active.
        level = (power + np.sum(1.0 / g[:k])) / k
        if level > 1.0 / g[k - 1]:
            return float(np.sum(np.log2(level * g[:k])))
    return 0.0


def assert_below(rate, bound):
    assert rate <= bound + REL_SLACK * max(1.0, bound), (rate, bound)


class TestUpperBounds:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(n_t=st.integers(2, 6), n_e=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), power=st.sampled_from(POWERS))
    def test_misome_capacity_bounds_one_receive_antenna(
            self, n_t, n_e, seed, power):
        pair = random_pair(n_t, 1, n_e, seed=seed)
        rate, _ = optimal_rate(pair, power)
        assert_below(rate, misome_capacity(pair.hr, pair.he, power))

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(shape=st.sampled_from([(2, 2, 1), (3, 1, 2), (4, 4, 4), (5, 5, 4),
                                  (6, 4, 2), (3, 5, 2), (8, 8, 6)]),
           seed=st.integers(0, 2**32 - 1), power=st.sampled_from(POWERS))
    def test_receiver_capacity_bounds_every_shape(self, shape, seed, power):
        pair = random_pair(*shape, seed=seed)
        rate, radiated = optimal_rate(pair, power)
        assert_below(rate, water_filling_capacity(pair.hr, radiated))

    def test_references_on_known_channels(self):
        # One receive antenna, no eavesdropper energy on the first input:
        # both references reduce to log2(1 + P |h|^2).
        hr = np.array([[2.0, 0.0]], dtype=complex)
        he = np.array([[0.0, 1.0]], dtype=complex)
        assert np.isclose(misome_capacity(hr, he, 10.0), np.log2(41.0))
        assert np.isclose(water_filling_capacity(hr, 10.0), np.log2(41.0))
        # Squared gains 4 and 1 at P = 1: the level (1 + 1/4 + 1)/2 = 1.125
        # is above 1/1, so both modes are active. With 4 and 1/4 the level
        # 1 + 1/4 leaves the weak mode silent.
        assert np.isclose(water_filling_capacity(np.diag([2.0, 1.0]), 1.0),
                          np.log2(1.125 * 4) + np.log2(1.125))
        assert np.isclose(water_filling_capacity(np.diag([2.0, 0.5]), 1.0),
                          np.log2(5.0))
        # An eavesdropper that hears everything better leaves no capacity.
        assert misome_capacity(hr, 3.0 * np.eye(2), 10.0) == 0.0
