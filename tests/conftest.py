"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from gsvdcap import ChannelPair, ExperimentConfig, SubchannelGains, sample_channel


def random_pair(n_t, n_r, n_e, seed, trial=0, sigma_r2=1.0, sigma_e2=1.0):
    """Draw one seeded Rayleigh channel pair through the experiment sampler."""
    cfg = ExperimentConfig(
        n_t=n_t,
        n_r=n_r,
        n_e=n_e,
        sigma_r2=sigma_r2,
        sigma_e2=sigma_e2,
        trials=1,
        seed=seed,
    )
    return sample_channel(cfg, trial)


def pair_from_arrays(hr, he):
    return ChannelPair(np.asarray(hr, dtype=np.complex128),
                       np.asarray(he, dtype=np.complex128))


@pytest.fixture(scope="session")
def shape_classes():
    """Shape triples (n_t, n_r, n_e) spanning tall, square, and wide regimes."""
    return [
        (5, 5, 4),
        (4, 3, 3),
        (6, 3, 3),
        (8, 3, 3),
        (3, 2, 5),
        (5, 4, 2),
        (5, 3, 4),
        (2, 2, 2),
    ]


# Receiver gains c that cover generic directions, eavesdropper-null ones
# (d = 0), exact ties (c = d) and receiver-null (excluded) ones.
_receiver_gain = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.just(1.0),
    st.just(0.5),
    st.floats(min_value=0.0, max_value=1e-10),
)


@st.composite
def gains_st(draw, max_q=16, min_q=1):
    """SubchannelGains with min_q..max_q entries, d = 1 - c."""
    q = draw(st.integers(min_value=min_q, max_value=max_q))
    c = draw(st.lists(_receiver_gain, min_size=q, max_size=q))
    a = draw(st.lists(st.floats(min_value=0.05, max_value=20.0),
                      min_size=q, max_size=q))
    return SubchannelGains(c=c, d=[1.0 - x for x in c], a=a)


def reference_uniform_p(gains, part, budget, rho, mode, secure_only):
    """uniform_allocation's powers for one rho, set by set, as a loop would
    assign them: a set whose share is zero is left untouched."""
    s1, s2 = part.s1, part.s2
    target2 = s2
    if secure_only and s2.size:
        secure = s2[gains.c[s2] > gains.d[s2]]
        if secure.size:
            target2 = secure
    if s1.size == 0:
        rho = 1.0
    elif s2.size == 0:
        rho = 0.0
    p = np.zeros(gains.q)
    for indices, share, live in ((s1, (1.0 - rho) * budget, rho < 1.0),
                                 (target2, rho * budget, rho > 0.0)):
        if indices.size and live:
            if mode == "transmit":
                p[indices] = share / indices.size / gains.a[indices]
            else:
                p[indices] = share / float(np.sum(gains.a[indices]))
    return p
