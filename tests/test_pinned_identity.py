"""Pinned-output identity of the GA construction and the scheme design.

The digests and designs below were recorded from the bisection-based GA
inverse; any faster kernel must reproduce them exactly (model values to a
relative 1e-9, since the last few ulps of a mean may move).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpolar.channel import ChannelParams, channel_llr_distribution
from rcpolar.construct import construct_rcp
from rcpolar.design import design_scheme
from rcpolar.reliability import _log_phi, _log_phi_inv

SNR_GRID_DB = (-3.0, -1.0, 0.0, 1.5, 3.0, 6.0, 10.0, 20.0)
CODE_GRID = ((72, 32, 64), (160, 64, 128), (300, 100, 200), (600, 256, 512),
             (900, 300, 700), (1500, 512, 1024), (2600, 1024, 2048),
             (5000, 512, 4096))
GRID_DIGEST = "9e6f7ddc7483be6a64f9b06d6af3cf8fb60d838e3fd3940ea2d231e0cdb7cc89"

# (k, t_max, q, snr_db[, force_first_length_equals_m]) -> (s, eta_estimate)
PINNED_DESIGNS = {
    (16, 3, 48, 0.0): ((24, 24, 25, 33), 0.5799527586325006),
    (32, 4, 96, 2.0): ((36, 37, 42, 54, 68), 0.7628205889366707),
    # The `design` benchmark workload.
    (128, 4, 384, 0.0): ((223, 223, 236, 258, 297), 0.5500178856757899),
    (32, 4, 96, 2.0, True): ((36, 36, 40, 46, 60), 0.7687315706739444),
    # pe underflows to 0, so every plan with a repetition is built twice.
    (64, 3, 192, 20.0): ((64, 64), 0.999999999999999),
}


def _grid_digest() -> str:
    h = hashlib.sha256()
    for snr_db in SNR_GRID_DB:
        channel = channel_llr_distribution(ChannelParams(snr_db=snr_db))
        for n, k, m in CODE_GRID:
            code, _, _ = construct_rcp(n, k, m, channel)
            h.update(f"{n},{k},{m},{snr_db!r};".encode())
            for arr in (code.info_set, code.puncture_set,
                        code.rep_vector):
                h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
                h.update(b"|")
    return h.hexdigest()


def test_construction_grid_bit_identical():
    assert _grid_digest() == GRID_DIGEST


@pytest.mark.parametrize("key", sorted(PINNED_DESIGNS))
def test_pinned_designs(key):
    k, t_max, q, snr_db, *force = key
    s, eta = PINNED_DESIGNS[key]
    channel = channel_llr_distribution(ChannelParams(snr_db=snr_db))
    scheme, _ = design_scheme(k, t_max, q, channel,
                           force_first_length_equals_m=bool(force))
    assert scheme.s == s
    assert scheme.eta_estimate == pytest.approx(eta, rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_phi_inverse_round_trip_property(m):
    back = float(_log_phi_inv(_log_phi(np.array([m])))[0])
    if m >= 1.0:
        assert abs(back - m) <= 1e-12 * m
    else:
        assert abs(back - m) <= 1e-12
