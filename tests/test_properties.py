"""Property-based checks of the closed-form steady state over the physical domain.

The examples are derandomized and their number is fixed, so every run draws
the same configs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fiberqed import oracle
from fiberqed.linear_response import (
    ProbeSettings, steady_state, transmission_spectrum,
)
from fiberqed.params import PhysicalConfig, derive_rates, mhz

from references import stationarity_residual

transmittance = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
loss = st.floats(0.0, 1.0, exclude_max=True)
length = st.floats(0.01, 100.0)                                 # m
coupling = st.one_of(st.just(0.0), st.floats(0.0, 30.0)).map(mhz)
detuning = st.floats(-100.0, 100.0).map(mhz)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    T=st.tuples(transmittance, transmittance, transmittance, transmittance),
    alpha=st.tuples(loss, loss, loss),
    L=st.tuples(length, length, length),
    g1=coupling, g2=coupling, dc=detuning, da=detuning, drive=st.floats(0.1, 10.0),
)
def test_steady_state_matches_dense_solve(T, alpha, L, g1, g2, dc, da, drive):
    cfg = PhysicalConfig(T1=T[0], T2=T[1], T3=T[2], T4=T[3], L1=L[0], L2=L[1], Lf=L[2],
                         alpha1=alpha[0], alpha2=alpha[1], alphaf=alpha[2])
    rates = derive_rates(cfg)
    probe = ProbeSettings(dc, da, drive)
    closed = steady_state(rates, probe, g1, g2)
    dense = oracle.solve_dense(oracle.build_linear_system(rates, probe, g1, g2))
    c, d = (np.array(list(vars(a).values())) for a in (closed, dense))
    assert np.max(np.abs(c - d)) <= 1e-9 * np.max(np.abs(d))
    assert stationarity_residual(closed, rates, probe, g1, g2) < 1e-10


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    T=st.tuples(transmittance, transmittance, transmittance, transmittance),
    alpha=st.tuples(loss, loss, loss),
    L=st.tuples(length, length, length),
    delta=detuning.filter(lambda d: d != 0.0).map(abs),
)
def test_empty_chain_spectrum_has_parity(T, alpha, L, delta):
    cfg = PhysicalConfig(T1=T[0], T2=T[1], T3=T[2], T4=T[3], L1=L[0], L2=L[1], Lf=L[2],
                         alpha1=alpha[0], alpha2=alpha[1], alphaf=alpha[2])
    t = transmission_spectrum(derive_rates(cfg), 0.0, 0.0, grid=np.array([-delta, delta])).transmission
    assert abs(t[0] - t[1]) <= 1e-12 * max(t)
