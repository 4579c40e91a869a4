"""Properties searched by hypothesis over the whole accepted domain.

Each property is an identity, or a closed form from oracles.py, that
holds at every input; hypothesis draws the inputs and shrinks a failure
to a minimal one.
derandomize=True and database=None keep the module deterministic: the
same draws on every run and no example database written.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinqec import HalfInt, coherent_amplitudes, theta_rule

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@_SETTINGS
@given(
    twice_j=st.integers(min_value=0, max_value=200_000),
    thetas=st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=4),
)
def test_amplitude_columns_are_unit_vectors_at_every_j(twice_j, thetas):
    # at phi = 0 every phase is exactly 1, so the table holds the magnitudes:
    # each column a unit vector, no entry above 1, and the poles basis states
    j = HalfInt(twice_j)
    table = coherent_amplitudes(j, thetas + [0.0, math.pi], [0.0] * (len(thetas) + 2)).real
    assert np.all(np.abs(np.linalg.norm(table, axis=0) - 1.0) <= 1e-14)
    assert np.all((0.0 <= table) & (table <= 1.0))
    north, south = np.zeros(j.dim), np.zeros(j.dim)
    north[0] = south[-1] = 1.0
    assert np.array_equal(table[:, -2], north) and np.array_equal(table[:, -1], south)


@_SETTINGS
@given(degree=st.integers(min_value=0, max_value=1500), data=st.data())
def test_theta_rule_is_a_mirrored_positive_rule_at_every_degree(degree, data):
    # degree + 3 ascending interior nodes, mirror-symmetric about pi/2 with
    # their weights, total mass 2, and one drawn half-angle monomial of
    # degree a + b <= degree integrated exactly, in the contract row's log form
    thetas, weights = theta_rule(degree)
    assert len(thetas) == len(weights) == degree + 3
    assert 0.0 < thetas[0] and thetas[-1] < math.pi and np.all(np.diff(thetas) > 0.0)
    assert np.all(weights > 0.0)
    assert np.max(np.abs(thetas + thetas[::-1] - math.pi)) <= 4e-15
    assert np.max(np.abs(weights / weights[::-1] - 1.0)) <= 1e-13
    assert abs(weights.sum() - 2.0) <= 1e-14
    a = data.draw(st.integers(min_value=0, max_value=degree), label="a")
    b = data.draw(st.integers(min_value=0, max_value=degree - a), label="b")
    got = np.exp(a * np.log(np.cos(0.5 * thetas)) + b * np.log(np.sin(0.5 * thetas))) @ weights
    assert abs(got / oracles.beta_moment(a, b) - 1.0) <= 5e-12
