"""Properties searched by hypothesis over the whole accepted domain.

Each property is an identity that needs no oracle, so it holds at every
input; hypothesis draws the inputs and shrinks a failure to a minimal one.
derandomize=True and database=None keep the module deterministic: the
same draws on every run and no example database written.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec import HalfInt, coherent_amplitudes

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
