import math

import numpy as np
from hypothesis import strategies as st

from nonortho.state import make_state


@st.composite
def valid_states(draw, min_amp=1e-3, max_overlap=0.95):
    """Random valid states: amplitudes on the complex sphere, capped overlaps."""
    parts = [draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in range(4)]
    mu = complex(parts[0], parts[1])
    nu = complex(parts[2], parts[3])
    norm = math.hypot(abs(mu), abs(nu))
    if norm < min_amp:
        mu, nu = 1.0 + 0j, 0.5 + 0j
        norm = math.hypot(1.0, 0.5)
    mu, nu = mu / norm, nu / norm
    mags = [draw(st.floats(0.0, max_overlap, allow_nan=False)) for _ in range(2)]
    phases = [draw(st.floats(-math.pi, math.pi, allow_nan=False)) for _ in range(2)]
    x = mags[0] * np.exp(1j * phases[0])
    y = mags[1] * np.exp(1j * phases[1])
    return make_state(mu, nu, x, y, auto_normalize=True)


def det2(m):
    """2x2 determinant by the product formula (subnormal-safe, unlike LU)."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
