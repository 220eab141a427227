import math

import numpy as np
import pytest
from hypothesis import given

from nonortho.errors import DomainError
from nonortho.measures import (concurrence_det, concurrence_spin_flip,
                               entanglement_entropy, entropy_direct, entropy_nats)
from nonortho.schmidt import reduced_density
from nonortho.state import embed, make_state, state_from_magnitudes

from conftest import valid_states

SQ2 = 1.0 / math.sqrt(2.0)


def test_concurrence_singlet():
    s = make_state(SQ2, -SQ2, 0, 0)
    assert concurrence_det(s) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_spin_flip(embed(s)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    s = make_state(1, 0, 0.5, 0.3)
    assert concurrence_det(s) == 0.0
    assert concurrence_spin_flip(embed(s)) == pytest.approx(0.0, abs=1e-15)


def test_concurrence_basis_vector():
    assert concurrence_spin_flip(np.array([1, 0, 0, 0], dtype=complex)) == 0.0


def test_concurrence_balanced_single_overlap():
    s = state_from_magnitudes(0.5, math.sqrt(0.1), 0.0)
    assert concurrence_det(s) == pytest.approx(math.sqrt(0.9), abs=1e-12)


@given(valid_states())
def test_concurrence_routes_agree(s):
    assert abs(concurrence_det(s) - concurrence_spin_flip(embed(s))) <= 1e-12


def test_entropy_endpoints():
    assert entanglement_entropy(1.0) == pytest.approx(1.0)
    assert entanglement_entropy(0.0) == 0.0
    assert entropy_direct(np.diag([0.5, 0.5]).astype(complex)) == pytest.approx(1.0)
    assert entropy_direct(np.diag([1.0, 0.0]).astype(complex)) == 0.0


def test_entropy_frozen_value():
    # C^2 = 0.9 -> h((1 + sqrt(0.1))/2), frozen from the binary-entropy oracle
    assert entanglement_entropy(math.sqrt(0.9)) == pytest.approx(
        0.92661216392541645, abs=1e-14)


def test_entropy_out_of_range():
    with pytest.raises(ValueError):
        entanglement_entropy(1.5)


@pytest.mark.parametrize("concurrence", [-0.1, 1.5, math.nan])
def test_entropy_out_of_range_is_a_domain_error(concurrence):
    with pytest.raises(DomainError, match="concurrence out of range"):
        entanglement_entropy(concurrence)


@given(valid_states())
def test_entropy_routes_agree(s):
    direct = entropy_direct(reduced_density(s, "A"))
    wootters = entanglement_entropy(concurrence_det(s))
    assert abs(direct - wootters) <= 1e-12
    assert abs(direct - entropy_direct(reduced_density(s, "B"))) <= 1e-12


def test_entropy_strictly_increasing_in_concurrence():
    grid = np.linspace(0.0, 1.0, 10_000)
    values = [entanglement_entropy(c) for c in grid]
    diffs = np.diff(values)
    assert (diffs > 0).all()


def test_entropy_nats_conversion():
    assert entropy_nats(1.0) == pytest.approx(math.log(2.0))
