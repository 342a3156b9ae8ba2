"""Cross-tier oracle for the paper's §3.1 closeness order.

The object engine ranks Cycloid ids by the tuple
:meth:`CycloidId.distance_to` returns; the columnar kernel ranks them by
one int64 (``CycloidKernel._packed_from``).  Two properties tie them:

* ``distance_to`` equals the reference formula written with the
  ``repro.util.bitops`` helpers (the definition it was derived from);
* sorting node ids by the tuple and by the packed int64 gives the same
  order, so both tiers pick the same owner and the same next hop;
* the object engine's scalar :meth:`CycloidId.packed_distance_to` is
  the kernel's int64 value for value, so both tiers rank by one
  encoding.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CycloidNetwork
from repro.dht.identifiers import (
    CycloidId,
    cycloid_cube_unit,
    cycloid_space_size,
)
from repro.dht.kernel import CycloidKernel
from repro.util.bitops import circular_distance, clockwise_distance


def reference_distance(key: CycloidId, node: CycloidId):
    """§3.1 closeness spelled out with the bitops helpers."""
    cube_mod = 1 << key.dimension
    cube_dist = circular_distance(key.cubical, node.cubical, cube_mod)
    cyc_dist = circular_distance(key.cyclic, node.cyclic, key.dimension)
    space = cycloid_space_size(key.dimension)
    cw = clockwise_distance(key.linear, node.linear, space)
    return (cube_dist, cyc_dist, 0 if cw <= space // 2 else 1, cw)


@lru_cache(maxsize=None)
def kernel_for(dimension: int) -> CycloidKernel:
    space = cycloid_space_size(dimension)
    network = CycloidNetwork.with_random_ids(min(4, space), dimension, seed=1)
    return CycloidKernel(network)


@st.composite
def key_and_nodes(draw):
    dimension = draw(st.integers(min_value=1, max_value=10))
    space = cycloid_space_size(dimension)
    linear = st.integers(min_value=0, max_value=space - 1)
    key = draw(linear)
    nodes = draw(st.lists(linear, min_size=1, max_size=24, unique=True))
    return CycloidId.from_linear(key, dimension), [
        CycloidId.from_linear(value, dimension) for value in nodes
    ]


@settings(deadline=None, max_examples=100)
@given(key_and_nodes())
def test_distance_to_matches_reference(case):
    key, nodes = case
    cube_unit = cycloid_cube_unit(key.dimension)
    for node in nodes:
        reference = reference_distance(key, node)
        assert key.distance_to(node) == reference
        assert key.packed_distance_to(node) // cube_unit == reference[0]


@settings(deadline=None, max_examples=100)
@given(key_and_nodes())
def test_tuple_order_matches_packed_int64(case):
    key, nodes = case
    columns = [
        np.array([getattr(node, attr) for node in nodes], dtype=np.int64)
        for attr in ("cubical", "cyclic", "linear")
    ]
    packed = kernel_for(key.dimension)._packed_from(
        *columns, key.cubical, key.cyclic, key.linear
    )
    # The object engine's scalar form is the kernel's, value for value.
    scalar = [key.packed_distance_to(node) for node in nodes]
    assert scalar == packed.tolist()
    order = range(len(nodes))
    by_tuple = sorted(order, key=lambda i: key.distance_to(nodes[i]))
    by_packed = sorted(order, key=lambda i: int(packed[i]))
    assert by_tuple == by_packed == sorted(order, key=scalar.__getitem__)
    # Strict on both sides: distinct ids never tie.
    assert len(set(packed.tolist())) == len(nodes)


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        CycloidId(0, 0, 3).distance_to(CycloidId(0, 0, 4))
    with pytest.raises(ValueError):
        CycloidId(0, 0, 3).packed_distance_to(CycloidId(0, 0, 4))
