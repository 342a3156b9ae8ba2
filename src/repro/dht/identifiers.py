"""Identifier spaces for the DHTs under study.

Two identifier families appear in the paper:

* a one-dimensional ring ``[0, 2^m)`` (Chord, Koorde; Viceroy uses the
  real interval ``[0, 1)`` which we keep as plain floats), and
* Cycloid's two-dimensional space ``([0, d), [0, 2^d))`` of pairs
  ``(cyclic index k, cubical index a)`` with ``d * 2^d`` points.

:class:`CycloidId` encodes the paper's §3.1 ordering and distance rules:
nodes are primarily ordered by cubical index around the *large cycle*
(mod ``2^d``) and secondarily by cyclic index around a *local cycle*
(mod ``d``).  A key is stored on the node first numerically closest in
cubical index, then in cyclic index, ties resolved clockwise (the key's
successor) — the paper's example being that ``(1,1101)`` is closer to
``(2,1101)`` than ``(2,1001)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Tuple

from repro.util.bitops import clockwise_distance

__all__ = ["CycloidId", "RingId", "cycloid_cube_unit", "cycloid_space_size"]


def cycloid_space_size(dimension: int) -> int:
    """Number of points in a ``dimension``-dimensional Cycloid ID space."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return dimension * (1 << dimension)


def cycloid_cube_unit(dimension: int) -> int:
    """Weight of one step of cubical distance in
    :meth:`CycloidId.packed_distance_to`: ``packed // unit`` is the
    cubical distance, so nodes as cubically far from a key as one at
    distance ``c`` are exactly those in ``[c * unit, (c + 1) * unit)``."""
    return 2 * (dimension + 1) * cycloid_space_size(dimension)


@dataclass(frozen=True)
class RingId:
    """An identifier on a ``2^bits`` circular ring (Chord / Koorde).

    Thin wrapper used at API boundaries; the protocol hot paths work on
    raw ints for speed.
    """

    value: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if not 0 <= self.value < (1 << self.bits):
            raise ValueError(
                f"ring id {self.value} outside [0, 2^{self.bits})"
            )

    @property
    def modulus(self) -> int:
        return 1 << self.bits

    def distance_to(self, other: "RingId") -> int:
        """Clockwise distance from self to ``other`` (Chord's metric)."""
        self._check_compatible(other)
        return clockwise_distance(self.value, other.value, self.modulus)

    def between(self, left: "RingId", right: "RingId") -> bool:
        """True iff self lies in the half-open clockwise interval (left, right]."""
        self._check_compatible(left)
        self._check_compatible(right)
        if left.value == right.value:
            return True  # full circle
        d_self = clockwise_distance(left.value, self.value, self.modulus)
        d_right = clockwise_distance(left.value, right.value, self.modulus)
        return 0 < d_self <= d_right

    def _check_compatible(self, other: "RingId") -> None:
        if self.bits != other.bits:
            raise ValueError("ring ids from different spaces")


@total_ordering
@dataclass(frozen=True)
class CycloidId:
    """A Cycloid identifier ``(cyclic index k, cubical index a)``.

    ``cyclic`` ranges over ``[0, dimension)``; ``cubical`` over
    ``[0, 2^dimension)``.  Ordering is lexicographic on (cubical, cyclic),
    which is the linearisation of the large-cycle-of-local-cycles layout.
    """

    cyclic: int
    cubical: int
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 0 <= self.cyclic < self.dimension:
            raise ValueError(
                f"cyclic index {self.cyclic} outside [0, {self.dimension})"
            )
        if not 0 <= self.cubical < (1 << self.dimension):
            raise ValueError(
                f"cubical index {self.cubical} outside [0, 2^{self.dimension})"
            )

    # -- linearisation ----------------------------------------------------

    @property
    def linear(self) -> int:
        """Position on the linearised ID space ``[0, d * 2^d)``.

        Local cycles are laid out consecutively: all ``d`` cyclic
        positions of cubical index 0, then of cubical index 1, and so on.
        This is the inverse of :meth:`from_linear` and of the paper's key
        mapping (hash mod d = cyclic, hash div d = cubical).
        """
        return self.cubical * self.dimension + self.cyclic

    @classmethod
    def from_linear(cls, value: int, dimension: int) -> "CycloidId":
        """Build an ID from a linear position (the paper's key mapping)."""
        space = cycloid_space_size(dimension)
        if not 0 <= value < space:
            raise ValueError(f"linear id {value} outside [0, {space})")
        return cls(
            cyclic=value % dimension,
            cubical=value // dimension,
            dimension=dimension,
        )

    # -- ordering ----------------------------------------------------------

    def _key(self) -> Tuple[int, int]:
        return (self.cubical, self.cyclic)

    def __lt__(self, other: "CycloidId") -> bool:
        self._check_compatible(other)
        return self._key() < other._key()

    def _check_compatible(self, other: "CycloidId") -> None:
        if self.dimension != other.dimension:
            raise ValueError("cycloid ids from different dimensions")

    # -- distance (paper §3.1) ---------------------------------------------

    def distance_to(self, other: "CycloidId") -> Tuple[int, int, int, int]:
        """Paper §3.1 closeness as a sortable tuple (smaller = closer).

        Primary: circular distance between cubical indices (mod ``2^d``).
        Secondary: circular distance between cyclic indices (mod ``d``).
        Tie-breaks: prefer the clockwise (successor) side — "in the case
        of two nodes with the same distance to the key's ID, the key's
        successor will be responsible" — and finally the clockwise linear
        distance, which makes the order strict (no two distinct ids
        compare equal, so every key has a unique owner).

        Plain inline arithmetic: this is the innermost call of every
        owner scan and greedy step on the object engine.
        """
        d = self.dimension
        if d != other.dimension:
            raise ValueError("cycloid ids from different dimensions")
        cube_mod = 1 << d
        cube = (self.cubical - other.cubical) % cube_mod
        if cube_mod - cube < cube:
            cube = cube_mod - cube
        cyc = (self.cyclic - other.cyclic) % d
        if d - cyc < cyc:
            cyc = d - cyc
        space = d * cube_mod
        # Clockwise from self.linear to other.linear on the linear space.
        cw = (
            (other.cubical - self.cubical) * d + other.cyclic - self.cyclic
        ) % space
        return (cube, cyc, 0 if cw <= space >> 1 else 1, cw)

    def packed_distance_to(self, other: "CycloidId") -> int:
        """:meth:`distance_to` packed into one int, in the same order.

        ``((cube * (d + 1) + cyc) * 2 + bias) * space + cw``: every
        field is below its multiplier, so integer order is tuple order,
        and distinct ids never tie.  The columnar kernel ranks by the
        same encoding (``CycloidKernel._packed_from``);
        :func:`cycloid_cube_unit` recovers the cubical distance.
        """
        cube, cyc, bias, cw = self.distance_to(other)
        d = self.dimension
        return ((cube * (d + 1) + cyc) * 2 + bias) * (d << d) + cw

    def closer_of(self, a: "CycloidId", b: "CycloidId") -> "CycloidId":
        """The closer of ``a`` and ``b`` to self under :meth:`distance_to`."""
        return a if self.distance_to(a) <= self.distance_to(b) else b

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.cyclic},{self.cubical:0{self.dimension}b})"
