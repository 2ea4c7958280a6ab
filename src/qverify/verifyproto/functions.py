"""Toy trapdoor-function family on two-bit strings.

Every member maps (b, x) in {0,1}^2 to a two-bit image and is either a
bijection (all 24 permutations of the four inputs) or "claw-structured":
the restrictions y(0, .) and y(1, .) are each injective and share the same
two-element image, giving C(4,2) image sets x 2 x 2 branch orderings = 24
members.  Tables this small are brute-forceable by design; what matters is
the separation between the public table and the privately held inverse
data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


ONE_TO_ONE = "one-to-one"
TWO_TO_ONE = "two-to-one"


@dataclass(frozen=True)
class TrapdoorKey:
    """One family member: public table plus private inversion data.

    ``table[2*b + x]`` is the image of input (b, x), an integer 0..3 read
    as two bits.  For bijections ``inverse_map[y]`` is the unique preimage
    (b, x).  For claw keys ``preimage_pairs[y]`` is (x0, x1) with
    y = table[0*2 + x0] = table[1*2 + x1]; non-image slots hold None.
    """

    label: str
    kind: str
    table: tuple[int, int, int, int]
    inverse_map: tuple[tuple[int, int], ...] | None = None
    preimage_pairs: tuple[tuple[int, int] | None, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ONE_TO_ONE, TWO_TO_ONE):
            raise ValueError(f"unknown key kind {self.kind!r}")
        if len(self.table) != 4 or any(not 0 <= t < 4 for t in self.table):
            raise ValueError("table must map the four inputs into 0..3")

    def apply(self, b: int, x: int) -> int:
        return self.table[2 * b + x]

    def invert(self, y: int) -> tuple[int, int]:
        """Unique preimage (b, x) of ``y``; bijection keys only."""
        if self.kind != ONE_TO_ONE:
            raise ValueError(f"{self.label} is not one-to-one")
        return self.inverse_map[y]

    def preimages(self, y: int) -> tuple[int, int]:
        """Branch preimages (x0, x1) of ``y``; claw keys only."""
        if self.kind != TWO_TO_ONE:
            raise ValueError(f"{self.label} is not two-to-one")
        pair = self.preimage_pairs[y]
        if pair is None:
            raise ValueError(f"image {y} has no preimage under {self.label}")
        return pair

    def in_image(self, y: int) -> bool:
        if self.kind == ONE_TO_ONE:
            return 0 <= y < 4
        return 0 <= y < 4 and self.preimage_pairs[y] is not None


def _one_to_one_keys() -> list[TrapdoorKey]:
    keys = []
    for i, perm in enumerate(itertools.permutations(range(4))):
        inverse: list[tuple[int, int] | None] = [None] * 4
        for b in (0, 1):
            for x in (0, 1):
                inverse[perm[2 * b + x]] = (b, x)
        keys.append(
            TrapdoorKey(
                label=f"f{i:02d}",
                kind=ONE_TO_ONE,
                table=tuple(perm),
                inverse_map=tuple(inverse),
            )
        )
    return keys


def _two_to_one_keys() -> list[TrapdoorKey]:
    keys = []
    idx = 0
    for image in itertools.combinations(range(4), 2):
        # each branch independently picks one of the two orderings of the
        # shared image set, so both restrictions stay injective
        for branch0 in (image, image[::-1]):
            for branch1 in (image, image[::-1]):
                pairs: list[tuple[int, int] | None] = [None] * 4
                for y in image:
                    pairs[y] = (branch0.index(y), branch1.index(y))
                keys.append(
                    TrapdoorKey(
                        label=f"f{24 + idx:02d}",
                        kind=TWO_TO_ONE,
                        table=(*branch0, *branch1),
                        preimage_pairs=tuple(pairs),
                    )
                )
                idx += 1
    return keys


_FAMILIES: tuple[tuple[TrapdoorKey, ...], tuple[TrapdoorKey, ...]] | None = None


def enumerate_functions() -> tuple[tuple[TrapdoorKey, ...], tuple[TrapdoorKey, ...]]:
    """All 24 one-to-one and all 24 two-to-one keys, in a fixed order."""
    global _FAMILIES
    if _FAMILIES is None:
        _FAMILIES = (tuple(_one_to_one_keys()), tuple(_two_to_one_keys()))
    return _FAMILIES


def key_family(basis: str) -> tuple[TrapdoorKey, ...]:
    """Keys that delegate a ``basis`` measurement: one-to-one for Z,
    two-to-one for X.  Any other basis is refused."""
    b = basis.lower()
    if b not in ("x", "z"):
        raise ValueError(f"basis must be 'x' or 'z', got {basis!r}")
    ones, twos = enumerate_functions()
    return ones if b == "z" else twos


def keygen(basis: str, rng: np.random.Generator) -> TrapdoorKey:
    """Uniform key from the family matching the basis to be delegated,
    drawn from ``rng``."""
    family = key_family(basis)
    return family[int(rng.integers(len(family)))]
