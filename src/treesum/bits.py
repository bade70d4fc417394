"""Exact bit algebra on a finite horizon: blocks, partitions, words, pattern sets.

Bit strings are packed into ints MSB-first: the bit at the smallest absolute
index is the most significant bit of the value.  Lexicographic order on bit
strings therefore coincides with numeric order on values, which makes numeric
sorting the canonical serialization order.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

log = logging.getLogger(__name__)


def _parse_bits(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bit string must be nonempty over 0/1, got {bits!r}")
    return int(bits, 2)


def _render_bits(value: int, length: int) -> str:
    return format(value, f"0{length}b")


@dataclass(frozen=True, order=True)
class Block:
    """Half-open interval [lo, hi) of absolute bit indices."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"block needs 0 <= lo < hi, got [{self.lo}, {self.hi})")

    @property
    def length(self) -> int:
        return self.hi - self.lo

    @property
    def mask(self) -> int:
        return (1 << self.length) - 1

    def __contains__(self, index: object) -> bool:
        return isinstance(index, int) and self.lo <= index < self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"


@dataclass(frozen=True)
class Partition:
    """Contiguous blocks tiling [0, horizon) in order."""

    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("partition needs at least one block")
        if self.blocks[0].lo != 0:
            raise ValueError("partition must start at index 0")
        for left, right in zip(self.blocks, self.blocks[1:]):
            if left.hi != right.lo:
                raise ValueError(f"partition gap between {left} and {right}")

    @classmethod
    def from_lengths(cls, lengths: Sequence[int]) -> "Partition":
        blocks, lo = [], 0
        for n in lengths:
            blocks.append(Block(lo, lo + n))
            lo += n
        return cls(tuple(blocks))

    @property
    def horizon(self) -> int:
        return self.blocks[-1].hi

    def index_of(self, index: int) -> int:
        """Index of the block containing the absolute bit index."""
        for i, b in enumerate(self.blocks):
            if index in b:
                return i
        raise ValueError(f"index {index} outside horizon {self.horizon}")

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __getitem__(self, i: int) -> Block:
        return self.blocks[i]


def coarsen(partition: Partition, group_sizes: Sequence[int]) -> Partition:
    """Merge consecutive blocks into super-blocks of the given sizes.

    The group sizes must consume all blocks of the partition exactly.
    """
    blocks, i = [], 0
    for size in group_sizes:
        if size < 1:
            raise ValueError("group sizes must be positive")
        if i + size > len(partition):
            raise ValueError("group sizes overrun the partition")
        blocks.append(Block(partition[i].lo, partition[i + size - 1].hi))
        i += size
    if i != len(partition):
        raise ValueError(f"group sizes cover {i} of {len(partition)} blocks")
    return Partition(tuple(blocks))


@dataclass(frozen=True, order=True)
class Word:
    """Bit string living on a block, packed MSB-first into `value`."""

    block: Block
    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.value < (1 << self.block.length)):
            raise ValueError(f"value {self.value} out of range for block {self.block}")

    @classmethod
    def from_bits(cls, bits: str, block: Block | None = None) -> "Word":
        if block is None:
            block = Block(0, len(bits))
        if len(bits) != block.length:
            raise ValueError(f"word length {len(bits)} != block {block} length")
        return cls(block, _parse_bits(bits))

    def bits(self) -> str:
        return _render_bits(self.value, self.block.length)

    def __str__(self) -> str:
        return self.bits()


def indicator_word(block: Block, indices: Iterable[int]) -> Word:
    """Characteristic word of a set of absolute indices, clipped to the block."""
    value = 0
    for i in indices:
        if i in block:
            value |= 1 << (block.hi - 1 - i)
    return Word(block, value)


@dataclass(frozen=True)
class Point:
    """Bit string on [0, horizon), packed MSB-first like a Word."""

    horizon: int
    value: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not (0 <= self.value < (1 << self.horizon)):
            raise ValueError(f"value {self.value} out of range for horizon {self.horizon}")

    @classmethod
    def from_bits(cls, bits: str) -> "Point":
        return cls(len(bits), _parse_bits(bits))

    @classmethod
    def zero(cls, horizon: int) -> "Point":
        return cls(horizon, 0)

    def bits(self) -> str:
        return _render_bits(self.value, self.horizon)

    def truncate(self, horizon: int) -> "Point":
        if horizon > self.horizon:
            raise ValueError("cannot truncate to a larger horizon")
        return Point(horizon, self.value >> (self.horizon - horizon))

    def __xor__(self, other: "Point") -> "Point":
        if self.horizon != other.horizon:
            raise ValueError("horizon mismatch")
        return Point(self.horizon, self.value ^ other.value)

    def __str__(self) -> str:
        return self.bits()


def restrict(p: Point, block: Block) -> Word:
    """Restriction of a point to a block within its horizon."""
    if block.hi > p.horizon:
        raise ValueError(f"block {block} beyond horizon {p.horizon}")
    return Word(block, (p.value >> (p.horizon - block.hi)) & block.mask)


# Widest block whose full word set may be materialized, as a frozenset or as
# a 2^length-bit int (at most 128 KiB); also the deepest full prefix tree.
_MAX_FULL_LENGTH = 20


@dataclass(frozen=True)
class PatternSet:
    """Finite set of same-block words, stored as packed values."""

    block: Block
    values: frozenset[int]

    def __post_init__(self) -> None:
        top = 1 << self.block.length
        for v in self.values:
            if not (0 <= v < top):
                raise ValueError(f"value {v} out of range for block {self.block}")

    @classmethod
    def from_bits(cls, block: Block, patterns: Iterable[str]) -> "PatternSet":
        return cls(block, frozenset(Word.from_bits(s, block).value for s in patterns))

    @classmethod
    def empty(cls, block: Block) -> "PatternSet":
        return cls(block, frozenset())

    @classmethod
    def full(cls, block: Block) -> "PatternSet":
        if block.length > _MAX_FULL_LENGTH:
            raise ValueError(f"refusing to materialize 2^{block.length} words")
        return cls(block, frozenset(range(1 << block.length)))

    def words(self) -> tuple[Word, ...]:
        """Members in canonical (lexicographic == numeric) order."""
        return tuple(Word(self.block, v) for v in sorted(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Word):
            return item.block == self.block and item.value in self.values
        return item in self.values

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.values), 1 << self.block.length)


def pattern_sum(J: PatternSet, K: PatternSet) -> PatternSet:
    """Blockwise XOR sumset {u + v : u in J, v in K}.

    An empty operand gives an empty result (logged, not an error).  When the
    pair loop would take more than 2^L steps on an L-bit block (L at most
    20), the sum runs on bitsets instead; the result is the same set.
    """
    if J.block != K.block:
        raise ValueError(f"blocks differ: {J.block} vs {K.block}")
    if not J.values or not K.values:
        log.debug("pattern_sum over empty operand on block %s", J.block)
        return PatternSet.empty(J.block)
    length = J.block.length
    if length <= _MAX_FULL_LENGTH and len(J) * len(K) > 1 << length:
        small, large = sorted((J.values, K.values), key=len)
        bits = _sum_bits(sorted(small), _to_bitset(large, length), length)
        return PatternSet(J.block, _from_bitset(bits, length))
    return PatternSet(J.block, frozenset(u ^ v for u in J.values for v in K.values))


# Bitset kernel for pattern_sum.  A set of words on an L-bit block is the
# 2^L-bit int whose bit v is set when word v is a member.  Its cost follows
# 2^L, not the number of words, hence the pair-count rule in pattern_sum.

_BYTE_BITS = tuple(
    tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)
)


@cache
def _swap_masks(length: int) -> tuple[int, ...]:
    """masks[i] has bit v set for every v < 2^length whose bit i is 0."""
    size = 1 << length
    masks = []
    for i in range(length):
        mask, width = (1 << (1 << i)) - 1, 1 << (i + 1)
        while width < size:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return tuple(masks)


def _translate(bits: int, w: int, masks: tuple[int, ...]) -> int:
    """The bitset of {v ^ w : v in bits}: one half swap per set bit of w."""
    while w:
        low = w & -w
        mask = masks[low.bit_length() - 1]
        bits = ((bits & mask) << low) | ((bits >> low) & mask)
        w ^= low
    return bits


def _translate_union(
    words: list[int], lo: int, hi: int, base: int, top: int,
    bits: int, masks: tuple[int, ...],
) -> int:
    """OR of the translates of `bits` by w - base for the sorted words[lo:hi],
    all of which lie in [base, base + 2^(top+1)).

    Splitting on bit `top` shares one translate by 2^top among every word of
    the upper half, so a dense operand costs far fewer than |words|·L swaps.
    """
    if hi - lo == 1:
        return _translate(bits, words[lo] - base, masks)
    half = 1 << top
    mid = bisect_left(words, base + half, lo, hi)
    out = 0
    if mid > lo:
        out = _translate_union(words, lo, mid, base, top - 1, bits, masks)
    if hi > mid:
        upper = _translate_union(words, mid, hi, base + half, top - 1, bits, masks)
        out |= _translate(upper, half, masks)
    return out


def _basis(values: Iterable[int], v0: int) -> list[int]:
    """Echelon basis of span{v + v0 : v in values}, by GF(2) elimination:
    each step takes the largest word left as a pivot and folds the set onto
    the words that lack the pivot's leading bit."""
    rest = {v ^ v0 for v in values}
    rest.discard(0)
    basis = []
    while rest:
        pivot = max(rest)
        top = 1 << (pivot.bit_length() - 1)
        rest = {v ^ pivot if v & top else v for v in rest}
        rest.discard(0)
        basis.append(pivot)
    return basis


def _sum_bits(words: list[int], bits: int, length: int) -> int:
    """OR of the translates of the 2^length-bit set `bits` by the sorted
    `words`; empty `words` give the empty union.

    When the 2^k words have rank k over words[0] they are the coset
    words[0] + span(basis), so closing `bits` under each basis vector and
    translating once by words[0] takes k + 1 translates, not one per word.
    """
    if not words:
        return 0
    masks = _swap_masks(length)
    n = len(words)
    if not n & (n - 1):
        basis = _basis(words, words[0])
        if 1 << len(basis) == n:
            for v in basis:
                bits |= _translate(bits, v, masks)
            return _translate(bits, words[0], masks)
    return _translate_union(words, 0, n, 0, length - 1, bits, masks)


def _to_bitset(values: frozenset[int], length: int) -> int:
    buf = bytearray(((1 << length) + 7) >> 3)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _from_bitset(bits: int, length: int) -> frozenset[int]:
    data = bits.to_bytes(((1 << length) + 7) >> 3, "little")
    return frozenset(
        j << 3 | i
        for j, byte in enumerate(data) if byte
        for i in _BYTE_BITS[byte]
    )


def block_product(parts: Sequence[PatternSet]) -> PatternSet:
    """Concatenation product over contiguous blocks; density multiplies."""
    if not parts:
        raise ValueError("block_product needs at least one factor")
    for left, right in zip(parts, parts[1:]):
        if left.block.hi != right.block.lo:
            raise ValueError(f"blocks {left.block} and {right.block} not contiguous")
    block = Block(parts[0].block.lo, parts[-1].block.hi)
    values = [0]
    for part in parts:
        shift = part.block.length
        if not part.values:
            log.debug("block_product over empty factor on block %s", part.block)
            return PatternSet.empty(block)
        values = [(v << shift) | u for v in values for u in part.values]
    return PatternSet(block, frozenset(values))
