"""Pruned binary prefix trees at a finite horizon, and the Silver parameterization.

A tree is stored by its horizon-length leaves; every node is a leaf prefix, so
pruned-ness holds by construction.  Nodes of length d are packed ints like
words: leaf >> (horizon - d) recovers the node a leaf passes through.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from treesum.bits import _MAX_FULL_LENGTH, Block, PatternSet, Point, Word, restrict

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SilverTree:
    """Tree determined by a base point and a set of free coordinates.

    A node belongs to the tree iff it agrees with `x` on every coordinate of
    its domain outside `free`.  Bits of `x` on free coordinates are irrelevant
    to the semantics and are kept as given.
    """

    x: Point
    free: frozenset[int]

    def __post_init__(self) -> None:
        for i in self.free:
            if not (0 <= i < self.x.horizon):
                raise ValueError(f"free coordinate {i} outside horizon {self.x.horizon}")

    @property
    def horizon(self) -> int:
        return self.x.horizon

    def canonical(self) -> "SilverTree":
        """Same tree with the irrelevant free-coordinate bits of x zeroed."""
        value = self.x.value
        for i in self.free:
            value &= ~(1 << (self.horizon - 1 - i))
        return SilverTree(Point(self.horizon, value), self.free)


def silver_sum(T1: SilverTree, T2: SilverTree) -> SilverTree:
    """Parameters of the sumset of two Silver bodies: XOR the base points,
    union the free sets."""
    if T1.horizon != T2.horizon:
        raise ValueError("horizon mismatch")
    return SilverTree(T1.x ^ T2.x, T1.free | T2.free)


def silver_to_prefix(T: SilverTree, depth: int | None = None) -> PrefixTree:
    """Materialize the Silver tree as an explicit prefix tree of the given depth."""
    if depth is None:
        depth = T.horizon
    if not (1 <= depth <= T.horizon):
        raise ValueError(f"depth {depth} must lie in [1, {T.horizon}]")
    free_bits = [1 << (depth - 1 - i) for i in T.free if i < depth]
    leaves = [T.x.truncate(depth).value & ~sum(free_bits)]
    for bit in free_bits:
        leaves += [v | bit for v in leaves]
    return PrefixTree(depth, frozenset(leaves))


@dataclass(frozen=True)
class PrefixTree:
    """Nonempty pruned tree: all leaves have length exactly `horizon`."""

    horizon: int
    leaves: frozenset[int]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not self.leaves:
            raise ValueError("tree needs at least one leaf")
        top = 1 << self.horizon
        for v in self.leaves:
            if not (0 <= v < top):
                raise ValueError(f"leaf {v} out of range for horizon {self.horizon}")

    @classmethod
    def full(cls, horizon: int) -> "PrefixTree":
        if horizon > _MAX_FULL_LENGTH:
            raise ValueError(f"refusing to materialize 2^{horizon} leaves")
        return cls(horizon, frozenset(range(1 << horizon)))

    @classmethod
    def from_leaves(cls, leaves: Iterable[str]) -> "PrefixTree":
        ls = list(leaves)
        if not ls:
            raise ValueError("no leaves given")
        horizon = len(ls[0])
        for s in ls:
            if len(s) != horizon:
                raise ValueError(f"leaf {s!r} has length {len(s)}, expected {horizon}")
        return cls(horizon, frozenset(Point.from_bits(s).value for s in ls))

    @cached_property
    def levels(self) -> tuple[frozenset[int], ...]:
        """levels[d] = packed values of the length-d nodes, built bottom-up:
        each level holds the parents of the level below."""
        out = [self.leaves]
        for _ in range(self.horizon):
            out.append(frozenset(v >> 1 for v in out[-1]))
        return tuple(reversed(out))

    def contains_node(self, bits: str) -> bool:
        if bits == "":
            return True
        if any(c not in "01" for c in bits) or len(bits) > self.horizon:
            return False
        return int(bits, 2) in self.levels[len(bits)]

    def children(self, depth: int, value: int) -> tuple[int, ...]:
        nxt = self.levels[depth + 1]
        return tuple(c for c in ((value << 1) | 0, (value << 1) | 1) if c in nxt)

    def __len__(self) -> int:
        return len(self.leaves)


def body(T: PrefixTree) -> tuple[Word, ...]:
    """Maximal nodes as words on [0, horizon), in canonical order."""
    block = Block(0, T.horizon)
    return tuple(Word(block, v) for v in sorted(T.leaves))


def tree_restrict(T: PrefixTree, b: Block) -> PatternSet:
    """Restrictions of all leaves to a block."""
    if b.hi > T.horizon:
        raise ValueError(f"block {b} beyond horizon {T.horizon}")
    shift, mask = T.horizon - b.hi, b.mask
    return PatternSet(b, frozenset((v >> shift) & mask for v in T.leaves))


def is_subtree(S: PrefixTree, T: PrefixTree) -> bool:
    if S.horizon != T.horizon:
        raise ValueError("horizon mismatch")
    # pruned trees: node containment reduces to leaf containment
    return S.leaves <= T.leaves


@dataclass(frozen=True)
class KindFlags:
    perfect: bool
    uniformly_perfect: bool
    silver: bool
    splitting_at_horizon: bool


def is_perfect(T: PrefixTree) -> bool:
    """Whether every node at the deepest splitting level splits.

    A node has one or two children, so depth d holds
    len(levels[d+1]) - len(levels[d]) splitting nodes.  Scanning up from the
    leaves, the first level with a split is the deepest one, and every node
    there splits iff the level below is twice as large.  Every shallower node
    has a descendant at that level, so this is classify's `perfect`.
    """
    levels = T.levels
    for d in range(T.horizon - 1, -1, -1):
        if len(levels[d + 1]) != len(levels[d]):
            return len(levels[d + 1]) == 2 * len(levels[d])
    return False


def splitting_defect(T: PrefixTree) -> int:
    """Worst over all stems of how far past the stem the tree still fails to
    realize both bit values at some coordinate.

    For a stem of length d, coordinates below d are fixed, so the best
    achievable threshold is d - 1; the defect measures the excess of the
    actual per-stem threshold over that. 0 means splitting behavior starts
    immediately past every stem.
    """
    return max(n for _, n in _defect_items(T))


def _defect_items(T: PrefixTree) -> Iterator[tuple[tuple[int, int], int]]:
    H = T.horizon
    full = (1 << H) - 1
    # node -> (OR of the leaves below it) << H | (OR of their complements),
    # each level folded from the level below
    masks = {v: v << H | ~v & full for v in T.leaves}
    per_level = [masks]
    for _ in range(H):
        up: dict[int, int] = {}
        for c, m in masks.items():
            up[c >> 1] = up.get(c >> 1, 0) | m
        masks = up
        per_level.append(masks)
    for d, masks in enumerate(reversed(per_level)):
        # coordinate n >= d sits at bit H-1-n; the worst is the largest n not
        # realized with both values, i.e. the lowest set bit of `missing`
        window = (1 << (H - d)) - 1
        for v, m in masks.items():
            missing = ~(m >> H & m) & window
            worst = H - (missing & -missing).bit_length() if missing else d - 1
            yield (d, v), worst - (d - 1)


def classify(T: PrefixTree, split_allowance: int | None = None) -> KindFlags:
    """Kind flags of a tree at its horizon.

    Perfection is judged relative to the deepest splitting level: a tree whose
    nodes all reach a splitting extension before splits run out entirely
    counts as perfect, even though nodes past the last split trivially cannot
    split again before the horizon.  The perfect, uniform and Silver flags are
    read off the level sizes (see `is_perfect`): a level where no node splits
    keeps its size and one where every node splits doubles it; Silver further
    needs one child bit across each level without splits.  The splitting flag
    compares the worst per-stem threshold against an allowance (default
    horizon // 2) and is the only part that visits every node with per-node
    masks; callers needing only perfection should call `is_perfect`.
    """
    if split_allowance is None:
        split_allowance = T.horizon // 2
    steps = list(zip(T.levels, T.levels[1:]))
    perfect = is_perfect(T)
    uniform = perfect and all(len(b) in (len(a), 2 * len(a)) for a, b in steps)
    silver = uniform and all(
        len(b) == 2 * len(a) or len({c & 1 for c in b}) == 1 for a, b in steps
    )
    splitting = splitting_defect(T) <= split_allowance
    return KindFlags(perfect, uniform, silver, splitting)


def first_splitting_node(T: PrefixTree, stem: str, min_length: int) -> str:
    """Shortest, then lexicographically least, splitting node extending the
    stem with length >= min_length.  Raises when no such node exists.

    The stem's nodes at depth max(len(stem), min_length) are walked in
    increasing order, each down its single-child chain to its first split;
    a later node's chain is larger, so it only counts if it splits sooner."""
    if not T.contains_node(stem):
        raise ValueError(f"stem {stem!r} not in tree")
    levels, H = T.levels, T.horizon
    start = max(len(stem), min_length)
    frontier = [int(stem, 2) if stem else 0] if start < H else []
    for nxt in levels[len(stem) + 1:start + 1]:
        frontier = [c for v in frontier for c in (v << 1, (v << 1) | 1) if c in nxt]
    best = (H, 0)
    for v in frontier:
        d = start
        while d < best[0]:
            right = ((v << 1) | 1) in levels[d + 1]
            if right and (v << 1) in levels[d + 1]:
                best = (d, v)
                break
            v, d = (v << 1) | right, d + 1
        if best[0] == start:
            break
    d, v = best
    if d == H:
        raise ValueError(
            f"no splitting node of length >= {min_length} above {stem!r} "
            f"within horizon {H}"
        )
    return format(v, f"0{d}b") if d else ""


def leftmost_leaf(T: PrefixTree, stem: str) -> str:
    """Least leaf extending the stem: child 0 wherever it is present."""
    if not T.contains_node(stem):
        raise ValueError(f"stem {stem!r} not in tree")
    v = int(stem, 2) if stem else 0
    for d in range(len(stem) + 1, T.horizon + 1):
        v = (v << 1) | ((v << 1) not in T.levels[d])
    return format(v, f"0{T.horizon}b")
