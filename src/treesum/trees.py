"""Pruned binary prefix trees at a finite horizon, and the Silver parameterization.

A tree is stored by its horizon-length leaves; every node is a leaf prefix, so
pruned-ness holds by construction.  Nodes of length d are packed ints like
words: leaf >> (horizon - d) recovers the node a leaf passes through.  Shape
questions are answered from the sorted leaves and the depths at which
adjacent ones part, both built at the first such question.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import and_, or_, xor
from typing import Iterable

from treesum.bits import _MAX_FULL_LENGTH, Block, PatternSet, Point

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


def silver_to_prefix(T: SilverTree) -> PrefixTree:
    """Materialize the Silver tree as an explicit prefix tree at its horizon."""
    H = T.horizon
    free_bits = [1 << (H - 1 - i) for i in T.free]
    leaves = [T.x.value & ~sum(free_bits)]
    for bit in free_bits:
        leaves += [v | bit for v in leaves]
    return PrefixTree(H, frozenset(leaves))


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
        if horizon < 1:
            raise ValueError("horizon must be positive")
        if horizon > _MAX_FULL_LENGTH:
            raise ValueError(f"refusing to materialize 2^{horizon} leaves")
        # every leaf is in range by construction, so skip the per-leaf check
        tree = object.__new__(cls)
        object.__setattr__(tree, "horizon", horizon)
        object.__setattr__(tree, "leaves", frozenset(range(1 << horizon)))
        return tree

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
    def sorted_leaves(self) -> tuple[int, ...]:
        """The leaves in increasing order: the leaves below a node are one
        index range (see `span`)."""
        return tuple(sorted(self.leaves))

    @cached_property
    def cuts(self) -> list[int]:
        """cuts[i] = (S[i] ^ S[i+1]).bit_length() over the sorted leaves S.

        Adjacent leaves part at depth horizon - cuts[i], at exactly one
        splitting node, and each splitting node is met by exactly one
        adjacent pair: the pair of its left child's last leaf and its right
        child's first leaf."""
        S = self.sorted_leaves
        return list(map(int.bit_length, map(xor, S, S[1:])))

    @cached_property
    def split_counts(self) -> list[int]:
        """split_counts[d] = splitting nodes at depth d < horizon, counted
        off `cuts`; depth d then holds 1 + sum(split_counts[:d]) nodes."""
        counts = Counter(self.cuts)
        return [counts[self.horizon - d] for d in range(self.horizon)]

    def span(self, depth: int, value: int) -> tuple[int, int]:
        """Index range [lo, hi) of the sorted leaves below the length-`depth`
        node `value`; empty iff the node is not in the tree."""
        S, shift = self.sorted_leaves, self.horizon - depth
        lo = bisect_left(S, value << shift)
        return lo, bisect_left(S, (value + 1) << shift, lo)

    def contains_node(self, bits: str) -> bool:
        if bits == "":
            return True
        if any(c not in "01" for c in bits) or len(bits) > self.horizon:
            return False
        lo, hi = self.span(len(bits), int(bits, 2))
        return lo < hi

    def children(self, depth: int, value: int) -> tuple[int, ...]:
        """Children of a node, read off its first and last leaf."""
        lo, hi = self.span(depth, value)
        if lo == hi:
            return ()
        S, shift = self.sorted_leaves, self.horizon - depth - 1
        first, last = S[lo] >> shift, S[hi - 1] >> shift
        return (first,) if first == last else (first, last)

    def __len__(self) -> int:
        return len(self.leaves)


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

    No node splits below the deepest splitting level D, so the N leaves
    are the nodes at D plus one per split there; every node at D splits iff
    it holds N / 2 splits.  Every shallower node has a descendant at D, so
    this is classify's `perfect`.
    """
    splits = T.split_counts
    for d in range(T.horizon - 1, -1, -1):
        if splits[d]:
            return 2 * splits[d] == len(T.leaves)
    return False


def splitting_defect(T: PrefixTree) -> int:
    """Worst over all stems of how far past the stem the tree still fails to
    realize both bit values at some coordinate.

    For a stem of length d, coordinates below d are fixed, so the best
    achievable threshold is d - 1; the defect measures the excess of the
    actual per-stem threshold over that. 0 means splitting behavior starts
    immediately past every stem.

    Read in one stack pass over the cuts, the Cartesian tree of the
    splitting nodes.  The leaves below a node agree exactly on the zero bits
    of the OR of their adjacent XORs S[i] ^ S[i+1]; with p the 1-based
    position of its lowest zero bit, the stem's worst coordinate is H - p.
    A chain of non-splitting nodes keeps one leaf range, so it is worst at
    its top: the root, with defect H + 1 - p, or a child of a splitting node
    with cut c, with defect c - p.
    """
    H, S = T.horizon, T.sorted_leaves
    xs = list(map(xor, S, S[1:]))
    # (cut, XOR, OR of its left subtree), cuts falling from a bottom that
    # is never popped; a last cut of H + 1 pops every node
    worst, stack = 0, [(H + 2, 0, 0)]
    for c, x in zip(T.cuts + [H + 1], xs + [0]):
        # pop the nodes with a cut below c: each one's right subtree is the
        # OR gathered so far, and its worse child has the lower zero bit,
        # which is the lowest zero bit of left & right
        below = 0
        while stack[-1][0] < c:
            top, tx, left = stack.pop()
            y = left & below
            defect = top - ((y + 1) & ~y).bit_length()
            if defect > worst:
                worst = defect
            below |= left | tx
        stack.append((c, x, below))
    return max(worst, H + 1 - ((below + 1) & ~below).bit_length())


def classify(T: PrefixTree) -> KindFlags:
    """Kind flags of a tree at its horizon.

    Perfection is judged relative to the deepest splitting level: a tree whose
    nodes all reach a splitting extension before splits run out entirely
    counts as perfect, even though nodes past the last split trivially cannot
    split again before the horizon.  The perfect, uniform and Silver flags are
    read off the per-depth split counts (see `is_perfect`): uniform needs no
    node or every node of a level to split; Silver further needs all leaves
    to agree on the child bit of each level without splits.  The splitting
    flag compares the worst per-stem threshold, read in one pass over the
    cuts (see `splitting_defect`), against the fixed allowance horizon // 2;
    callers needing only perfection should call `is_perfect`.
    """
    H, splits = T.horizon, T.split_counts
    perfect = is_perfect(T)
    sizes = accumulate(splits, initial=1)
    uniform = perfect and all(s in (0, n) for s, n in zip(splits, sizes))
    # the coordinates on which every leaf agrees
    agree = ~(reduce(or_, T.leaves) ^ reduce(and_, T.leaves))
    silver = uniform and all(
        s or agree >> (H - 1 - d) & 1 for d, s in enumerate(splits)
    )
    splitting = splitting_defect(T) <= H // 2
    return KindFlags(perfect, uniform, silver, splitting)


def _stem_span(T: PrefixTree, stem: str) -> tuple[int, int]:
    if not T.contains_node(stem):
        raise ValueError(f"stem {stem!r} not in tree")
    return T.span(len(stem), int(stem, 2) if stem else 0)


def first_splitting_node(T: PrefixTree, stem: str, min_length: int) -> str:
    """Shortest, then lexicographically least, splitting node extending the
    stem with length >= min_length.  Raises when no such node exists.

    That node is met by the adjacent leaf pair under the stem with the
    largest cut <= horizon - start, start = max(len(stem), min_length), the
    least such pair on ties.  The stem's leaves are taken one depth-start
    node at a time, in increasing order; within one, every cut is small
    enough, and a cut of exactly horizon - start cannot be beaten."""
    lo, hi = _stem_span(T, stem)
    H, S, cuts = T.horizon, T.sorted_leaves, T.cuts
    shift = H - max(len(stem), min_length)
    best, at = 0, lo
    while shift > 0 and lo < hi and best < shift:
        end = bisect_left(S, ((S[lo] >> shift) + 1) << shift, lo, hi)
        if end - lo > 1:
            cut = max(cuts[lo:end - 1])
            if cut > best:
                best, at = cut, cuts.index(cut, lo, end - 1)
        lo = end
    if not best:
        raise ValueError(
            f"no splitting node of length >= {min_length} above {stem!r} "
            f"within horizon {H}"
        )
    d = H - best
    return format(S[at] >> best, f"0{d}b") if d else ""


def leftmost_leaf(T: PrefixTree, stem: str) -> str:
    """Least leaf extending the stem: the first of its sorted leaves."""
    lo, _ = _stem_span(T, stem)
    return format(T.sorted_leaves[lo], f"0{T.horizon}b")
