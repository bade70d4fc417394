"""Finite-horizon covers for the three smallness notions.

A cover pins down a set of points by per-block data over a partition:
avoidance of a fixed point blockwise (meager), summable pattern densities
(small, and unions of two smalls), or densities at most 1/2 (the simple
regime).  Membership follows the blockwise quantifiers, through the words
a cover admits on each block (`admitted`); small covers deliberately have
no point test, see `SmallCover`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from .bits import Block, Partition, PatternSet, Point, restrict
from .trees import PrefixTree

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MeagerCover:
    """Points that differ from ``xF`` on every block at or past ``threshold``."""

    xF: Point
    partition: Partition
    threshold: int

    def __post_init__(self):
        if self.xF.horizon != self.partition.horizon:
            raise ValueError(
                f"point horizon {self.xF.horizon} != "
                f"partition horizon {self.partition.horizon}"
            )
        if not 0 <= self.threshold <= len(self.partition):
            raise ValueError(f"threshold {self.threshold} out of range")

    @property
    def horizon(self) -> int:
        return self.partition.horizon

    def allowed(self, n: int) -> PatternSet:
        """Every word on block n except the restriction of ``xF``."""
        b = self.partition[n]
        keep = frozenset(range(1 << b.length)) - {restrict(self.xF, b).value}
        return PatternSet(b, keep)


def _check_blockwise(partition: Partition, patterns: tuple[PatternSet, ...]) -> None:
    if len(patterns) != len(partition):
        raise ValueError(
            f"{len(patterns)} pattern sets for {len(partition)} blocks"
        )
    for n, (b, J) in enumerate(zip(partition.blocks, patterns)):
        if J.block != b:
            raise ValueError(f"pattern set {n} on {J.block}, expected {b}")


@dataclass(frozen=True)
class SmallCover:
    """Summable blockwise pattern family; a point is captured when its
    restriction lands in J_n for infinitely many n, which no finite
    horizon can decide, so this type carries data only."""

    partition: Partition
    patterns: tuple[PatternSet, ...]

    def __post_init__(self):
        _check_blockwise(self.partition, self.patterns)

    @property
    def horizon(self) -> int:
        return self.partition.horizon

    @property
    def mass(self) -> Fraction:
        return sum((J.density for J in self.patterns), Fraction(0))


@dataclass(frozen=True)
class NullCover:
    """Union of two small covers."""

    first: SmallCover
    second: SmallCover

    def __post_init__(self):
        if self.first.horizon != self.second.horizon:
            raise ValueError("component covers live on different horizons")

    @property
    def horizon(self) -> int:
        return self.first.horizon


@dataclass(frozen=True)
class ECover:
    """Points whose restriction lands in J_n for every block past threshold.

    Densities at most 1/2 make this an E-set; the bound is audited, not
    enforced here, so that failing inputs can be represented and reported.
    """

    partition: Partition
    patterns: tuple[PatternSet, ...]
    threshold: int = 0

    def __post_init__(self):
        _check_blockwise(self.partition, self.patterns)
        if not 0 <= self.threshold <= len(self.partition):
            raise ValueError(f"threshold {self.threshold} out of range")

    @property
    def horizon(self) -> int:
        return self.partition.horizon


def e_density_audit(C: ECover) -> tuple[Fraction, bool]:
    worst = max((J.density for J in C.patterns), default=Fraction(0))
    return worst, worst <= Fraction(1, 2)


def strict_e_to_simple(C: ECover) -> ECover:
    """Re-audit a cover whose densities shrink geometrically (at most 2^-n
    per block) under the flat 1/2 regime.

    Block 0 is the only block where 2^-n exceeds 1/2; when it uses that
    headroom the result starts at block 1 instead, whose tail has the same
    members.
    """
    for n, J in enumerate(C.patterns):
        if J.density > Fraction(1, 2**n):
            raise ValueError(
                f"geometric bound violated at block {n}: "
                f"density {J.density} > 1/2^{n}"
            )
    threshold = C.threshold
    if C.patterns and C.patterns[0].density > Fraction(1, 2):
        threshold = max(threshold, 1)
        log.debug("block 0 density above 1/2, starting at block 1")
    patterns = tuple(
        PatternSet.empty(J.block) if n < threshold else J
        for n, J in enumerate(C.patterns)
    )
    return ECover(C.partition, patterns, threshold)


@dataclass(frozen=True)
class BlockCheck:
    """One verified inclusion: source + fold-sum of tree patterns vs target."""

    fold: int
    block_index: int
    passed: bool


@dataclass(frozen=True)
class Certificate:
    label: str
    partition: Partition
    thresholds: tuple[tuple[int, int], ...]
    checks: tuple[BlockCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def vacuous_folds(self) -> tuple[int, ...]:
        """Folds whose threshold leaves no block to check."""
        return tuple(
            fold for fold, thr in self.thresholds if thr >= len(self.partition)
        )


Cover = MeagerCover | SmallCover | ECover

_KINDS = {MeagerCover: "meager", SmallCover: "small", ECover: "e"}


def admitted(cover: Cover, n: int) -> PatternSet:
    """The words a cover admits on block n: every word below its threshold,
    past it the allowed words of a meager cover or the listed patterns."""
    if n < getattr(cover, "threshold", 0):
        return PatternSet.full(cover.partition[n])
    if isinstance(cover, MeagerCover):
        return cover.allowed(n)
    return cover.patterns[n]


@dataclass(frozen=True)
class CertificateRequest:
    """One claim, source + b-fold tree patterns inside each fold's witness.

    `source` is the operation's input cover and `ranges` the run of its
    blocks that each witness block spans; every `per_fold` cover is of the
    source's type, and `mass_bounds` bound a small witness's mass per fold.
    """

    label: str
    source: Cover
    ranges: tuple[tuple[int, int], ...]
    tree: PrefixTree
    per_fold: tuple[tuple[int, Cover], ...]
    mass_bounds: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        if not self.per_fold:
            raise ValueError("request has no folds")
        folds = [fold for fold, _ in self.per_fold]
        if len(set(folds)) != len(folds):
            raise ValueError(f"repeated fold count in {folds}")
        for fold, cover in self.per_fold:
            if type(cover) is not type(self.source):
                raise ValueError(f"fold {fold} cover is not of the source's type")
            if cover.partition != self.partition:
                raise ValueError(f"fold {fold} cover is off the request partition")
        fine = self.source.partition
        if len(self.ranges) != len(self.partition) or any(
            not 0 <= lo < hi <= len(fine)
            or Block(fine[lo].lo, fine[hi - 1].hi) != blk
            for (lo, hi), blk in zip(self.ranges, self.partition)
        ):
            raise ValueError("ranges do not tile the witness partition")
        if self.partition.horizon > self.tree.horizon:
            raise ValueError("witness partition reaches past the tree horizon")

    @property
    def partition(self) -> Partition:
        return self.per_fold[0][1].partition

    @property
    def kind(self) -> str:
        return _KINDS[type(self.source)]

    @property
    def point_source(self) -> MeagerCover | ECover | None:
        """The cover the exhaustive oracle starts from; small covers have
        no point test."""
        return None if isinstance(self.source, SmallCover) else self.source

    @property
    def uniform_witness(self) -> bool:
        """Whether one cover serves every fold."""
        return len({cover for _, cover in self.per_fold}) == 1


@dataclass(frozen=True)
class Stage:
    """Finite antichain of cylinder nodes with its exact union measure."""

    nodes: tuple[str, ...]
    measure: Fraction

    def __post_init__(self):
        for s in self.nodes:
            if not s or set(s) - {"0", "1"}:
                raise ValueError(f"bad cylinder node {s!r}")
        ordered = sorted(self.nodes)
        if len(ordered) != len(set(ordered)):
            raise ValueError("duplicate cylinder nodes")
        for a, b in zip(ordered, ordered[1:]):
            if b.startswith(a):
                raise ValueError(f"nodes {a!r} and {b!r} are not incomparable")
        total = sum((Fraction(1, 2 ** len(s)) for s in self.nodes), Fraction(0))
        if total != self.measure:
            raise ValueError(
                f"stated measure {self.measure} != cylinder union measure {total}"
            )

    @property
    def max_length(self) -> int:
        return max((len(s) for s in self.nodes), default=0)


@dataclass(frozen=True)
class ClosedNullChain:
    """Refining sequence of closed-set approximations: every node of a
    stage extends a node of the previous stage and depths grow strictly,
    with each stage's raw measure below 1/2."""

    stages: tuple[Stage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("chain needs at least one stage")
        for k, stage in enumerate(self.stages):
            if stage.measure >= Fraction(1, 2):
                raise ValueError(
                    f"stage {k} measure {stage.measure} is not below 1/2"
                )
        for k in range(1, len(self.stages)):
            prev, cur = self.stages[k - 1], self.stages[k]
            for s in cur.nodes:
                if not any(s.startswith(t) for t in prev.nodes):
                    raise ValueError(
                        f"stage {k} node {s!r} extends no stage {k - 1} node"
                    )
            if cur.max_length <= prev.max_length:
                raise ValueError(f"stage {k} does not deepen stage {k - 1}")
