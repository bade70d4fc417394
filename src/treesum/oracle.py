"""Brute-force validation of construction claims.

Two independent paths to the same question: blockwise pattern inclusion
(the shape the proofs argue in) and a test of every source point plus
every fold-sum of the tree, run on full-horizon point sets.  Both are
exact; the point-set path is capped by horizon and an explicit work budget
rather than silently sampled.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .bits import (
    Block,
    PatternSet,
    Point,
    _basis,
    _from_bitset,
    _sum_bits,
    _to_bitset,
    block_product,
    pattern_sum,
    restrict,
)
from .covers import (
    BlockCheck,
    Certificate,
    CertificateRequest,
    ECover,
    MeagerCover,
    SmallCover,
    admitted,
    e_density_audit,
)
from .trees import PrefixTree, tree_restrict

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 1 << 22
DEFAULT_HORIZON_CAP = 14


class BudgetExceeded(RuntimeError):
    pass


def _nfold_chain(J: PatternSet, budget: int) -> Iterator[PatternSet]:
    """J^(1), J^(2), …: the k-fold XOR sumsets of a pattern set, one per
    step, each fold from the one before.

    Before fold k + 1 the chain charges |J^(k)|·|J| pairs, cumulatively,
    against the budget.  With j0 in J, J^(k) = k·j0 + (J + j0)^(k), and the
    right term grows until it fills span(J + j0).  So once |J^(k)| is
    2^rank(J + j0) the next fold is J^(k) + j0, a translate that needs no
    sum; the rank is found once, at the first power-of-two fold.
    """
    acc, spent, rank = J, 0, None
    while True:
        yield acc
        spent += len(acc) * len(J)
        if spent > budget:
            raise BudgetExceeded(f"fold sum budget {budget} exceeded")
        size = len(acc)
        if size and not size & (size - 1):
            j0 = next(iter(J.values))
            if rank is None:
                rank = len(_basis(J.values, j0))
            if size == 1 << rank:
                acc = PatternSet(J.block, frozenset(v ^ j0 for v in acc.values))
                continue
        acc = pattern_sum(acc, J)


def pattern_nfold(
    J: PatternSet, n: int, budget: int = DEFAULT_BUDGET
) -> PatternSet:
    """n-fold XOR sumset of a pattern set, fold n of `_nfold_chain`; the
    empty sum is {zero}."""
    if n < 0:
        raise ValueError("fold count must be at least 0")
    if n == 0:
        return PatternSet(J.block, frozenset({0}))
    return next(islice(_nfold_chain(J, budget), n - 1, None))


def nfold_body_sum(
    T: PrefixTree, n: int, budget: int = DEFAULT_BUDGET
) -> PatternSet:
    """All XOR sums of n branches, deduplicated round by round."""
    if n < 1:
        raise ValueError("fold count must be at least 1")
    return pattern_nfold(tree_restrict(T, Block(0, T.horizon)), n, budget)


def certify_request(
    req: CertificateRequest, budget: int = DEFAULT_BUDGET
) -> Certificate:
    """Run a stored request: for each fold, check source + b-fold tree
    patterns against that fold's witness cover, block by block from its
    threshold on.  A meager block passes when, for its forbidden word x and
    each tree pattern r, x + r matches the source centre on some source
    block at or past the source threshold; an E or small block when the
    shifted product of the source's admitted words lies in its patterns."""
    source, checks, branches, products = req.source, [], {}, {}
    for b, cover in req.per_fold:
        for n in range(getattr(cover, "threshold", 0), len(req.partition)):
            blk = req.partition[n]
            if n not in branches:
                branches[n] = tree_restrict(req.tree, blk)
            tree_patterns = pattern_nfold(branches[n], b, budget)
            lo, hi = req.ranges[n]
            if isinstance(cover, MeagerCover):
                x = restrict(cover.xF, blk).value ^ restrict(source.xF, blk).value
                fine = [
                    (blk.hi - f.hi, f.mask)
                    for f in source.partition.blocks[max(lo, source.threshold):hi]
                ]
                ok = all(
                    any(not (x ^ r) >> shift & mask for shift, mask in fine)
                    for r in tree_patterns.values
                )
            else:
                if n not in products:
                    products[n] = block_product(
                        [admitted(source, j) for j in range(lo, hi)]
                    )
                shifted = pattern_sum(products[n], tree_patterns).values
                ok = shifted <= cover.patterns[n].values
            checks.append(BlockCheck(b, n, ok))
    thresholds = tuple((b, getattr(c, "threshold", 0)) for b, c in req.per_fold)
    return Certificate(req.label, req.partition, thresholds, tuple(checks))


PointCover = MeagerCover | ECover


@dataclass(frozen=True)
class Counterexample:
    """A point of source + b-fold branch sums that escapes the witness.

    `point` is the least escaping point on the witness horizon, `sum` the
    least truncated branch sum carrying a source member onto it, and `block`
    the first witness block at or past the threshold that `point` misses.
    """

    point: Point
    sum: Point
    block: Block


def _block_bits(cover: PointCover, n: int) -> int:
    """Admitted values on block n as a 2^length-bit set; a meager block at
    or past its threshold is the full set less its forbidden word."""
    blk = cover.partition[n]
    if isinstance(cover, MeagerCover) and n >= cover.threshold:
        return ((1 << (1 << blk.length)) - 1) ^ (1 << restrict(cover.xF, blk).value)
    return _to_bitset(admitted(cover, n).values, blk.length)


def _point_set(cover: PointCover, width: int) -> int:
    """The cover's members cut to their first `width` bits, as a
    2^width-bit set, built as a block product from the last kept block up.

    Blocks past the cut are dropped, unless they admit no value at all,
    and a block straddling it keeps the leading bits of its admissible
    values.  Each step lays out one chunk per value of the new block: the
    tail set where the value is admissible, zeros elsewhere.
    """
    bits, tail = 1, 0
    for n in reversed(range(len(cover.partition))):
        blk = cover.partition[n]
        good, length = _block_bits(cover, n), blk.length
        if not good:
            return 0
        if blk.lo >= width:
            continue
        cut = blk.hi - width
        if cut > 0:
            length -= cut
            good = _to_bitset(
                {v >> cut for v in _from_bitset(good, blk.length)}, length
            )
        if not tail:
            bits = good
        elif tail >= 3:
            size = 1 << (tail - 3)
            chunk, zero = bits.to_bytes(size, "little"), bytes(size)
            flags = format(good, f"0{1 << length}b")[::-1]
            bits = int.from_bytes(
                b"".join(chunk if f == "1" else zero for f in flags), "little"
            )
        else:
            out = 0
            for u, f in enumerate(reversed(format(good, "b"))):
                if f == "1":
                    out |= bits << (u << tail)
            bits = out
        tail += length
    return bits


def exhaustive_counterexample(
    source_cover: PointCover,
    T: PrefixTree,
    per_fold: tuple[tuple[int, PointCover], ...],
    cap: int = DEFAULT_HORIZON_CAP,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, Counterexample | None]:
    """For each (b, witness) pair, test every point of source + b-fold
    branch sums for witness membership, on 2^H-bit point sets over the
    witness horizon H, and map b to its least escape or None.

    The whole-word branch set is taken once, and one n-fold chain over it
    (see `_nfold_chain`) is extended in `per_fold` order only as far as
    each fold needs, so every fold is summed once and each is charged what
    `nfold_body_sum(T, b)` alone would charge.

    Small covers are rejected: they have no point test.  Witness covers
    on a shorter horizon see the sums truncated, matching the blockwise
    convention for dropped trailing blocks.  Fold by fold, the fold sums
    and (|sums| + 2) passes over ceil(2^H / 64) words are charged before
    any set is built; then the source set is built once per horizon and
    each distinct witness's set once.  Sums that form a coset are closed
    over its basis, so the charge is then an upper bound.  A repeated fold
    count is rejected: the result keeps one entry per fold.
    """
    for cover in (source_cover, *(c for _, c in per_fold)):
        if not isinstance(cover, (MeagerCover, ECover)):
            raise ValueError(
                f"{type(cover).__name__} admits no point-membership test"
            )
    if T.horizon > cap:
        raise ValueError(f"horizon {T.horizon} exceeds cap {cap}")
    if source_cover.horizon != T.horizon:
        raise ValueError("source cover horizon differs from tree horizon")
    if any(c.horizon > T.horizon for _, c in per_fold):
        raise ValueError("witness cover reaches past the tree horizon")
    if any(b < 0 for b, _ in per_fold):
        raise ValueError("fold count must be at least 0")
    folds = [b for b, _ in per_fold]
    if len(set(folds)) != len(folds):
        raise ValueError(f"repeated fold count in {folds}")

    # made[k] is the k-fold sum set, from the empty sum {0} on
    sums, chain, made = {}, None, [PatternSet(Block(0, T.horizon), frozenset({0}))]
    for b, cover in per_fold:
        drop = T.horizon - cover.horizon
        if b >= len(made) and chain is None:
            chain = _nfold_chain(nfold_body_sum(T, 1, budget), budget)
        while b >= len(made):
            made.append(next(chain))
        sums[b] = sorted({v >> drop for v in made[b].values})
        cost = (len(sums[b]) + 2) * -(-(1 << cover.horizon) // 64)
        if cost > budget:
            raise BudgetExceeded(f"exhaustive budget {budget} exceeded ({cost} words)")

    witnesses = dict.fromkeys(cover for _, cover in per_fold)
    members = {H: _point_set(source_cover, H) for H in {c.horizon for c in witnesses}}
    admits = {cover: _point_set(cover, cover.horizon) for cover in witnesses}
    found = dict.fromkeys(b for b, _ in per_fold)
    for b, cover in per_fold:
        H = cover.horizon
        reach = _sum_bits(sums[b], members[H], H)
        escaped = reach & ~admits[cover]
        if not escaped:
            continue
        q = (escaped & -escaped).bit_length() - 1
        t = next(t for t in sums[b] if members[H] >> (q ^ t) & 1)
        point = Point(H, q)
        block = next(
            blk for n, blk in enumerate(cover.partition)
            if not _block_bits(cover, n) >> restrict(point, blk).value & 1
        )
        found[b] = Counterexample(point, Point(H, t), block)
    return found


def exhaustive_containment(
    source_cover: PointCover,
    T: PrefixTree,
    b: int,
    witness_cover: PointCover,
    cap: int = DEFAULT_HORIZON_CAP,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether every point of source + b-fold branch sums lies in the
    witness; one fold of `exhaustive_counterexample`."""
    return exhaustive_counterexample(
        source_cover, T, ((b, witness_cover),), cap, budget
    )[b] is None


@dataclass(frozen=True)
class AuditRow:
    fold: int
    kind: str
    value: Fraction
    bound: Fraction
    passed: bool


def density_audit_table(req) -> tuple[AuditRow, ...]:
    """Numeric audit of a per-fold witness family: a small cover's total
    mass against the request's mass bound for its fold, an E cover's max
    block density against 1/2.  Meager covers have no numeric audit and
    produce no rows."""
    bounds = dict(req.mass_bounds)
    rows = []
    for fold, cover in req.per_fold:
        if isinstance(cover, SmallCover):
            kind, value, bound = "mass", cover.mass, bounds[fold]
        elif isinstance(cover, ECover):
            kind, value = "max_density", e_density_audit(cover)[0]
            bound = Fraction(1, 2)
        else:
            continue
        rows.append(AuditRow(fold, kind, value, bound, value <= bound))
    return tuple(rows)
