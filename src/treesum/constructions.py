"""Tree shrinks and witness covers, one operation per translation statement.

Every operation returns the shrunken (or freshly built) tree together with
per-fold witness covers and a stored certificate request the oracle can
replay.  All choices the source arguments leave open are made
deterministically: least eligible coordinate, leftmost splitting node,
earliest allowed split.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .bits import (
    Block,
    Partition,
    PatternSet,
    Point,
    block_product,
    coarsen,
    indicator_word,
    pattern_sum,
    restrict,
)
from .covers import (
    CertificateRequest,
    ClosedNullChain,
    Cover,
    ECover,
    MeagerCover,
    NullCover,
    SmallCover,
)
from .kseq import build_kseq
from .oracle import pattern_nfold
from .trees import (
    PrefixTree,
    SilverTree,
    first_splitting_node,
    is_perfect,
    leftmost_leaf,
    silver_to_prefix,
    tree_restrict,
)

log = logging.getLogger(__name__)

DEFAULT_FOLDS = (0, 1, 2, 3)

@dataclass(frozen=True)
class Provenance:
    op: str
    details: tuple[tuple[str, str], ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ShrinkResult:
    tree_out: SilverTree | PrefixTree
    witnesses: tuple[CertificateRequest, ...]
    provenance: Provenance

    def tree_as_prefix(self) -> PrefixTree:
        t = self.tree_out
        return silver_to_prefix(t) if isinstance(t, SilverTree) else t


def _clean_folds(folds: Sequence[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(folds)))
    if not out:
        raise ValueError("no fold counts requested")
    if out[0] < 0:
        raise ValueError("fold counts must be nonnegative")
    return out


def _group(
    fine: Partition, sizes: Iterable[int], filling: str
) -> tuple[list[tuple[int, int]], Partition, list[str]]:
    """Group consecutive fine blocks by `sizes` until the next group no
    longer fits: the fine-index ranges, the coarsened partition and the
    warning about the fine blocks left over."""
    ranges, start = [], 0
    for size in sizes:
        if start + size > len(fine):
            break
        ranges.append((start, start + size))
        start += size
    coarse = coarsen(Partition(fine.blocks[:start]), [hi - lo for lo, hi in ranges])
    warnings = []
    dropped = len(fine) - start
    if dropped:
        # a pair can only ever leave one block over
        unit = "block" if filling == "pair" else "block(s)"
        warnings.append(
            f"dropped {dropped} trailing fine {unit} not filling a {filling}"
        )
    return ranges, coarse, warnings


def _super_sizes() -> Iterable[int]:
    """Super-block sizes in fine blocks, (2^n)^(n+1): 1, 4, 64, ..."""
    return ((2**n) ** (n + 1) for n in itertools.count())


def _request(
    label: str,
    source: Cover,
    tree: PrefixTree,
    per_fold: Iterable[tuple[int, Cover]],
    ranges: Sequence[tuple[int, int]] = (),
    bounds: Iterable[tuple[int, Fraction]] = (),
) -> CertificateRequest:
    """The request replaying per-fold covers against `tree`; without
    `ranges`, each witness block is one source block."""
    ranges = ranges or [(n, n + 1) for n in range(len(source.partition))]
    return CertificateRequest(
        label, source, tuple(ranges), tree, tuple(per_fold), tuple(bounds)
    )


def _least_free(free: frozenset[int], blocks: Iterable[Block]) -> list[int]:
    """The least free coordinate of each block that has one, in block order."""
    out = []
    for blk in blocks:
        hits = [i for i in free if i in blk]
        if hits:
            out.append(min(hits))
    return out


def _subset_ors(masks: Sequence[int]) -> set[int]:
    """The OR of every subset of the masks."""
    out = {0}
    for m in masks:
        out |= {v | m for v in out}
    return out


def _four_translates(J: PatternSet, w: int, unit: int) -> PatternSet:
    """J shifted by each of 0, w, unit and w + unit."""
    return pattern_sum(J, PatternSet(J.block, frozenset({0, w, unit, w ^ unit})))


def _set_block(value: int, horizon: int, blk: Block, pattern: int) -> int:
    shift = horizon - blk.hi
    return (value & ~(blk.mask << shift)) | (pattern << shift)


def _format_coords(coords) -> str:
    return ",".join(str(c) for c in sorted(coords)) if coords else "-"


# ---------------------------------------------------------------------------
# meager ideal

def shrink_silver_meager(
    F: MeagerCover, T: SilverTree, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """Shrink a Silver tree so branch sums cannot rescue points of F from
    a pairwise-coarsened avoidance cover."""
    folds = _clean_folds(folds)
    if F.horizon != T.horizon:
        raise ValueError("cover and tree horizons differ")
    if len(F.partition) < 2:
        raise ValueError("need at least two blocks to form coarse pairs")
    ranges, coarse, warnings = _group(F.partition, itertools.repeat(2), "pair")
    pairs = len(coarse)

    selected = _least_free(T.free, coarse)
    if not T.free:
        warnings.append("input tree has no free coordinates at this horizon")
    elif not selected:
        warnings.append("no free coordinate fits the coarse blocks; tree kept a single branch")
    tree_out = SilverTree(T.x, frozenset(selected))

    threshold = min(-(-F.threshold // 2), pairs)
    Hw = coarse.horizon
    per_fold = []
    for b in folds:
        x = F.xF.truncate(Hw)
        if b % 2:
            x = x ^ T.x.truncate(Hw)
        per_fold.append((b, MeagerCover(x, coarse, threshold)))

    request = _request("meager", F, silver_to_prefix(tree_out), per_fold, ranges)
    prov = Provenance(
        "shrink_silver_meager",
        (
            ("selected", _format_coords(selected)),
            ("coarse_blocks", str(pairs)),
            ("threshold", str(threshold)),
        ),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


def _tuples_over(letters: list[str], max_len: int) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for m in range(max_len + 1):
        out.extend(itertools.product(letters, repeat=m))
    return out


def _all_split_level(T: PrefixTree, lo: int) -> int:
    """Least depth >= lo where every node splits: its split count is its
    node count, one plus the splits above it."""
    splits = T.split_counts
    nodes = itertools.accumulate(splits, initial=1)
    for d, (s, n) in enumerate(zip(splits, nodes)):
        if d >= lo and s == n:
            return d
    raise ValueError(
        f"no level at or past {lo} where every node splits; "
        "uniform mode needs a uniformly perfect tree"
    )


def shrink_perfect_meager(
    F: MeagerCover,
    T: PrefixTree,
    uniform: bool = False,
    folds: Sequence[int] = DEFAULT_FOLDS,
) -> ShrinkResult:
    """Select a hierarchy of splitting nodes over fast-growing super-blocks
    and recenter the avoidance cover on the node-sum pattern each fine
    block is assigned."""
    folds = _clean_folds(folds)
    if F.horizon != T.horizon:
        raise ValueError("cover and tree horizons differ")
    if not is_perfect(T):
        raise ValueError("input tree is not perfect at its horizon")
    fine = F.partition
    ranges, supers, warnings = _group(fine, _super_sizes(), "super-block")
    G = len(ranges) - 1

    # splitting-node hierarchy: generation g nodes sit past super-block g
    sigma: dict[str, str] = {}
    if uniform:
        level = _all_split_level(T, supers[0].hi)
        sigma[""] = leftmost_leaf(T, "")[:level]
    else:
        sigma[""] = first_splitting_node(T, "", supers[0].hi)
    for g in range(1, G + 1):
        if uniform:
            need = max(
                supers[g].hi,
                max(len(sigma[tau]) for tau in sigma if len(tau) == g - 1) + 1,
            )
            level = _all_split_level(T, need)
        for tau in [t for t in list(sigma) if len(t) == g - 1]:
            for i in "01":
                stem = sigma[tau] + i
                if uniform:
                    sigma[tau + i] = leftmost_leaf(T, stem)[:level]
                else:
                    sigma[tau + i] = first_splitting_node(T, stem, supers[g].hi)

    leaves = []
    for tau in sigma:
        if len(tau) == G:
            for i in "01":
                leaves.append(leftmost_leaf(T, sigma[tau] + i))
    tree_out = PrefixTree.from_leaves(leaves)

    # recentered target: on super-block n, fine block i carries the sum of
    # the generation-n nodes named by the i-th tuple of the canonical order
    Hw = supers.horizon
    x_val = F.xF.truncate(Hw).value
    for n in range(1, G + 1):
        lo, hi = ranges[n]
        letters = [format(v, f"0{n}b") for v in range(2**n)]
        tuples = _tuples_over(letters, n)
        for offset, j in enumerate(range(lo, hi)):
            blk = fine[j]
            val = restrict(F.xF, blk).value
            for letter in tuples[offset % len(tuples)]:
                node = sigma[letter]
                val ^= (int(node, 2) >> (len(node) - blk.hi)) & blk.mask
            x_val = _set_block(x_val, Hw, blk, val)
    x_H = Point(Hw, x_val)

    base = sum(lo < F.threshold for lo, _ in ranges)
    per_fold = tuple(
        (b, MeagerCover(x_H, supers, min(max(b, base), len(supers))))
        for b in folds
    )
    request = _request("meager", F, tree_out, per_fold, ranges)
    prov = Provenance(
        "shrink_perfect_meager",
        (
            ("generations", str(G + 1)),
            ("super_blocks", str(len(supers))),
            ("base_threshold", str(base)),
            ("witness_horizon", str(Hw)),
            ("uniform", str(uniform).lower()),
        ),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


def build_splitting_meager(
    F: MeagerCover, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """Fresh splitting tree whose branches carry a single 1 in each
    triangular block group, so few branches cannot soil every fine block."""
    folds = _clean_folds(folds)
    H = F.horizon
    # group sizes 1, 1, 2, 3, 4, ...
    ranges, supers, warnings = _group(
        F.partition, itertools.chain((1,), itertools.count(1)), "group"
    )

    choices = []
    for seg in supers:
        choices.append([1 << (seg.hi - 1 - i) for i in range(seg.lo, seg.hi)])
    tail = H - supers.horizon
    leaves = set()
    for combo in itertools.product(*choices):
        v = 0
        for seg, one_hot in zip(supers, combo):
            v |= one_hot << (H - seg.hi)
        for tail_bits in range(1 << tail):
            leaves.add(v | tail_bits)
    tree_out = PrefixTree(H, frozenset(leaves))

    base = sum(lo < F.threshold for lo, _ in ranges)
    x_w = F.xF.truncate(supers.horizon)
    per_fold = []
    for b in folds:
        thr = base if b == 0 else max(base, b + 1)
        per_fold.append((b, MeagerCover(x_w, supers, min(thr, len(supers)))))

    request = _request("meager", F, tree_out, per_fold, ranges)
    prov = Provenance(
        "build_splitting_meager",
        (
            ("groups", str(len(supers))),
            ("base_threshold", str(base)),
            ("witness_horizon", str(supers.horizon)),
        ),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


# ---------------------------------------------------------------------------
# small and null ideals

def shrink_silver_small(
    F: SmallCover, T: SilverTree, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """Thin the free set to one coordinate per block; branch sums then only
    translate each block by the fixed point or the lone unit."""
    folds = _clean_folds(folds)
    if F.horizon != T.horizon:
        raise ValueError("cover and tree horizons differ")
    P = F.partition
    warnings = []
    selected = _least_free(T.free, P)
    if not selected:
        warnings.append("no free coordinates selected; tree body is a single branch")
    tree_out = SilverTree(T.x, frozenset(selected))

    witness = SmallCover(P, tuple(
        _four_translates(
            J, restrict(T.x, blk).value, indicator_word(blk, selected).value
        )
        for blk, J in zip(P, F.patterns)
    ))
    bound = 4 * F.mass
    request = _request(
        "small", F, silver_to_prefix(tree_out),
        ((b, witness) for b in folds), bounds=((b, bound) for b in folds),
    )
    prov = Provenance(
        "shrink_silver_small",
        (("selected", _format_coords(selected)),),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


def _compose_two_smalls(
    op_name: str,
    first_step,
    second_step,
    F: NullCover,
    T,
) -> ShrinkResult:
    first = first_step(F.first, T)
    second = second_step(F.second, first.tree_out)
    final_prefix = second.tree_as_prefix()
    requests = [
        replace(res.witnesses[0], label=f"small-{stage}", tree=final_prefix)
        for stage, res in (("1", first), ("2", second))
    ]
    details = (
        tuple((f"first.{k}", v) for k, v in first.provenance.details)
        + tuple((f"second.{k}", v) for k, v in second.provenance.details)
    )
    prov = Provenance(
        op_name,
        details,
        first.provenance.warnings + second.provenance.warnings,
    )
    return ShrinkResult(second.tree_out, tuple(requests), prov)


def shrink_silver_null(
    F: NullCover, T: SilverTree, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """Two consecutive small-cover shrinks; the first witness stays valid
    for the final tree because its branch sums only got fewer."""
    step = lambda C, tree: shrink_silver_small(C, tree, folds=folds)
    return _compose_two_smalls("shrink_silver_null", step, step, F, T)


def _expanded_budget(masses: list[Fraction], block_count: int) -> tuple[list[int], tuple[tuple[str, str], ...]]:
    positive = [(n, a) for n, a in enumerate(masses) if a > 0]
    if not positive:
        return [0] * block_count, (("kseq", "skipped, all densities zero"),)
    K = build_kseq([a for _, a in positive], block_count)
    k_by_block = {}
    for (n, _), k in zip(positive, K.k):
        k_by_block[n] = k
    out = []
    last = 0
    for n in range(block_count):
        if n in k_by_block:
            last = k_by_block[n]
        out.append(last)
    details = (
        ("kseq_cutoffs", _format_coords(K.nj)),
        ("split_budget", ",".join(str(k) for k in out)),
    )
    return out, details


def _prune_split_budget(
    T: PrefixTree, allowance: list[int], uniform: bool
) -> PrefixTree:
    cur = {0: 0}
    for d in range(T.horizon):
        kids = {v: T.children(d, v) for v in cur}
        split = {v: len(kids[v]) == 2 and used < allowance[d] for v, used in cur.items()}
        if uniform:
            split = dict.fromkeys(split, all(split.values()))
        cur = {
            c: used + split[v]
            for v, used in cur.items()
            for c in (kids[v] if split[v] else kids[v][:1])
        }
    return PrefixTree(T.horizon, frozenset(cur))


def _perfect_warning(pruned: PrefixTree) -> list[str]:
    if is_perfect(pruned):
        return []
    deepest = max((d for d, s in enumerate(pruned.split_counts) if s), default=-1)
    return [
        f"split budget exhausts after depth {deepest}; "
        "pruned tree is not perfect at this horizon"
    ]


def shrink_perfect_small(
    F: SmallCover,
    T: PrefixTree,
    uniform: bool = False,
    folds: Sequence[int] = DEFAULT_FOLDS,
    require_perfect: bool = True,
) -> ShrinkResult:
    """Cap the number of splitting ancestors per block so each block's
    branch patterns stay below the exponent budget, then pay for fold sums
    with the analytic bound.

    Composed calls pass require_perfect=False for intermediate trees that
    an earlier budget already flattened (that step warned about it)."""
    folds = _clean_folds(folds)
    if F.horizon != T.horizon:
        raise ValueError("cover and tree horizons differ")
    if require_perfect and not is_perfect(T):
        raise ValueError("input tree is not perfect at its horizon")
    P = F.partition
    masses = [J.density for J in F.patterns]
    budget, kseq_details = _expanded_budget(masses, len(P))
    allowance = [budget[P.index_of(d)] for d in range(T.horizon)]
    tree_out = _prune_split_budget(T, allowance, uniform)
    warnings = _perfect_warning(tree_out)

    branches = [tree_restrict(tree_out, blk) for blk in P.blocks]
    per_fold = []
    for b in folds:
        pats = tuple(
            pattern_sum(J, pattern_nfold(R, b))
            for J, R in zip(F.patterns, branches)
        )
        per_fold.append((b, SmallCover(P, pats)))

    mass = F.mass
    request = _request(
        "small", F, tree_out, per_fold,
        bounds=((b, (1 << (b * b)) * mass) for b in folds),
    )
    prov = Provenance(
        "shrink_perfect_small",
        kseq_details + (("uniform", str(uniform).lower()),),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


def shrink_perfect_null(
    F: NullCover,
    T: PrefixTree,
    uniform: bool = False,
    folds: Sequence[int] = DEFAULT_FOLDS,
) -> ShrinkResult:
    first = lambda C, tree: shrink_perfect_small(
        C, tree, uniform=uniform, folds=folds
    )
    second = lambda C, tree: shrink_perfect_small(
        C, tree, uniform=uniform, folds=folds, require_perfect=False
    )
    return _compose_two_smalls("shrink_perfect_null", first, second, F, T)


def _interleaved_pieces(P1: Partition, P2: Partition) -> list[Block]:
    """Real intervals of the merged refinement; phantom empty end pieces
    are handled by the callers via index arithmetic."""
    if len(P1) != len(P2):
        raise ValueError("partitions do not interleave")
    e = [b.lo for b in P1.blocks[1:]]
    f = [b.lo for b in P2.blocks[1:]]
    bounds = [0]
    for en, fn in zip(e, f):
        if not bounds[-1] < en < fn:
            raise ValueError("partitions do not interleave")
        bounds.extend([en, fn])
    bounds.append(P1.horizon)
    if bounds[-2] >= bounds[-1]:
        raise ValueError("partitions do not interleave")
    return [Block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def build_splitting_null(
    F: NullCover, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """Fresh splitting tree that is constant off a sparse coordinate set
    chosen to meet every block of both partitions at most once."""
    folds = _clean_folds(folds)
    P1, P2 = F.first.partition, F.second.partition
    H = F.horizon
    pieces = _interleaved_pieces(P1, P2)

    count1 = [0] * len(P1)
    count2 = [0] * len(P2)
    A: list[int] = []
    for c in range(H):
        n1, n2 = P1.index_of(c), P2.index_of(c)
        if count1[n1] == 0 and count2[n2] == 0:
            A.append(c)
            count1[n1] += 1
            count2[n2] += 1

    piece_free = [
        [i for i in range(blk.lo, blk.hi) if i not in A] for blk in pieces
    ]
    full_block = Block(0, H)
    piece_masks = [
        indicator_word(full_block, coords).value for coords in piece_free
    ]
    unit_masks = [indicator_word(full_block, [a]).value for a in A]
    tree_out = PrefixTree(H, frozenset(_subset_ors(piece_masks + unit_masks)))

    chi = frozenset(A)
    requests = []
    for label, small, P in (
        ("small-1", F.first, P1),
        ("small-2", F.second, P2),
    ):
        pats = []
        for n, blk in enumerate(P.blocks):
            # the block is two refinement pieces; collect both their masks
            local_masks = []
            for piece in pieces:
                if piece.lo >= blk.lo and piece.hi <= blk.hi:
                    local_masks.append(
                        indicator_word(
                            blk, [i for i in range(piece.lo, piece.hi) if i not in chi]
                        ).value
                    )
            unit = indicator_word(blk, [a for a in A if a in blk]).value
            translates = {v ^ t for v in _subset_ors(local_masks) for t in (0, unit)}
            pats.append(
                pattern_sum(
                    small.patterns[n], PatternSet(blk, frozenset(translates))
                )
            )
        witness = SmallCover(P, tuple(pats))
        bound = 8 * small.mass
        requests.append(_request(
            label, small, tree_out,
            ((b, witness) for b in folds), bounds=((b, bound) for b in folds),
        ))
    prov = Provenance(
        "build_splitting_null",
        (
            ("selected", _format_coords(A)),
            ("refinement_bounds", _format_coords({p.lo for p in pieces} | {H})),
        ),
        (),
    )
    return ShrinkResult(tree_out, tuple(requests), prov)


def shrink_mn(
    Fm: MeagerCover,
    Fn: NullCover,
    T: SilverTree | PrefixTree,
    kind: str,
    folds: Sequence[int] = DEFAULT_FOLDS,
) -> ShrinkResult:
    """Meager shrink followed by null shrink; the meager witness is
    revalidated against the final tree."""
    if kind == "silver":
        if not isinstance(T, SilverTree):
            raise ValueError("silver kind needs a Silver tree")
        meager = shrink_silver_meager(Fm, T, folds=folds)
        null = shrink_silver_null(Fn, meager.tree_out, folds=folds)
    elif kind in ("perfect", "uniform"):
        if not isinstance(T, PrefixTree):
            raise ValueError(f"{kind} kind needs an explicit prefix tree")
        uniform = kind == "uniform"
        meager = shrink_perfect_meager(Fm, T, uniform=uniform, folds=folds)
        null = shrink_perfect_null(
            Fn, meager.tree_out, uniform=uniform, folds=folds
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    final_prefix = null.tree_as_prefix()
    mb = replace(meager.witnesses[0], tree=final_prefix)
    prov = Provenance(
        "shrink_mn",
        (("kind", kind),)
        + tuple((f"meager.{k}", v) for k, v in meager.provenance.details)
        + tuple((f"null.{k}", v) for k, v in null.provenance.details),
        meager.provenance.warnings + null.provenance.warnings,
    )
    return ShrinkResult(null.tree_out, (mb,) + null.witnesses, prov)


# ---------------------------------------------------------------------------
# the E ideal

def simplify_e_cover(chain: ClosedNullChain) -> ECover:
    """Turn a refining chain of closed-set approximations into blockwise
    form: each stage contributes one block of new coordinates, with its
    cylinders saturated over everything already consumed."""
    blocks = []
    patterns = []
    consumed = 0
    for k, stage in enumerate(chain.stages):
        end = stage.max_length
        blk = Block(consumed, end)
        width = blk.length
        vals: set[int] = set()
        saturated = False
        for s in stage.nodes:
            if len(s) <= consumed:
                saturated = True
                break
            suffix = s[consumed:]
            pad = width - len(suffix)
            base = int(suffix, 2) << pad
            vals.update(base | t for t in range(1 << pad))
        if saturated:
            vals = set(range(1 << width))
        dens = Fraction(len(vals), 1 << width)
        if dens >= Fraction(1, 2):
            raise ValueError(
                f"insufficient nullity at stage {k}: saturated density {dens}"
            )
        blocks.append(blk)
        patterns.append(PatternSet(blk, frozenset(vals)))
        consumed = end
    return ECover(Partition(tuple(blocks)), tuple(patterns), 0)


def shrink_silver_e(
    E: ECover, T: SilverTree, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """One free coordinate per block triple; branch sums act by the four
    translations generated by the tree point and the unit there."""
    folds = _clean_folds(folds)
    if E.horizon != T.horizon:
        raise ValueError("cover and tree horizons differ")
    if len(E.partition) < 3:
        raise ValueError("need at least three blocks to form triples")
    ranges, triples, warnings = _group(E.partition, itertools.repeat(3), "triple")

    selected = _least_free(T.free, triples)
    if not selected:
        warnings.append("no free coordinates selected; tree body is a single branch")
    tree_out = SilverTree(T.x, frozenset(selected))

    threshold = min(-(-E.threshold // 3), len(triples))
    witness = ECover(triples, tuple(
        _four_translates(
            block_product(E.patterns[lo:hi]),
            restrict(T.x, blk).value,
            indicator_word(blk, selected).value,
        )
        for blk, (lo, hi) in zip(triples, ranges)
    ), threshold)
    request = _request(
        "e", E, silver_to_prefix(tree_out),
        ((b, witness) for b in folds), ranges,
    )
    prov = Provenance(
        "shrink_silver_e",
        (
            ("selected", _format_coords(selected)),
            ("triples", str(len(triples))),
            ("threshold", str(threshold)),
        ),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


def shrink_perfect_e(
    E: ECover,
    T: PrefixTree,
    uniform: bool = False,
    folds: Sequence[int] = DEFAULT_FOLDS,
) -> ShrinkResult:
    """Split budget n inside super-block n; witness blocks absorb every
    fold sum up to the block index."""
    folds = _clean_folds(folds)
    if E.horizon != T.horizon:
        raise ValueError("cover and tree horizons differ")
    if not is_perfect(T):
        raise ValueError("input tree is not perfect at its horizon")
    ranges, supers, warnings = _group(E.partition, _super_sizes(), "super-block")

    allowance = [
        supers.index_of(d) if d < supers.horizon else len(supers)
        for d in range(T.horizon)
    ]
    tree_out = _prune_split_budget(T, allowance, uniform)
    warnings.extend(_perfect_warning(tree_out))

    base = sum(lo < E.threshold for lo, _ in ranges)
    # (J ∪ {0})^(n) is the union of the j-fold sums of J for j ≤ n
    witness_patterns = tuple(
        pattern_sum(
            block_product(E.patterns[lo:hi]),
            pattern_nfold(
                PatternSet(blk, tree_restrict(tree_out, blk).values | {0}), n
            ),
        )
        for n, (blk, (lo, hi)) in enumerate(zip(supers, ranges))
    )
    per_fold = tuple(
        (b, ECover(supers, witness_patterns, min(max(b, base), len(supers))))
        for b in folds
    )
    request = _request("e", E, tree_out, per_fold, ranges)
    prov = Provenance(
        "shrink_perfect_e",
        (
            ("super_blocks", str(len(supers))),
            ("base_threshold", str(base)),
            ("uniform", str(uniform).lower()),
        ),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)


def build_splitting_e(
    E: ECover, folds: Sequence[int] = DEFAULT_FOLDS
) -> ShrinkResult:
    """Fresh splitting tree constant off one chosen coordinate per triple;
    witnesses absorb the four constant-or-flip translations."""
    folds = _clean_folds(folds)
    H = E.horizon
    if len(E.partition) < 3:
        raise ValueError("need at least three blocks to form triples")
    ranges, triples, warnings = _group(E.partition, itertools.repeat(3), "triple")

    # default sparse set: the first coordinate of each fine block, thinned
    # to its least representative per triple
    A = [blk.lo for blk in triples]
    full_block = Block(0, H)
    masks = [
        indicator_word(
            full_block,
            [i for i in range(blk.lo, blk.hi) if i != a],
        ).value
        for blk, a in zip(triples, A)
    ]
    units = [indicator_word(full_block, [a]).value for a in A]
    tail = H - triples.horizon
    tree_out = PrefixTree(H, frozenset(
        v | tail_bits
        for v in _subset_ors(masks + units)
        for tail_bits in range(1 << tail)
    ))

    threshold = min(-(-E.threshold // 3), len(triples))
    witness = ECover(triples, tuple(
        _four_translates(
            block_product(E.patterns[lo:hi]), blk.mask, indicator_word(blk, [a]).value
        )
        for blk, a, (lo, hi) in zip(triples, A, ranges)
    ), threshold)
    request = _request("e", E, tree_out, ((b, witness) for b in folds), ranges)
    prov = Provenance(
        "build_splitting_e",
        (
            ("selected", _format_coords(A)),
            ("triples", str(len(triples))),
            ("threshold", str(threshold)),
        ),
        tuple(warnings),
    )
    return ShrinkResult(tree_out, (request,), prov)
