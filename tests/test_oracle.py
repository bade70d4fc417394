from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import treesum.oracle as oracle_mod
from treesum.bits import (
    Block,
    Partition,
    PatternSet,
    Point,
    block_product,
    pattern_sum,
    restrict,
)
from treesum.covers import (
    BlockCheck,
    CertificateRequest,
    ECover,
    MeagerCover,
    SmallCover,
)
from treesum.oracle import (
    DEFAULT_BUDGET,
    AuditRow,
    BudgetExceeded,
    Counterexample,
    certify_request,
    density_audit_table,
    exhaustive_containment,
    exhaustive_counterexample,
    nfold_body_sum,
    pattern_nfold,
)
from treesum.constructions import build_splitting_e
from treesum.scenario import Tamper, _apply_tamper
from treesum.trees import (
    PrefixTree,
    SilverTree,
    silver_to_prefix,
    tree_restrict,
)


def random_tree(rng: random.Random, horizon: int, max_leaves: int) -> PrefixTree:
    count = rng.randint(1, max_leaves)
    pool = rng.sample(range(1 << horizon), min(count, 1 << horizon))
    return PrefixTree(horizon, frozenset(pool))


def nfold_body_sum_direct(T: PrefixTree, n: int) -> PatternSet:
    """All XOR sums of n branches by brute enumeration of the n-tuples,
    the reference for the iterated sums of `nfold_body_sum`."""
    if n < 1:
        raise ValueError("fold count must be at least 1")
    words = T.sorted_leaves
    out = set()
    for combo in itertools.product(range(len(words)), repeat=n):
        v = 0
        for i in combo:
            v ^= words[i]
        out.add(v)
    return PatternSet(Block(0, T.horizon), frozenset(out))


def plain_nfold(J: PatternSet, n: int, budget: int) -> PatternSet:
    """The n-fold loop without the span rule: n - 1 sums, each charged
    |acc|·|J| pairs, the reference for `pattern_nfold`."""
    if n == 0:
        return PatternSet(J.block, frozenset({0}))
    acc, spent = J, 0
    for _ in range(n - 1):
        spent += len(acc) * len(J)
        if spent > budget:
            raise BudgetExceeded(f"fold sum budget {budget} exceeded")
        acc = pattern_sum(acc, J)
    return acc


def meager_member(C: MeagerCover, p: Point) -> bool:
    """Whether p differs from the centre on every block at or past the
    threshold, point by point: the membership reference for the meager
    point sets of the exhaustive oracle."""
    if p.horizon != C.horizon:
        raise ValueError(f"horizon {p.horizon} != cover horizon {C.horizon}")
    return all(
        restrict(p, b) != restrict(C.xF, b)
        for b in C.partition.blocks[C.threshold:]
    )


def e_member(C: ECover, p: Point) -> bool:
    """Whether p lands in the listed patterns on every block at or past
    the threshold: the membership reference for E point sets."""
    if p.horizon != C.horizon:
        raise ValueError(f"horizon {p.horizon} != cover horizon {C.horizon}")
    return all(
        restrict(p, C.partition[n]) in C.patterns[n]
        for n in range(C.threshold, len(C.partition))
    )


@st.composite
def cosets(draw, extra: bool = False, max_length: int = 7) -> PatternSet:
    """x + span(gens) on a block of up to `max_length` bits; with `extra`,
    plus one word off the coset."""
    blk = Block(0, draw(st.integers(1, max_length)))
    words = st.integers(0, blk.mask)
    span = {0}
    for g in draw(st.lists(words, max_size=blk.length)):
        span |= {s ^ g for s in span}
    x = draw(words)
    coset = {s ^ x for s in span}
    if extra:
        off = sorted(set(range(1 << blk.length)) - coset)
        if off:
            coset.add(draw(st.sampled_from(off)))
    return PatternSet(blk, frozenset(coset))


@st.composite
def random_pattern_sets(draw, max_length: int = 7) -> PatternSet:
    blk = Block(0, draw(st.integers(1, max_length)))
    return PatternSet(blk, draw(st.frozensets(st.integers(0, blk.mask))))


def _admissible(cover, n: int) -> frozenset[int]:
    blk = cover.partition[n]
    if n < cover.threshold:
        return frozenset(range(1 << blk.length))
    if isinstance(cover, MeagerCover):
        return cover.allowed(n).values
    return cover.patterns[n].values


def _members_and_sums_direct(source_cover, T, b, witness_cover):
    """Source members and b-fold branch sums, both cut to the witness
    horizon, by enumerating the product of admissible block values."""
    drop = T.horizon - witness_cover.horizon
    sums = {0} if b == 0 else {v >> drop for v in nfold_body_sum(T, b).values}
    blocks = source_cover.partition.blocks
    rows = [sorted(_admissible(source_cover, n)) for n in range(len(blocks))]
    members = set()
    for combo in itertools.product(*rows):
        v = 0
        for blk, val in zip(blocks, combo):
            v |= val << (source_cover.horizon - blk.hi)
        members.add(v >> drop)
    return members, sums


def _first_missed_block(witness_cover, q: int):
    """The first witness block whose restriction of point q is not
    admissible, or None when q is a member."""
    H = witness_cover.horizon
    for n in range(witness_cover.threshold, len(witness_cover.partition)):
        blk = witness_cover.partition[n]
        if (q >> (H - blk.hi)) & blk.mask not in _admissible(witness_cover, n):
            return blk
    return None


def escaping_points_direct(source_cover, T, b, witness_cover) -> set[int]:
    """Every source member plus b-fold branch sum that misses the witness,
    one point at a time."""
    members, sums = _members_and_sums_direct(source_cover, T, b, witness_cover)
    return {
        p ^ t for p in members for t in sums
        if _first_missed_block(witness_cover, p ^ t) is not None
    }


def exhaustive_containment_direct(source_cover, T, b, witness_cover) -> bool:
    """The point loop the bitset oracle replaces, kept as its reference."""
    members, sums = _members_and_sums_direct(source_cover, T, b, witness_cover)
    return all(
        _first_missed_block(witness_cover, p ^ t) is None
        for p in members for t in sums
    )


def _lengths(draw, total: int) -> list[int]:
    lengths: list[int] = []
    while sum(lengths) < total:
        lengths.append(draw(st.integers(1, min(3, total - sum(lengths)))))
    return lengths


@st.composite
def point_covers(draw, horizon: int):
    """Meager or E covers on a mixed-length partition of [0, horizon), with
    any threshold from 0 to the number of blocks."""
    P = Partition.from_lengths(_lengths(draw, horizon))
    threshold = draw(st.integers(0, len(P)))
    if draw(st.booleans()):
        x = Point(horizon, draw(st.integers(0, (1 << horizon) - 1)))
        return MeagerCover(x, P, threshold)
    patterns = tuple(
        PatternSet(blk, draw(st.frozensets(st.integers(0, blk.mask))))
        for blk in P.blocks
    )
    return ECover(P, patterns, threshold)


class TestNfold:
    def test_one_fold_is_body(self):
        T = PrefixTree.from_leaves(["001", "101", "110"])
        assert nfold_body_sum(T, 1).values == {1, 5, 6}

    def test_subgroup_is_idempotent(self):
        T = silver_to_prefix(SilverTree(Point.zero(6), frozenset({1, 3, 4})))
        one = nfold_body_sum(T, 1)
        assert nfold_body_sum(T, 2) == one
        assert nfold_body_sum(T, 3) == one

    def test_silver_collapse(self):
        # odd folds land in the 1-fold coset, even folds in the 2-fold group
        T = silver_to_prefix(SilverTree(Point.from_bits("100100"), frozenset({1, 4})))
        one, two = nfold_body_sum(T, 1), nfold_body_sum(T, 2)
        assert nfold_body_sum(T, 3) == one
        assert nfold_body_sum(T, 4) == two
        for n in (1, 2, 3, 4, 5):
            assert nfold_body_sum(T, n).values <= one.values | two.values

    def test_fold_validation(self):
        T = PrefixTree.full(2)
        with pytest.raises(ValueError):
            nfold_body_sum(T, 0)
        with pytest.raises(ValueError):
            nfold_body_sum_direct(T, 0)

    def test_budget(self):
        T = PrefixTree.full(8)
        with pytest.raises(BudgetExceeded):
            nfold_body_sum(T, 3, budget=1000)

    def test_two_algorithm_agreement(self):
        rng = random.Random(53)
        for _ in range(25):
            T = random_tree(rng, rng.randint(2, 8), 12)
            for n in (1, 2, 3):
                assert nfold_body_sum(T, n) == nfold_body_sum_direct(T, n)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_direct_on_random_trees(self, data):
        horizon = data.draw(st.integers(1, 8))
        leaves = data.draw(
            st.frozensets(st.integers(0, (1 << horizon) - 1), min_size=1, max_size=24)
        )
        T = PrefixTree(horizon, leaves)
        n = data.draw(st.integers(1, 3))
        assert nfold_body_sum(T, n) == nfold_body_sum_direct(T, n)

    def test_budget_boundary(self):
        # from J on, the charge is |acc|·|J| per sum, so a budget of exactly
        # the pairs spent passes and one less raises
        T = PrefixTree.full(8)
        base = nfold_body_sum(T, 1)
        J = PatternSet(Block(0, 5), frozenset({1, 2, 4, 7, 8, 16, 31}))
        cases = [
            (
                lambda budget: nfold_body_sum(T, 3, budget),
                len(base) * sum(len(nfold_body_sum(T, r)) for r in (1, 2)),
            ),
            (
                lambda budget: pattern_nfold(J, 3, budget),
                len(J) * sum(len(pattern_nfold(J, r)) for r in (1, 2)),
            ),
        ]
        for fold, spent in cases:
            assert len(fold(spent)) > 0
            with pytest.raises(BudgetExceeded):
                fold(spent - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_body_sum_is_nfold_of_the_full_restriction(self, data):
        # same set, and BudgetExceeded at the same budgets
        horizon = data.draw(st.integers(1, 8))
        leaves = data.draw(
            st.frozensets(st.integers(0, (1 << horizon) - 1), min_size=1, max_size=24)
        )
        T = PrefixTree(horizon, leaves)
        n = data.draw(st.integers(1, 4))
        budget = data.draw(st.integers(0, 5000))

        def outcome(fold, arg):
            try:
                return fold(arg, n, budget)
            except BudgetExceeded:
                return None

        assert outcome(nfold_body_sum, T) == outcome(
            pattern_nfold, tree_restrict(T, Block(0, horizon))
        )

    def test_pattern_nfold_zero(self):
        J = PatternSet.from_bits(Block(2, 5), ["011", "100"])
        assert pattern_nfold(J, 0).values == {0}
        assert pattern_nfold(PatternSet.empty(Block(0, 2)), 0).values == {0}
        assert len(pattern_nfold(PatternSet.empty(Block(0, 2)), 2)) == 0

    def test_pattern_nfold_matches_direct(self):
        rng = random.Random(59)
        for _ in range(20):
            blk = Block(0, rng.randint(1, 5))
            J = PatternSet(
                blk,
                frozenset(
                    v for v in range(1 << blk.length) if rng.random() < 0.5
                ),
            )
            for n in (1, 2, 3):
                direct = set()
                for v0 in J.values:
                    for v1 in J.values:
                        for v2 in J.values:
                            direct.add(
                                v0 ^ (v1 if n > 1 else 0) ^ (v2 if n > 2 else 0)
                            )
                assert pattern_nfold(J, n).values == direct

    @settings(max_examples=400, deadline=None)
    @given(
        J=st.one_of(
            cosets(), cosets(extra=True), random_pattern_sets(),
            st.integers(1, 7).map(lambda L: PatternSet.empty(Block(0, L))),
        ),
        n=st.integers(0, 8),
        budget=st.one_of(st.integers(0, 3000), st.just(1 << 30)),
    )
    def test_span_rule_changes_no_result(self, J, n, budget):
        # the same set as n - 1 sums, or BudgetExceeded with the same message
        def outcome(fold):
            try:
                return fold(J, n, budget)
            except BudgetExceeded as exc:
                return str(exc)

        assert outcome(pattern_nfold) == outcome(plain_nfold)
        if n >= J.block.length:
            # the span is filled by fold L, so the folds repeat with period 2
            assert pattern_nfold(J, n + 2) == pattern_nfold(J, n)

    @settings(max_examples=100, deadline=None)
    @given(J=cosets())
    def test_a_coset_takes_no_sum(self, J):
        with mock.patch.object(
            oracle_mod, "pattern_sum", wraps=oracle_mod.pattern_sum
        ) as spy:
            for n in range(9):
                pattern_nfold(J, n)
        assert spy.call_count == 0

    @settings(max_examples=100, deadline=None)
    @given(J=cosets(extra=True), n=st.integers(3, 8))
    def test_a_filled_two_fold_takes_one_sum(self, J, n):
        # a coset plus one word off it: J^(2) is a coset of span(J + j0)
        # for j0 in J, so only the first fold sums
        two = plain_nfold(J, 2, DEFAULT_BUDGET)
        assume(len(two) > len(J))
        with mock.patch.object(
            oracle_mod, "pattern_sum", wraps=oracle_mod.pattern_sum
        ) as spy:
            got = pattern_nfold(J, n)
        assert got == plain_nfold(J, n, DEFAULT_BUDGET)
        assert spy.call_count == 1


def blockwise_request(src, T, witness, thresholds):
    """A request checking every fold in `thresholds` against an E cover
    with the witness patterns, from that fold's threshold on; the source is
    an E cover with patterns `src`, one source block per witness block."""
    source = ECover(Partition(tuple(J.block for J in src)), src, 0)
    P = Partition(tuple(w.block for w in witness))
    per_fold = tuple(
        (b, ECover(P, witness, thr)) for b, thr in thresholds.items()
    )
    ranges = tuple((n, n + 1) for n in range(len(P)))
    return CertificateRequest("blockwise", source, ranges, T, per_fold)


class TestBlockwiseCertify:
    def setup_state(self):
        P = Partition.from_lengths([2, 2])
        src = tuple(
            PatternSet.from_bits(b, ["01"]) for b in P.blocks
        )
        T = silver_to_prefix(SilverTree(Point.zero(4), frozenset({1, 3})))
        return P, src, T

    def test_full_witness_passes(self):
        P, src, T = self.setup_state()
        witness = tuple(PatternSet.full(b) for b in P.blocks)
        cert = certify_request(
            blockwise_request(src, T, witness, {0: 0, 1: 0, 2: 0})
        )
        assert cert.passed
        assert len(cert.checks) == 6

    def test_zero_fold_needs_superset(self):
        P, src, T = self.setup_state()
        cert = certify_request(blockwise_request(src, T, src, {0: 0}))
        assert cert.passed
        tight = tuple(PatternSet.from_bits(b, ["10"]) for b in P.blocks)
        assert not certify_request(
            blockwise_request(src, T, tight, {0: 0})
        ).passed

    def test_threshold_skips_blocks(self):
        P, src, T = self.setup_state()
        bad = (
            PatternSet.empty(P[0]),
            PatternSet.full(P[1]),
        )
        cert = certify_request(blockwise_request(src, T, bad, {1: 1}))
        assert cert.passed
        assert [c.block_index for c in cert.checks] == [1]

    def test_misalignment_rejected(self):
        P, src, T = self.setup_state()
        with pytest.raises(ValueError):
            blockwise_request(src[:1], T, src, {0: 0})
        skew = (
            PatternSet.full(Block(0, 3)),
            PatternSet.full(Block(3, 4)),
        )
        with pytest.raises(ValueError):
            blockwise_request(src, T, skew, {0: 0})
        on = ECover(P, src, 0)
        off = ECover(Partition(tuple(w.block for w in skew)), skew, 0)
        with pytest.raises(ValueError, match="off the request partition"):
            CertificateRequest(
                "skew", on, ((0, 1), (1, 2)), T, ((0, on), (1, off))
            )
        with pytest.raises(ValueError, match="past the tree horizon"):
            blockwise_request(src, PrefixTree.full(3), src, {0: 0})

    def test_silver_witness_certifies(self):
        # hand-built instance of the blockwise claim a shrink emits: the
        # witness block is exactly source + branch patterns, so the check
        # passes with equality and fails as soon as one word is removed
        from treesum.bits import pattern_sum
        from treesum.trees import tree_restrict

        P = Partition.from_lengths([2, 2])
        T = silver_to_prefix(SilverTree(Point.from_bits("0110"), frozenset({1})))
        src = tuple(PatternSet.from_bits(b, ["00"]) for b in P.blocks)
        witness = tuple(
            pattern_sum(src[n], tree_restrict(T, b))
            for n, b in enumerate(P.blocks)
        )
        assert certify_request(blockwise_request(src, T, witness, {1: 0})).passed
        clipped = (
            PatternSet(witness[0].block, frozenset(list(witness[0].values)[:1])),
            witness[1],
        )
        assert not certify_request(
            blockwise_request(src, T, clipped, {1: 0})
        ).passed


class TestCertifyRequest:
    def test_runs_all_folds(self):
        P = Partition.from_lengths([1, 1])
        src = tuple(PatternSet.from_bits(b, ["0"]) for b in P.blocks)
        full = tuple(PatternSet.full(b) for b in P.blocks)
        T = PrefixTree.full(2)
        req = CertificateRequest(
            "demo", ECover(P, src, 0), ((0, 1), (1, 2)), T,
            ((0, ECover(P, full, 0)), (2, ECover(P, full, 1))),
        )
        cert = certify_request(req)
        assert cert.passed
        assert {(c.fold, c.block_index) for c in cert.checks} == {
            (0, 0), (0, 1), (2, 1),
        }
        assert cert.thresholds == ((0, 0), (2, 1))
        assert cert.label == "demo"

    def test_rejects_untiled_ranges_and_a_foreign_witness(self):
        fine = Partition.from_lengths([1, 1, 1])
        source = MeagerCover(Point.zero(3), fine, 0)
        P = Partition.from_lengths([2, 1])
        witness = MeagerCover(Point.zero(3), P, 0)
        T = PrefixTree.full(3)
        req = CertificateRequest("ok", source, ((0, 2), (2, 3)), T, ((0, witness),))
        assert req.partition == P and req.point_source is source
        for ranges in (
            ((0, 1), (1, 3)), ((0, 2),), ((0, 2), (2, 4)), ((0, 2), (2, 2)),
        ):
            with pytest.raises(ValueError, match="do not tile"):
                CertificateRequest("bad", source, ranges, T, ((0, witness),))
        foreign = ECover(P, tuple(PatternSet.full(b) for b in P.blocks), 0)
        with pytest.raises(ValueError, match="not of the source's type"):
            CertificateRequest(
                "bad", source, ((0, 2), (2, 3)), T, ((0, witness), (1, foreign))
            )

    def test_rejects_a_repeated_fold_count(self):
        # a lookup by fold would see only one of the covers, and the
        # certificate's thresholds would merge the two folds into one
        # report key
        fine = Partition.from_lengths([1, 1])
        source = MeagerCover(Point.zero(2), fine, 0)
        bad = MeagerCover(Point.from_bits("11"), fine, 0)
        T = PrefixTree.full(2)
        with pytest.raises(ValueError, match=r"repeated fold count in \[1, 0, 1\]"):
            CertificateRequest(
                "twice", source, ((0, 1), (1, 2)), T,
                ((1, bad), (0, source), (1, source)),
            )


def source_product(source, lo: int, hi: int) -> PatternSet:
    """The source's words on its fine blocks lo..hi-1, materialized: every
    word below its threshold, past it a meager cover's allowed words or
    the listed patterns."""
    return block_product([
        PatternSet.full(source.partition[j]) if j < getattr(source, "threshold", 0)
        else source.allowed(j) if isinstance(source, MeagerCover)
        else source.patterns[j]
        for j in range(lo, hi)
    ])


def certify_by_targets(req: CertificateRequest) -> tuple[BlockCheck, ...]:
    """The checks of `req` with the source and every fold's targets
    materialized, a meager block as all words but its forbidden one, each
    tested by set inclusion: the reference for the cover checks of
    `certify_request`."""
    checks = []
    for b, cover in req.per_fold:
        targets = [
            cover.allowed(n) if isinstance(cover, MeagerCover)
            else cover.patterns[n]
            for n in range(len(req.partition))
        ]
        for n in range(getattr(cover, "threshold", 0), len(req.partition)):
            tree_patterns = pattern_nfold(
                tree_restrict(req.tree, req.partition[n]), b
            )
            shifted = pattern_sum(source_product(req.source, *req.ranges[n]),
                                  tree_patterns)
            checks.append(BlockCheck(b, n, shifted.values <= targets[n].values))
    return tuple(checks)


@st.composite
def witness_requests(draw):
    """A request at a horizon up to 10 whose source and fold covers share
    one type, meager, E or small, each with a random threshold.  Witness
    blocks group random runs of the source's fine blocks, and may drop
    trailing ones.  Each witness block is drawn either to contain the fold
    image (meager: centred off it) or at random, so checks both pass and
    fail."""
    horizon = draw(st.integers(1, 10))
    fine = Partition.from_lengths(_lengths(draw, horizon))
    leaves = draw(
        st.frozensets(st.integers(0, (1 << horizon) - 1), min_size=1, max_size=12)
    )
    T = PrefixTree(horizon, leaves)
    kind = draw(st.sampled_from((MeagerCover, ECover, SmallCover)))
    threshold = draw(st.integers(0, len(fine)))
    if kind is MeagerCover:
        centre = Point(horizon, draw(st.integers(0, (1 << horizon) - 1)))
        source = MeagerCover(centre, fine, threshold)
    else:
        patterns = tuple(
            PatternSet(blk, draw(st.frozensets(st.integers(0, blk.mask), min_size=1)))
            for blk in fine.blocks
        )
        source = (
            ECover(fine, patterns, threshold) if kind is ECover
            else SmallCover(fine, patterns)
        )
    ranges, lo = [], 0
    while lo < len(fine) and (not ranges or draw(st.booleans())):
        hi = draw(st.integers(lo + 1, len(fine)))
        ranges.append((lo, hi))
        lo = hi
    P = Partition(tuple(Block(fine[lo].lo, fine[hi - 1].hi) for lo, hi in ranges))
    folds = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
    per_fold = []
    for b in draw(folds):
        centre, patterns = 0, []
        for blk, (lo, hi) in zip(P.blocks, ranges):
            words = frozenset(range(1 << blk.length))
            if draw(st.booleans()):
                kept = pattern_sum(
                    source_product(source, lo, hi),
                    pattern_nfold(tree_restrict(T, blk), b),
                ).values
                centres = words - kept or words
            else:
                kept = draw(st.frozensets(st.sampled_from(sorted(words))))
                centres = words
            word = draw(st.sampled_from(sorted(centres)))
            centre |= word << (P.horizon - blk.hi)
            patterns.append(PatternSet(blk, kept))
        threshold = draw(st.integers(0, len(P)))
        if kind is MeagerCover:
            cover = MeagerCover(Point(P.horizon, centre), P, threshold)
        elif kind is ECover:
            cover = ECover(P, tuple(patterns), threshold)
        else:
            cover = SmallCover(P, tuple(patterns))
        per_fold.append((b, cover))
    return CertificateRequest("random", source, tuple(ranges), T, tuple(per_fold))


def _failed(cert) -> set[tuple[int, int]]:
    return {(c.fold, c.block_index) for c in cert.checks if not c.passed}


class TestCoverChecks:
    @settings(max_examples=300, deadline=None)
    @given(witness_requests())
    def test_matches_materialized_targets(self, req):
        cert = certify_request(req)
        assert cert.checks == certify_by_targets(req)
        assert cert.thresholds == tuple(
            (b, getattr(c, "threshold", 0)) for b, c in req.per_fold
        )

    @settings(max_examples=150, deadline=None)
    @given(witness_requests())
    def test_tamper_fails_at_its_block_only(self, req):
        # a dropped word (E, small) or a recentred block (meager) must fail
        # the tampered [fold, block] and change no other check
        clean = certify_request(req)
        for b, cover in req.per_fold:
            for n in range(getattr(cover, "threshold", 0), len(req.partition)):
                bad = _apply_tamper(req, Tamper(req.label, b, n))
                tampered = dict(bad.per_fold)[b]
                assert type(tampered) is type(cover)
                assert _failed(certify_request(bad)) == _failed(clean) | {(b, n)}
                assert certify_by_targets(bad) == certify_request(bad).checks


class TestExhaustive:
    def test_small_cover_rejected(self):
        P = Partition.from_lengths([2, 2])
        small = SmallCover(
            P, tuple(PatternSet.from_bits(b, ["00"]) for b in P.blocks)
        )
        C = MeagerCover(Point.zero(4), P, 0)
        T = PrefixTree.full(4)
        with pytest.raises(ValueError):
            exhaustive_containment(small, T, 1, C)
        with pytest.raises(ValueError):
            exhaustive_containment(C, T, 1, small)

    def test_cap(self):
        P = Partition.from_lengths([8, 8])
        C = MeagerCover(Point.zero(16), P, 0)
        with pytest.raises(ValueError):
            exhaustive_containment(C, PrefixTree.from_leaves(["0" * 16]), 0, C)

    def test_vacuous_witness(self):
        P = Partition.from_lengths([2, 2])
        C = MeagerCover(Point.zero(4), P, 0)
        everything = MeagerCover(Point.zero(4), P, 2)
        assert exhaustive_containment(C, PrefixTree.full(4), 2, everything)

    def test_zero_fold_superset(self):
        P = Partition.from_lengths([2, 2])
        C = MeagerCover(Point.from_bits("0110"), P, 0)
        T = PrefixTree.from_leaves(["0110"])
        assert exhaustive_containment(C, T, 0, C)

    def test_detects_failure(self):
        P = Partition.from_lengths([2, 2])
        C = MeagerCover(Point.zero(4), P, 0)
        # adding the branch 0001 maps the member 0100 onto 0101, which
        # still avoids 00 on block 0 but the second block can hit 00
        T = PrefixTree.from_leaves(["0011"])
        assert not exhaustive_containment(C, T, 1, C)

    def test_counterexample(self):
        P = Partition.from_lengths([2, 2])
        C = MeagerCover(Point.zero(4), P, 0)
        T = PrefixTree.from_leaves(["0011"])
        assert exhaustive_counterexample(C, T, ((1, C), (0, C))) == {
            1: Counterexample(
                Point.from_bits("0100"), Point.from_bits("0011"), Block(2, 4)
            ),
            0: None,
        }

    def test_rejects_a_repeated_fold_count(self):
        # each witness alone gives a different answer, so one entry per
        # fold count would hide one of them
        P = Partition.from_lengths([2, 2])
        bad = MeagerCover(Point.zero(4), P, 0)
        good = MeagerCover(Point.zero(4), P, 2)
        T = PrefixTree.full(4)
        assert exhaustive_counterexample(bad, T, ((1, bad),))[1] is not None
        assert exhaustive_counterexample(bad, T, ((1, good),))[1] is None
        for per_fold in (((1, bad), (1, good)), ((1, good), (1, bad))):
            with pytest.raises(
                ValueError, match=r"repeated fold count in \[1, 1\]"
            ):
                exhaustive_counterexample(bad, T, per_fold)

    def test_budget_is_charged_before_any_point_set(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("point set built before the budget check")

        monkeypatch.setattr(oracle_mod, "_point_set", refuse)
        P = Partition.from_lengths([3, 3, 3, 3])
        everything = MeagerCover(Point.zero(12), P, len(P))
        with pytest.raises(BudgetExceeded):
            exhaustive_containment(
                everything, PrefixTree.full(12), 1, everything, budget=1000
            )
        # fold 0 alone fits the budget, fold 2 does not: neither fold's
        # point sets may be built before fold 2 is charged
        C = MeagerCover(Point.zero(12), P, 0)
        T = PrefixTree.from_leaves(["000000000001", "000000000010"])
        assert len(nfold_body_sum(T, 2)) == 2
        with pytest.raises(BudgetExceeded, match="exhaustive budget 200"):
            exhaustive_counterexample(C, T, ((0, C), (2, C)), budget=200)

    def test_budget_boundary(self):
        # b = 0 adds the single sum 0: three passes over 2^8 / 64 words
        P = Partition.from_lengths([4, 4])
        C = MeagerCover(Point.zero(8), P, 1)
        T = PrefixTree.from_leaves(["00000001"])
        assert exhaustive_containment(C, T, 0, C, budget=3 * 4)
        with pytest.raises(BudgetExceeded):
            exhaustive_containment(C, T, 0, C, budget=3 * 4 - 1)

    def test_straddling_source_block(self):
        # the witness horizon cuts the source block [2, 5) after bit 3, so
        # source values 000, 001 become the single leading pair 00
        P = Partition.from_lengths([2, 3])
        src = ECover(P, (
            PatternSet.full(P[0]),
            PatternSet.from_bits(P[1], ["000", "001"]),
        ))
        Pw = Partition.from_lengths([2, 1])
        wit = ECover(Pw, (PatternSet.full(Pw[0]), PatternSet.from_bits(Pw[1], ["0"])))
        assert exhaustive_containment(src, PrefixTree.from_leaves(["00001"]), 1, wit)
        assert exhaustive_counterexample(
            src, PrefixTree.from_leaves(["00100"]), ((1, wit),)
        ) == {1: Counterexample(Point.from_bits("001"), Point.from_bits("001"), Pw[1])}

    def test_empty_dropped_block_empties_the_source(self):
        P = Partition.from_lengths([2, 2])
        src = ECover(P, (PatternSet.full(P[0]), PatternSet.empty(P[1])))
        Pw = Partition.from_lengths([2])
        wit = ECover(Pw, (PatternSet.empty(Pw[0]),))
        assert exhaustive_containment(src, PrefixTree.full(4), 1, wit)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_point_loop(self, data):
        horizon = data.draw(st.integers(1, 10))
        src = data.draw(point_covers(horizon))
        leaves = data.draw(
            st.frozensets(st.integers(0, (1 << horizon) - 1), min_size=1, max_size=6)
        )
        T = PrefixTree(horizon, leaves)
        folds = data.draw(
            st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
        )
        per_fold = tuple(
            (b, data.draw(point_covers(data.draw(st.integers(1, horizon)))))
            for b in folds
        )
        found = exhaustive_counterexample(src, T, per_fold)
        assert list(found) == folds
        for b, wit in per_fold:
            escapes = escaping_points_direct(src, T, b, wit)
            assert exhaustive_containment_direct(src, T, b, wit) == (not escapes)
            assert exhaustive_containment(src, T, b, wit) == (not escapes)
            if not escapes:
                assert found[b] is None
                continue
            q = min(escapes)
            members, sums = _members_and_sums_direct(src, T, b, wit)
            assert found[b] == Counterexample(
                Point(wit.horizon, q),
                Point(wit.horizon, min(t for t in sums if q ^ t in members)),
                _first_missed_block(wit, q),
            )

    def test_matches_pointwise_definition(self):
        rng = random.Random(61)
        for _ in range(15):
            h = 6
            P = Partition.from_lengths([2, 2, 2])
            kind = rng.choice(["meager", "e"])
            if kind == "meager":
                src = MeagerCover(Point(h, rng.randrange(64)), P, rng.randint(0, 1))
                wit = MeagerCover(Point(h, rng.randrange(64)), P, rng.randint(0, 2))
                member_src = lambda p: meager_member(src, p)
                member_wit = lambda p: meager_member(wit, p)
            else:
                def rand_cover():
                    pats = tuple(
                        PatternSet(
                            b,
                            frozenset(
                                v for v in range(4) if rng.random() < 0.7
                            ),
                        )
                        for b in P.blocks
                    )
                    return ECover(P, pats, rng.randint(0, 1))
                src, wit = rand_cover(), rand_cover()
                member_src = lambda p: e_member(src, p)
                member_wit = lambda p: e_member(wit, p)
            T = random_tree(rng, h, 6)
            b = rng.randint(0, 3)
            sums = (
                {0} if b == 0 else set(nfold_body_sum(T, b).values)
            )
            expected = all(
                member_wit(Point(h, p ^ t))
                for p in range(64)
                if member_src(Point(h, p))
                for t in sums
            )
            assert exhaustive_containment(src, T, b, wit) == expected

    def test_truncated_witness(self):
        P = Partition.from_lengths([2, 2])
        Pw = Partition.from_lengths([2])
        src = MeagerCover(Point.zero(4), P, 0)
        wit = MeagerCover(Point.zero(2), Pw, 0)
        T = PrefixTree.from_leaves(["0001"])
        # the branch only touches the dropped tail, so members keep avoiding
        # 00 on the surviving block
        assert exhaustive_containment(src, T, 1, wit)
        assert not exhaustive_containment(
            src, PrefixTree.from_leaves(["0100"]), 1, wit
        )


def exhaustive_per_fold(source_cover, T, per_fold, budget=DEFAULT_BUDGET):
    """The exhaustive oracle with one `nfold_body_sum(T, b)` per fold: each
    fold is charged, in `per_fold` order, before any point is tested, then
    answered by the point loop.  The reference for the shared fold chain."""
    for b, cover in per_fold:
        drop = T.horizon - cover.horizon
        words = [0] if b == 0 else nfold_body_sum(T, b, budget).values
        cost = (len({v >> drop for v in words}) + 2) * -(-(1 << cover.horizon) // 64)
        if cost > budget:
            raise BudgetExceeded(f"exhaustive budget {budget} exceeded ({cost} words)")
    found = {}
    for b, wit in per_fold:
        escapes = escaping_points_direct(source_cover, T, b, wit)
        found[b] = None
        if escapes:
            q = min(escapes)
            members, sums = _members_and_sums_direct(source_cover, T, b, wit)
            found[b] = Counterexample(
                Point(wit.horizon, q),
                Point(wit.horizon, min(t for t in sums if q ^ t in members)),
                _first_missed_block(wit, q),
            )
    return found


@st.composite
def chain_cases(draw, max_horizon: int = 8, max_leaves: int = 10):
    """A source cover, a tree (any leaf set, or a Silver tree, whose folds
    fill their span) and per-fold witnesses in any fold order."""
    horizon = draw(st.integers(1, max_horizon))
    src = draw(point_covers(horizon))
    if draw(st.booleans()):
        x = Point(horizon, draw(st.integers(0, (1 << horizon) - 1)))
        free = draw(st.frozensets(st.integers(0, horizon - 1), max_size=3))
        T = silver_to_prefix(SilverTree(x, free))
    else:
        T = PrefixTree(horizon, draw(st.frozensets(
            st.integers(0, (1 << horizon) - 1), min_size=1, max_size=max_leaves
        )))
    folds = draw(st.permutations(range(4)))[:draw(st.integers(1, 4))]
    per_fold = tuple(
        (b, draw(point_covers(draw(st.integers(1, horizon))))) for b in folds
    )
    return src, T, per_fold


def _reordered(per_fold, order):
    by_fold = dict(per_fold)
    return tuple((b, by_fold[b]) for b in order)


class TestExhaustiveChain:
    """One fold chain per call gives what one `nfold_body_sum` per fold gave:
    the same entries, the same budget errors, fewer sums."""

    @settings(max_examples=200, deadline=None)
    @given(chain_cases())
    def test_matches_one_sum_per_fold(self, case):
        src, T, per_fold = case
        assert exhaustive_counterexample(src, T, per_fold) == exhaustive_per_fold(
            src, T, per_fold
        )

    def test_tampered_witnesses_in_any_fold_order(self):
        E = ECover(Partition.from_lengths([2] * 6), tuple(
            PatternSet.from_bits(Block(2 * i, 2 * i + 2), words)
            for i, words in enumerate([["00", "11"], ["01", "10"], ["00", "01"],
                                       ["10", "11"], ["00", "10"], ["01", "11"]])
        ), 0)
        req = build_splitting_e(E).witnesses[0]
        source, T = req.point_source, req.tree
        requests = [req] + [
            _apply_tamper(req, Tamper(req.label, b, n))
            for b, cover in req.per_fold
            for n in range(cover.threshold, len(req.partition))
        ]
        seen_escape = False
        for r in requests:
            for order in ((3, 0, 1), (2, 3), (1, 0, 3, 2)):
                per_fold = _reordered(r.per_fold, order)
                got = exhaustive_counterexample(source, T, per_fold)
                assert got == exhaustive_per_fold(source, T, per_fold)
                seen_escape |= any(c is not None for c in got.values())
        assert seen_escape

    @settings(max_examples=40, deadline=None)
    @given(chain_cases(max_horizon=6, max_leaves=8))
    def test_budget_errors_match_one_sum_per_fold(self, case):
        # every budget below the first passing one raises the same error,
        # fold sum or exhaustive, as one nfold_body_sum per fold did
        src, T, per_fold = case
        budget = 0
        while True:
            try:
                want = exhaustive_per_fold(src, T, per_fold, budget)
            except BudgetExceeded as err:
                with pytest.raises(BudgetExceeded) as got:
                    exhaustive_counterexample(src, T, per_fold, budget=budget)
                assert str(got.value) == str(err)
                budget += 1
            else:
                assert exhaustive_counterexample(
                    src, T, per_fold, budget=budget
                ) == want
                return

    @settings(max_examples=100, deadline=None)
    @given(chain_cases())
    def test_one_branch_set_and_one_sum_per_new_fold(self, case):
        src, T, per_fold = case
        block = Block(0, T.horizon)
        top = max(b for b, _ in per_fold)
        calls = {"nfold_body_sum": 0, "pattern_sum": 0}

        def spy(name, fn, counts):
            def wrapped(*args, **kwargs):
                calls[name] += counts(*args)
                return fn(*args, **kwargs)
            return wrapped

        with mock.patch.object(oracle_mod, "nfold_body_sum", spy(
            "nfold_body_sum", nfold_body_sum, lambda *a: 1
        )), mock.patch.object(oracle_mod, "pattern_sum", spy(
            "pattern_sum", pattern_sum, lambda J, K: J.block == block
        )):
            exhaustive_counterexample(src, T, per_fold)
        assert calls["nfold_body_sum"] == (1 if top else 0)
        assert calls["pattern_sum"] <= max(top - 1, 0)


@dataclass(frozen=True)
class FakeBundle:
    per_fold: tuple
    mass_bounds: tuple = ()


class TestAuditTable:
    def test_no_audit(self):
        P = Partition.from_lengths([2])
        cover = MeagerCover(Point.zero(2), P, 0)
        assert density_audit_table(FakeBundle(((0, cover),))) == ()

    def test_mass_rows(self):
        P = Partition.from_lengths([2, 2])
        small = SmallCover(
            P, tuple(PatternSet.from_bits(b, ["00"]) for b in P.blocks)
        )
        rows = density_audit_table(
            FakeBundle(
                ((0, small), (1, small)),
                ((0, Fraction(2)), (1, Fraction(1, 4))),
            )
        )
        assert rows == (
            AuditRow(0, "mass", Fraction(1, 2), Fraction(2), True),
            AuditRow(1, "mass", Fraction(1, 2), Fraction(1, 4), False),
        )

    def test_density_rows(self):
        P = Partition.from_lengths([2])
        e = ECover(P, (PatternSet.from_bits(P[0], ["00", "01"]),), 0)
        rows = density_audit_table(FakeBundle(((1, e),)))
        assert rows[0].passed and rows[0].value == Fraction(1, 2)
