"""Prefix tree and Silver parameterization tests.

Reference computations work on node strings so the packed-int paths are
checked against plain string handling.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum.bits import Block, Partition, PatternSet, Point
from treesum.constructions import (
    _all_split_level,
    _perfect_warning,
    _prune_split_budget,
    shrink_perfect_e,
    shrink_perfect_meager,
    shrink_perfect_small,
)
from treesum.covers import ECover, MeagerCover, SmallCover
from treesum.trees import (
    KindFlags,
    PrefixTree,
    SilverTree,
    classify,
    first_splitting_node,
    is_perfect,
    is_subtree,
    leftmost_leaf,
    silver_to_prefix,
    splitting_defect,
    tree_restrict,
)


def _defect_items(T: PrefixTree) -> Iterator[tuple[tuple[int, int], int]]:
    """Per node (d, v), its splitting defect, from per-node masks: the
    per-node reference for `splitting_defect`, which reads only the cuts."""
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


def splitting_thresholds(T: PrefixTree) -> dict[str, int]:
    """Per stem, the minimal N such that every coordinate past N is realized
    with both values by extensions of the stem, read off `_defect_items`."""
    return {
        format(v, f"0{d}b") if d else "": (d - 1) + defect
        for (d, v), defect in _defect_items(T)
    }


def split_count_on_stem(T: PrefixTree, stem: str) -> int:
    """Splitting nodes among the initial segments of a stem, the stem
    itself included, by `children` (leaves have none)."""
    assert T.contains_node(stem)
    return sum(
        d < T.horizon and len(T.children(d, int(stem[:d], 2) if d else 0)) == 2
        for d in range(len(stem) + 1)
    )


def leaves_of(T: PrefixTree) -> set[str]:
    return {format(v, f"0{T.horizon}b") for v in T.leaves}


def body_sum(T1: SilverTree, T2: SilverTree) -> frozenset[int]:
    """The XOR sumset of two Silver bodies, leaf pair by leaf pair."""
    return frozenset(
        u ^ v
        for u in silver_to_prefix(T1).leaves
        for v in silver_to_prefix(T2).leaves
    )


def random_tree(rng: random.Random, horizon: int, max_leaves: int) -> PrefixTree:
    count = rng.randint(1, max_leaves)
    pool = rng.sample(range(1 << horizon), min(count, 1 << horizon))
    return PrefixTree(horizon, frozenset(pool))


class TestSilverTree:
    def test_parameters(self):
        T = SilverTree(Point.from_bits("0000"), frozenset({1, 3}))
        assert T.horizon == 4
        with pytest.raises(ValueError):
            SilverTree(Point.from_bits("0000"), frozenset({4}))

    def test_canonical_zeroes_free_bits(self):
        # the bits of x on free coordinates are irrelevant: zeroing them
        # gives the same tree
        T = SilverTree(Point.from_bits("1111"), frozenset({1, 3}))
        zeroed = SilverTree(Point.from_bits("1010"), T.free)
        assert silver_to_prefix(T) == silver_to_prefix(zeroed)
        assert leaves_of(silver_to_prefix(T)) == {"1010", "1011", "1110", "1111"}

    def test_sum_parameters(self):
        # the body of the tree with XORed base points and united free sets
        # is the sumset of the two bodies
        T1 = SilverTree(Point.from_bits("1010"), frozenset({0}))
        T2 = SilverTree(Point.from_bits("0110"), frozenset({3}))
        S = SilverTree(T1.x ^ T2.x, T1.free | T2.free)
        assert S.x.bits() == "1100"
        assert S.free == {0, 3}
        assert silver_to_prefix(S).leaves == body_sum(T1, T2)
        assert leaves_of(silver_to_prefix(S)) == {"0100", "0101", "1100", "1101"}

    def test_sum_with_self(self):
        # x ^ x = 0: a body plus itself is the group its free coordinates span
        T = SilverTree(Point.from_bits("1010"), frozenset({0, 2}))
        group = silver_to_prefix(SilverTree(Point.zero(4), T.free))
        assert body_sum(T, T) == group.leaves
        assert leaves_of(group) == {"0000", "0010", "1000", "1010"}

    def test_sum_identity(self):
        # the single zero branch adds nothing
        T = SilverTree(Point.from_bits("1011"), frozenset({1}))
        zero = SilverTree(Point.zero(4), frozenset())
        assert body_sum(T, zero) == silver_to_prefix(T).leaves


def ref_silver_leaves(T: SilverTree) -> frozenset[int]:
    """One leaf per subset of the free coordinates, each set bit by bit
    over the base with those coordinates cleared."""
    H, base = T.horizon, T.x.value
    for i in T.free:
        base &= ~(1 << (H - 1 - i))
    free_positions = sorted(H - 1 - i for i in T.free)
    leaves = []
    for mask_bits in range(1 << len(free_positions)):
        v = base
        for j, pos in enumerate(free_positions):
            if (mask_bits >> j) & 1:
                v |= 1 << pos
        leaves.append(v)
    return frozenset(leaves)


class TestSilverToPrefix:
    def test_frozen_example(self):
        T = SilverTree(Point.from_bits("0000"), frozenset({1, 3}))
        P = silver_to_prefix(T)
        assert leaves_of(P) == {"0000", "0001", "0100", "0101"}

    def test_no_free_gives_single_branch(self):
        T = SilverTree(Point.from_bits("1101"), frozenset())
        assert leaves_of(silver_to_prefix(T)) == {"1101"}

    def test_all_free_gives_full_tree(self):
        T = SilverTree(Point.from_bits("000"), frozenset({0, 1, 2}))
        assert silver_to_prefix(T) == PrefixTree.full(3)

    def test_body_size_counts_free_coordinates(self):
        rng = random.Random(23)
        for _ in range(20):
            h = rng.randint(2, 8)
            free = frozenset(rng.sample(range(h), rng.randint(0, h)))
            x = Point(h, rng.randrange(1 << h))
            P = silver_to_prefix(SilverTree(x, free))
            assert len(P) == 1 << len(free)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda h: st.tuples(
        st.integers(0, (1 << h) - 1), st.frozensets(st.integers(0, h - 1))
    ).map(lambda t: (h, *t))))
    def test_matches_the_double_loop(self, drawn):
        # x keeps its bits on free coordinates
        h, x, free = drawn
        T = SilverTree(Point(h, x), free)
        assert silver_to_prefix(T).leaves == ref_silver_leaves(T)

    def test_sum_body_law_exhaustive_small(self):
        # body of the parameter sum equals the XOR sumset of the bodies
        rng = random.Random(29)
        for _ in range(30):
            h = rng.randint(1, 5)
            T1 = SilverTree(Point(h, rng.randrange(1 << h)),
                            frozenset(rng.sample(range(h), rng.randint(0, h))))
            T2 = SilverTree(Point(h, rng.randrange(1 << h)),
                            frozenset(rng.sample(range(h), rng.randint(0, h))))
            summed = SilverTree(T1.x ^ T2.x, T1.free | T2.free)
            assert silver_to_prefix(summed).leaves == body_sum(T1, T2)


class TestPrefixTree:
    def test_from_leaves_roundtrip(self):
        T = PrefixTree.from_leaves(["010", "011", "110"])
        assert leaves_of(T) == {"010", "011", "110"}
        assert len(T) == 3

    def test_contains_node(self):
        T = PrefixTree.from_leaves(["010", "111"])
        assert T.contains_node("")
        assert T.contains_node("01")
        assert not T.contains_node("00")
        assert not T.contains_node("0101")

    def test_levels_and_children(self):
        T = PrefixTree.from_leaves(["00", "01", "11"])
        # 01 and 11 part at the root, 00 and 01 at node 0
        assert T.sorted_leaves == (0, 1, 3)
        assert T.cuts == [1, 2]
        assert T.split_counts == [1, 1]
        assert T.span(1, 0) == (0, 2) and T.span(1, 1) == (2, 3)
        assert T.children(0, 0) == (0, 1)
        assert T.children(1, 0) == (0, 1)
        assert T.children(1, 1) == (3,)

    def test_full_checks_the_horizon_first(self):
        for horizon in (-1, 0):
            with pytest.raises(ValueError, match="horizon must be positive"):
                PrefixTree.full(horizon)
        with pytest.raises(ValueError, match="refusing to materialize 2"):
            PrefixTree.full(21)
        assert len(PrefixTree.full(1)) == 2

    def test_rejects_leaves_out_of_range(self):
        for leaves, bad in (({1, -1}, -1), ({0, 8}, 8)):
            with pytest.raises(
                ValueError, match=f"^leaf {bad} out of range for horizon 3$"
            ):
                PrefixTree(3, frozenset(leaves))

    def test_full_is_the_checked_range(self):
        # full skips the per-leaf check; the tree is the one the check passes
        for horizon in (1, 5, 12):
            T = PrefixTree.full(horizon)
            checked = PrefixTree(horizon, frozenset(range(1 << horizon)))
            assert T == checked and hash(T) == hash(checked)
            assert T.cuts == checked.cuts

    def test_body_full(self):
        # the body is the leaves, in canonical order
        assert PrefixTree.full(3).sorted_leaves == tuple(range(8))
        assert PrefixTree.from_leaves(["10"]).sorted_leaves == (0b10,)

    def test_restrict(self):
        full = PrefixTree.full(3)
        assert len(tree_restrict(full, Block(0, 2))) == 4
        single = PrefixTree.from_leaves(["101"])
        assert {w.bits() for w in tree_restrict(single, Block(1, 3)).words()} == {"01"}
        silver = silver_to_prefix(SilverTree(Point.from_bits("0000"), frozenset({1, 3})))
        assert {w.bits() for w in tree_restrict(silver, Block(0, 2)).words()} == {"00", "01"}
        with pytest.raises(ValueError):
            tree_restrict(full, Block(0, 4))

    def test_restrict_size_tracks_free_overlap(self):
        T = silver_to_prefix(SilverTree(Point.zero(8), frozenset({1, 4, 6})))
        assert len(tree_restrict(T, Block(0, 3))) == 2
        assert len(tree_restrict(T, Block(3, 8))) == 4
        assert len(tree_restrict(T, Block(2, 4))) == 1

    def test_is_subtree(self):
        T = PrefixTree.full(3)
        S = PrefixTree.from_leaves(["010"])
        assert is_subtree(T, T)
        assert is_subtree(S, T)
        assert not is_subtree(T, S)
        disjoint = PrefixTree.from_leaves(["000", "100"])
        other = PrefixTree.from_leaves(["010", "110"])
        assert not is_subtree(disjoint, other)


class TestClassify:
    def test_full_tree_all_flags(self):
        assert classify(PrefixTree.full(4)) == KindFlags(True, True, True, True)

    def test_single_branch_all_false(self):
        assert classify(PrefixTree.from_leaves(["0110"])) == KindFlags(
            False, False, False, False
        )

    def test_silver_output_is_silver(self):
        rng = random.Random(31)
        for _ in range(20):
            h = rng.randint(2, 8)
            free = frozenset(rng.sample(range(h), rng.randint(1, h)))
            T = SilverTree(Point(h, rng.randrange(1 << h)), free)
            flags = classify(silver_to_prefix(T))
            assert flags.silver and flags.uniformly_perfect and flags.perfect

    def test_implication_chain_on_random_trees(self):
        rng = random.Random(37)
        for _ in range(60):
            flags = classify(random_tree(rng, rng.randint(2, 7), 12))
            if flags.silver:
                assert flags.perfect
            if flags.uniformly_perfect:
                assert flags.perfect

    def test_perfect_but_not_uniform(self):
        # staggered mid-tree splits, re-synced at the deepest level
        T = PrefixTree.from_leaves(
            ["0000", "0001", "0100", "0101",
             "1000", "1001", "1010", "1011"]
        )
        flags = classify(T)
        assert flags.perfect
        assert not flags.uniformly_perfect
        assert not flags.silver

    def test_uniform_but_not_silver(self):
        # both depth-1 nodes split at depth 1? need same-level all-split with
        # differing successor patterns at a non-split level
        T = PrefixTree.from_leaves(["001", "011", "100", "110"])
        flags = classify(T)
        assert flags.perfect and flags.uniformly_perfect
        assert not flags.silver

    def test_silver_tree_with_sparse_free_is_not_splitting(self):
        T = silver_to_prefix(SilverTree(Point.zero(10), frozenset({0, 4, 8})))
        assert not classify(T).splitting_at_horizon

    def test_splitting_allowance(self):
        # the allowance is horizon // 2, so 2 at horizon 4
        branch = PrefixTree.from_leaves(["0000"])
        assert splitting_defect(branch) == 4
        assert not classify(branch).splitting_at_horizon
        at = silver_to_prefix(SilverTree(Point.zero(4), frozenset({2, 3})))
        past = silver_to_prefix(SilverTree(Point.zero(4), frozenset({0, 1, 3})))
        assert splitting_defect(at) == 2 and classify(at).splitting_at_horizon
        assert splitting_defect(past) == 3
        assert not classify(past).splitting_at_horizon


class TestSplittingDiagnostics:
    def test_full_tree_has_zero_defect(self):
        assert splitting_defect(PrefixTree.full(5)) == 0
        thresholds = splitting_thresholds(PrefixTree.full(3))
        assert thresholds[""] == -1
        assert thresholds["01"] == 1
        assert thresholds["010"] == 2

    def test_single_branch_thresholds(self):
        thresholds = splitting_thresholds(PrefixTree.from_leaves(["000"]))
        # nothing past any stem realizes both values
        assert thresholds[""] == 2
        assert thresholds["00"] == 2

    def test_forced_coordinate_pushes_threshold(self):
        # coordinate 1 is constant across leaves; both values elsewhere
        T = PrefixTree.from_leaves(["000", "001", "100", "101"])
        thresholds = splitting_thresholds(T)
        assert thresholds[""] == 1
        assert splitting_defect(T) == 2
        assert thresholds["00"] == 1  # a satisfied stem: defect 0 from length 2


@lru_cache(maxsize=8)
def ref_levels(T: PrefixTree) -> tuple[frozenset[int], ...]:
    """The nodes of each depth, as shifted leaves (kept for the last few
    trees, so the per-depth references below stay cheap on deep trees)."""
    return tuple(
        frozenset(v >> (T.horizon - d) for v in T.leaves)
        for d in range(T.horizon + 1)
    )


def ref_flags(T: PrefixTree) -> tuple[bool, bool, bool]:
    """perfect, uniformly_perfect, silver by the per-node definitions: a
    split-extension flag per node, and per-node child-bit patterns."""
    H, levels = T.horizon, ref_levels(T)

    def kids(d, v):
        return [c for c in (2 * v, 2 * v + 1) if c in levels[d + 1]]

    splits = [{v for v in levels[d] if len(kids(d, v)) == 2} for d in range(H)]
    ext = {(H, v): False for v in levels[H]}
    for d in range(H - 1, -1, -1):
        for v in levels[d]:
            ext[(d, v)] = v in splits[d] or any(ext[(d + 1, c)] for c in kids(d, v))
    deepest = max((d for d in range(H) if splits[d]), default=-1)
    perfect = deepest >= 0 and all(
        ext[(d, v)] for d in range(deepest + 1) for v in levels[d]
    )
    uniform = perfect and all(not splits[d] or splits[d] == levels[d] for d in range(H))
    silver = perfect and all(
        len({frozenset(c & 1 for c in kids(d, v)) for v in levels[d]}) == 1
        for d in range(H)
    )
    return perfect, uniform, silver


def ref_thresholds(T: PrefixTree) -> dict[str, int]:
    """Per stem, the last coordinate past it that its extensions do not
    realize with both values (one less than the stem length if none)."""
    H = T.horizon
    ones: dict[tuple[int, int], int] = {}
    zeros: dict[tuple[int, int], int] = {}
    for leaf in T.leaves:
        for d in range(H + 1):
            key = (d, leaf >> (H - d))
            ones[key] = ones.get(key, 0) | leaf
            zeros[key] = zeros.get(key, 0) | (~leaf & ((1 << H) - 1))
    out = {}
    for (d, v), o in ones.items():
        both = o & zeros[(d, v)]
        worst = d - 1
        for n in range(d, H):
            if not (both >> (H - 1 - n)) & 1:
                worst = n
        out[format(v, f"0{d}b") if d else ""] = worst
    return out


@st.composite
def leveled_trees(draw):
    """Trees grown level by level: every node splits, every node takes the
    same child bit, or each node picks its own children.  Uniform and Silver
    trees come up often, and per-node levels break both."""
    horizon = draw(st.integers(1, 9))
    rng = draw(st.randoms(use_true_random=False))
    level = [0]
    for _ in range(horizon):
        mode = draw(st.sampled_from(["split", "bit0", "bit1", "mixed"]))
        nxt = []
        for v in level:
            pick = rng.choice(["split", "bit0", "bit1"]) if mode == "mixed" else mode
            if pick != "bit1":
                nxt.append(2 * v)
            if pick != "bit0":
                nxt.append(2 * v + 1)
        level = nxt
    return PrefixTree(horizon, frozenset(level))


@st.composite
def leaf_set_trees(draw):
    horizon = draw(st.integers(1, 9))
    leaves = draw(st.sets(st.integers(0, (1 << horizon) - 1), min_size=1, max_size=40))
    return PrefixTree(horizon, frozenset(leaves))


@st.composite
def silver_prefix_trees(draw):
    horizon = draw(st.integers(1, 9))
    x = Point(horizon, draw(st.integers(0, (1 << horizon) - 1)))
    free = draw(st.frozensets(st.integers(0, horizon - 1)))
    return silver_to_prefix(SilverTree(x, free))


@st.composite
def deep_sparse_trees(draw):
    """1-40 leaves at horizons up to 300: each flips random bits of a base
    leaf past a random depth, so splits spread over the whole horizon and
    the nodes are wide ints."""
    horizon = draw(st.integers(1, 300))
    base = draw(st.integers(0, (1 << horizon) - 1))
    rng = draw(st.randoms(use_true_random=False))
    count = rng.randint(1, 40)
    leaves = {base ^ rng.getrandbits(rng.randint(1, horizon)) for _ in range(count)}
    return PrefixTree(horizon, frozenset(leaves))


any_tree = st.one_of(
    leveled_trees(), leaf_set_trees(), silver_prefix_trees(), deep_sparse_trees()
)


class TestKindsFromLevelSizes:
    @settings(max_examples=300, deadline=None)
    @given(any_tree)
    def test_flags_match_per_node_definitions(self, T):
        perfect, uniform, silver = ref_flags(T)
        flags = classify(T)
        assert is_perfect(T) == perfect
        assert (flags.perfect, flags.uniformly_perfect, flags.silver) == (
            perfect, uniform, silver
        )

    @settings(max_examples=300, deadline=None)
    @given(any_tree)
    def test_defect_matches_per_coordinate_loop(self, T):
        expected = ref_thresholds(T)
        assert splitting_thresholds(T) == expected
        assert splitting_defect(T) == max(
            worst - (len(stem) - 1) for stem, worst in expected.items()
        )
        assert classify(T).splitting_at_horizon == (
            splitting_defect(T) <= T.horizon // 2
        )

    @pytest.mark.parametrize("case", [
        "random-1024-h14", "full-12", "silver-1024", "sparse-h300",
    ])
    def test_defect_on_large_trees(self, case):
        # shapes past the drawn 40-leaf trees: the 1024-leaf horizon-14 E
        # outputs of the splitting-folds benchmark, a full tree, a 2^10-leaf
        # Silver tree and a sparse tree with wide nodes
        rng = random.Random(case)
        if case == "random-1024-h14":
            T = PrefixTree(14, frozenset(rng.sample(range(1 << 14), 1024)))
        elif case == "full-12":
            T = PrefixTree.full(12)
        elif case == "silver-1024":
            free = frozenset(rng.sample(range(16), 10))
            T = silver_to_prefix(SilverTree(Point(16, rng.getrandbits(16)), free))
        else:
            base = rng.getrandbits(300)
            T = PrefixTree(300, frozenset(
                base ^ rng.getrandbits(rng.randint(1, 300)) for _ in range(200)
            ))
        expected = ref_thresholds(T)
        assert splitting_thresholds(T) == expected
        assert splitting_defect(T) == max(
            worst - (len(stem) - 1) for stem, worst in expected.items()
        )

    @settings(max_examples=100, deadline=None)
    @given(any_tree)
    def test_levels_are_shifted_leaves(self, T):
        # each adjacent leaf pair parts at one splitting node, each splitting
        # node once: the depths H - cut count the splits of every level
        H, levels = T.horizon, ref_levels(T)
        splits = [len(ref_splits_at(T, d)) for d in range(H)]
        assert Counter(H - cut for cut in T.cuts) == Counter(
            {d: n for d, n in enumerate(splits) if n}
        )
        assert T.split_counts == splits
        for d in range(H):
            assert 1 + sum(splits[:d]) == len(levels[d])
            for v in levels[d]:
                assert T.children(d, v) == tuple(
                    c for c in (2 * v, 2 * v + 1) if c in levels[d + 1]
                )

    @settings(max_examples=100, deadline=None)
    @given(silver_prefix_trees())
    def test_silver_outputs(self, T):
        # an empty free set (or none below the depth) leaves a single branch
        perfect = len(T.leaves) > 1
        flags = classify(T)
        assert flags.perfect == flags.uniformly_perfect == flags.silver == perfect

    def test_empty_free_set_is_a_single_branch(self):
        T = silver_to_prefix(SilverTree(Point.from_bits("0110"), frozenset()))
        assert len(T) == 1
        assert not is_perfect(T)
        assert classify(T) == KindFlags(False, False, False, False)


class TestStemHelpers:
    def test_split_count_full_tree(self):
        T = PrefixTree.full(3)
        assert split_count_on_stem(T, "010") == 3
        assert split_count_on_stem(T, "01") == 3

    def test_split_count_single_branch(self):
        assert split_count_on_stem(PrefixTree.from_leaves(["000"]), "000") == 0

    def test_split_count_silver(self):
        T = silver_to_prefix(SilverTree(Point.from_bits("0000"), frozenset({1, 3})))
        assert split_count_on_stem(T, "0101") == 2
        assert split_count_on_stem(T, "0") == 1
        assert not T.contains_node("1000")

    def test_first_splitting_node(self):
        T = silver_to_prefix(SilverTree(Point.zero(6), frozenset({1, 4})))
        assert first_splitting_node(T, "", 0) == "0"
        assert first_splitting_node(T, "", 2) == "0000"
        assert first_splitting_node(T, "01", 0) == "0100"
        with pytest.raises(ValueError):
            first_splitting_node(T, "", 5)

    def test_leftmost_leaf(self):
        T = PrefixTree.from_leaves(["0110", "0101", "1000"])
        assert leftmost_leaf(T, "") == "0101"
        assert leftmost_leaf(T, "011") == "0110"


# Per-level split sets and leaf scans: the walks in `trees` and
# `constructions` replaced these and must agree with them.

def ref_splits_at(T: PrefixTree, depth: int) -> frozenset[int]:
    if depth >= T.horizon:
        return frozenset()
    levels = ref_levels(T)
    nxt = levels[depth + 1]
    return frozenset(
        v for v in levels[depth] if (v << 1) in nxt and ((v << 1) | 1) in nxt
    )


def ref_first_splitting_node(T: PrefixTree, stem: str, min_length: int) -> str:
    if not T.contains_node(stem):
        raise ValueError(f"stem {stem!r} not in tree")
    base_d, base_v = len(stem), int(stem, 2) if stem else 0
    for d in range(max(base_d, min_length), T.horizon):
        shift = d - base_d
        hits = sorted(v for v in ref_splits_at(T, d) if v >> shift == base_v)
        if hits:
            return format(hits[0], f"0{d}b") if d else ""
    raise ValueError(
        f"no splitting node of length >= {min_length} above {stem!r} "
        f"within horizon {T.horizon}"
    )


def ref_leftmost_leaf(T: PrefixTree, stem: str) -> str:
    if not T.contains_node(stem):
        raise ValueError(f"stem {stem!r} not in tree")
    shift = T.horizon - len(stem)
    base = int(stem, 2) if stem else 0
    return format(min(v for v in T.leaves if v >> shift == base), f"0{T.horizon}b")


def ref_all_split_level(T: PrefixTree, lo: int) -> int:
    for d in range(lo, T.horizon):
        if ref_splits_at(T, d) == ref_levels(T)[d]:
            return d
    raise ValueError(
        f"no level at or past {lo} where every node splits; "
        "uniform mode needs a uniformly perfect tree"
    )


def ref_prune_split_budget(
    T: PrefixTree, allowance: list[int], uniform: bool
) -> PrefixTree:
    cur = {0: 0}
    for d in range(T.horizon):
        splits = ref_splits_at(T, d)
        if uniform:
            split_all = bool(cur) and all(
                v in splits and used < allowance[d] for v, used in cur.items()
            )
        nxt: dict[int, int] = {}
        for v, used in cur.items():
            children = T.children(d, v)
            here = (
                split_all
                if uniform
                else len(children) == 2 and used < allowance[d]
            )
            if here:
                for c in children:
                    nxt[c] = used + 1
            else:
                nxt[min(children)] = used
        cur = nxt
    return PrefixTree(T.horizon, frozenset(cur))


def ref_deepest_split(T: PrefixTree) -> int:
    return max((d for d in range(T.horizon) if ref_splits_at(T, d)), default=-1)


def outcome(fn, *args):
    """A call's result, or the message of the ValueError it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return "error", str(err)


@st.composite
def density_trees(draw):
    """Leaf sets at horizons 1-10, each leaf kept with one drawn probability,
    from a few leaves to nearly all of them."""
    horizon = draw(st.integers(1, 10))
    keep = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    leaves = {v for v in range(1 << horizon) if rng.random() < keep}
    leaves.add(draw(st.integers(0, (1 << horizon) - 1)))
    return PrefixTree(horizon, frozenset(leaves))


walk_trees = st.one_of(density_trees(), deep_sparse_trees(), any_tree)


@st.composite
def tree_and_stem(draw):
    """A tree and a node string of any length up to one past the horizon:
    mostly a prefix of a leaf, sometimes an arbitrary string."""
    T = draw(walk_trees)
    depth = draw(st.integers(0, T.horizon))
    if draw(st.integers(0, 4)):
        leaf = format(draw(st.sampled_from(sorted(T.leaves))), f"0{T.horizon}b")
        stem = leaf[:depth]
    else:
        stem = draw(st.text("01", max_size=T.horizon + 1))
    return T, stem


class TestWalksMatchSplitSets:
    @settings(max_examples=300, deadline=None)
    @given(tree_and_stem(), st.data())
    def test_first_splitting_node(self, case, data):
        T, stem = case
        far = T.horizon + data.draw(st.integers(2, 40))
        for min_length in [*range(-1, T.horizon + 2), far]:
            assert outcome(first_splitting_node, T, stem, min_length) == outcome(
                ref_first_splitting_node, T, stem, min_length
            )

    @settings(max_examples=200, deadline=None)
    @given(tree_and_stem())
    def test_leftmost_leaf(self, case):
        T, stem = case
        assert outcome(leftmost_leaf, T, stem) == outcome(ref_leftmost_leaf, T, stem)

    @settings(max_examples=200, deadline=None)
    @given(walk_trees)
    def test_all_split_level_and_deepest_split(self, T):
        for lo in range(T.horizon + 2):
            assert outcome(_all_split_level, T, lo) == outcome(
                ref_all_split_level, T, lo
            )
        deepest = ref_deepest_split(T)
        expected = [] if is_perfect(T) else [
            f"split budget exhausts after depth {deepest}; "
            "pruned tree is not perfect at this horizon"
        ]
        assert _perfect_warning(T) == expected

    @settings(max_examples=300, deadline=None)
    @given(walk_trees, st.booleans(), st.data())
    def test_prune_split_budget(self, T, uniform, data):
        allowance = data.draw(
            st.lists(st.integers(0, T.horizon), min_size=T.horizon,
                     max_size=T.horizon)
        )
        if data.draw(st.booleans()):
            allowance.sort()  # the constructions' budgets never shrink
        assert _prune_split_budget(T, allowance, uniform) == ref_prune_split_budget(
            T, allowance, uniform
        )


class GuardedLeaves(frozenset):
    """A leaf set that refuses iteration once armed."""

    armed = False

    def __iter__(self):
        if self.armed:
            raise AssertionError("iterated every leaf")
        return super().__iter__()


class TestWalksReadLevelsOnly:
    """The walks read the sorted view, built by the one pass over the
    leaves, and never scan the leaf set again."""

    def guarded(self, leaves, horizon):
        leaves = GuardedLeaves(leaves)
        T = PrefixTree(horizon, leaves)
        T.sorted_leaves  # the one pass over the leaves, done before arming
        leaves.armed = True
        return T

    def test_walks_never_iterate_the_leaves(self):
        T = self.guarded(range(1 << 12), 12)
        assert first_splitting_node(T, "", 3) == "000"
        assert first_splitting_node(T, "0110", 0) == "0110"
        assert leftmost_leaf(T, "1") == "100000000000"
        assert _all_split_level(T, 5) == 5
        assert is_perfect(T) and _perfect_warning(T) == []
        for uniform in (False, True):
            pruned = _prune_split_budget(T, [2] * 12, uniform)
            assert len(pruned) == 4

    def test_perfect_constructions_never_iterate_the_input_leaves(self):
        # a perfect, not uniformly perfect tree: node "1" has one child
        H = 12
        leaves = set(range(1 << (H - 1)))
        leaves |= {(1 << (H - 1)) | v for v in range(1 << (H - 2))}
        T = self.guarded(leaves, H)
        P = Partition.from_lengths([2] * 6)
        meager = MeagerCover(Point.from_bits("110100101101"), P, 0)
        small = SmallCover(P, tuple(
            PatternSet.from_bits(blk, ["01"]) for blk in P.blocks
        ))
        e = ECover(P, tuple(
            PatternSet.from_bits(blk, ["00", "11"]) for blk in P.blocks
        ), 0)
        assert shrink_perfect_meager(meager, T).tree_out.leaves <= leaves
        assert shrink_perfect_small(small, T).tree_out.leaves <= leaves
        assert shrink_perfect_e(e, T).tree_out.leaves <= leaves
        full = self.guarded(range(1 << H), H)
        for shrink, cover in ((shrink_perfect_meager, meager),
                              (shrink_perfect_small, small),
                              (shrink_perfect_e, e)):
            assert shrink(cover, full, uniform=True).tree_out.leaves <= full.leaves
