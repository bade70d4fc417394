import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treesum.constructions as constructions_mod
import treesum.oracle as oracle_mod
import treesum.trees as trees_mod
from treesum.bits import Block, Partition, PatternSet, Point, restrict
from treesum.covers import (
    ClosedNullChain,
    ECover,
    MeagerCover,
    NullCover,
    SmallCover,
    Stage,
    e_density_audit,
)
from treesum.constructions import (
    build_splitting_e,
    build_splitting_meager,
    build_splitting_null,
    shrink_mn,
    shrink_perfect_e,
    shrink_perfect_meager,
    shrink_perfect_null,
    shrink_perfect_small,
    shrink_silver_e,
    shrink_silver_meager,
    shrink_silver_null,
    shrink_silver_small,
    simplify_e_cover,
)
from treesum.oracle import (
    certify_request,
    density_audit_table,
    exhaustive_containment,
    pattern_nfold,
)
from treesum.trees import (
    PrefixTree,
    SilverTree,
    classify,
    is_subtree,
    silver_to_prefix,
    tree_restrict,
)

from test_oracle import e_member


def pats(block, bits):
    return PatternSet.from_bits(block, bits)


def meager_fixture():
    P = Partition.from_lengths([2] * 6)
    F = MeagerCover(Point.from_bits("110100101101"), P, 0)
    T = SilverTree(Point.from_bits("010011100101"), frozenset({0, 2, 5, 7, 9}))
    return F, T


def small_fixture():
    P = Partition.from_lengths([3] * 4)
    J = tuple(
        pats(P[i], b)
        for i, b in enumerate([["101"], ["010", "111"], ["000"], ["011", "110"]])
    )
    F = SmallCover(P, J)
    T = SilverTree(Point.from_bits("010110001011"), frozenset({1, 4, 5, 8}))
    return F, T


def e_fixture():
    P = Partition.from_lengths([2] * 6)
    J = tuple(
        pats(P[i], b)
        for i, b in enumerate(
            [["00", "11"], ["01", "10"], ["00", "01"],
             ["10", "11"], ["00", "10"], ["01", "11"]]
        )
    )
    return ECover(P, J, 0)


def forced_bit_tree(horizon=6):
    # every branch starts with 1, so low fold sums are visibly nonzero
    width = horizon - 1
    return PrefixTree.from_leaves(
        ["1" + format(v, f"0{width}b") for v in range(1 << width)]
    )


def leaf_strings(T):
    return sorted(format(v, f"0{T.horizon}b") for v in T.leaves)


class TestSilverMeager:
    def test_selection_and_certificate(self):
        F, T = meager_fixture()
        res = shrink_silver_meager(F, T)
        assert sorted(res.tree_out.free) == [0, 5, 9]
        assert res.tree_out.x == T.x
        cert = certify_request(res.witnesses[0])
        assert cert.passed
        for b, cover in res.witnesses[0].per_fold:
            assert exhaustive_containment(F, res.tree_as_prefix(), b, cover)

    def test_witness_centers_follow_fold_parity(self):
        F, T = meager_fixture()
        res = shrink_silver_meager(F, T)
        req = res.witnesses[0]
        even = dict(req.per_fold)[0]
        odd = dict(req.per_fold)[1]
        assert even.xF == F.xF
        assert odd.xF == F.xF ^ T.x
        assert dict(req.per_fold)[2].xF == even.xF
        assert not req.uniform_witness

    def test_threshold_halves_rounding_up(self):
        P = Partition.from_lengths([2] * 6)
        F = MeagerCover(Point.from_bits("110100101101"), P, 3)
        _, T = meager_fixture()
        res = shrink_silver_meager(F, T)
        assert dict(res.witnesses[0].per_fold)[0].threshold == 2

    def test_odd_block_count_drops_tail(self):
        P = Partition.from_lengths([2] * 5)
        F = MeagerCover(Point.from_bits("1101001011"), P, 0)
        T = SilverTree(Point.from_bits("0100111001"), frozenset({0, 3, 4, 7, 8}))
        res = shrink_silver_meager(F, T)
        assert dict(res.witnesses[0].per_fold)[0].horizon == 8
        assert any("pair" in w for w in res.provenance.warnings)
        cert = certify_request(res.witnesses[0])
        assert cert.passed

    def test_single_block_rejected(self):
        P = Partition.from_lengths([4])
        F = MeagerCover(Point.zero(4), P, 0)
        with pytest.raises(ValueError):
            shrink_silver_meager(F, SilverTree(Point.zero(4), frozenset({1})))

    def test_horizon_mismatch_rejected(self):
        F, _ = meager_fixture()
        with pytest.raises(ValueError):
            shrink_silver_meager(F, SilverTree(Point.zero(10), frozenset({1})))

    def test_degenerate_free_set_warns(self):
        F, T = meager_fixture()
        bare = SilverTree(T.x, frozenset())
        res = shrink_silver_meager(F, bare)
        assert res.tree_out.free == frozenset()
        assert res.provenance.warnings
        assert certify_request(res.witnesses[0]).passed

    def test_output_is_silver_subtree(self):
        F, T = meager_fixture()
        res = shrink_silver_meager(F, T)
        assert is_subtree(res.tree_as_prefix(), silver_to_prefix(T))
        assert classify(res.tree_as_prefix()).silver


class TestPerfectMeager:
    def test_full_tree_frozen_output(self):
        F, _ = meager_fixture()
        res = shrink_perfect_meager(F, PrefixTree.full(12))
        assert leaf_strings(res.tree_out) == [
            "000000000000", "000000000010",
            "001000000000", "001000000010",
        ]
        assert dict(res.witnesses[0].per_fold)[0].horizon == 10
        assert any("super-block" in w for w in res.provenance.warnings)

    def test_per_fold_thresholds(self):
        F, _ = meager_fixture()
        res = shrink_perfect_meager(F, PrefixTree.full(12))
        cert = certify_request(res.witnesses[0])
        assert cert.passed
        assert dict(cert.thresholds) == {0: 0, 1: 1, 2: 2, 3: 2}
        for b, cover in res.witnesses[0].per_fold:
            assert exhaustive_containment(F, res.tree_out, b, cover)

    def test_fold_one_threshold_is_tight(self):
        P = Partition.from_lengths([1] * 6)
        F = MeagerCover(Point.zero(6), P, 0)
        res = shrink_perfect_meager(F, forced_bit_tree())
        c1 = dict(res.witnesses[0].per_fold)[1]
        assert c1.threshold == 1
        assert exhaustive_containment(F, res.tree_out, 1, c1)
        lowered = MeagerCover(c1.xF, c1.partition, 0)
        assert not exhaustive_containment(F, res.tree_out, 1, lowered)

    def test_uniform_matches_greedy_on_full_tree(self):
        F, _ = meager_fixture()
        a = shrink_perfect_meager(F, PrefixTree.full(12), uniform=False)
        b = shrink_perfect_meager(F, PrefixTree.full(12), uniform=True)
        assert a.tree_out == b.tree_out

    def test_rejects_non_perfect_tree(self):
        F, _ = meager_fixture()
        single = PrefixTree.from_leaves(["110100101101"])
        with pytest.raises(ValueError):
            shrink_perfect_meager(F, single)

    def test_silver_input_certifies(self):
        P = Partition.from_lengths([1] * 7)
        F = MeagerCover(Point.zero(7), P, 0)
        T = silver_to_prefix(SilverTree(Point.zero(7), frozenset({1, 5, 6})))
        res = shrink_perfect_meager(F, T)
        assert is_subtree(res.tree_out, T)
        assert certify_request(res.witnesses[0]).passed
        for b, cover in res.witnesses[0].per_fold:
            assert exhaustive_containment(F, res.tree_out, b, cover)


class TestSplittingMeager:
    def test_frozen_shape(self):
        P = Partition.from_lengths([1] * 12)
        F = MeagerCover(Point.from_bits("110100101101"), P, 0)
        res = build_splitting_meager(F)
        assert len(res.tree_out.leaves) == 48
        assert dict(res.witnesses[0].per_fold)[0].horizon == 11
        flags = classify(res.tree_out)
        assert flags.perfect and flags.splitting_at_horizon

    def test_certificate_and_exhaustive(self):
        P = Partition.from_lengths([1] * 12)
        F = MeagerCover(Point.from_bits("110100101101"), P, 0)
        res = build_splitting_meager(F)
        assert certify_request(res.witnesses[0]).passed
        for b, cover in res.witnesses[0].per_fold:
            assert exhaustive_containment(F, res.tree_out, b, cover)

    def test_fold_two_threshold_is_tight(self):
        P = Partition.from_lengths([1] * 12)
        F = MeagerCover(Point.from_bits("110100101101"), P, 0)
        res = build_splitting_meager(F)
        c2 = dict(res.witnesses[0].per_fold)[2]
        assert c2.threshold == 3
        lowered = MeagerCover(c2.xF, c2.partition, 2)
        assert not exhaustive_containment(F, res.tree_out, 2, lowered)

    def test_base_shift_with_input_threshold(self):
        P = Partition.from_lengths([1] * 12)
        F = MeagerCover(Point.from_bits("110100101101"), P, 3)
        res = build_splitting_meager(F)
        # group starts are 0, 1, 2, 4, 7; the first group fully past
        # fine block 3 is the one starting at 4
        assert dict(res.witnesses[0].per_fold)[0].threshold == 3


class TestSilverSmall:
    def test_selection_and_mass(self):
        F, T = small_fixture()
        res = shrink_silver_small(F, T)
        assert sorted(res.tree_out.free) == [1, 4, 8]
        req = res.witnesses[0]
        assert req.uniform_witness
        witness = dict(req.per_fold)[0]
        for n in range(4):
            assert len(witness.patterns[n]) <= 4 * len(F.patterns[n])
        rows = density_audit_table(req)
        assert all(r.passed for r in rows)
        assert rows[0].bound == 4 * F.mass

    def test_certificate(self):
        F, T = small_fixture()
        res = shrink_silver_small(F, T)
        assert certify_request(res.witnesses[0]).passed
        assert is_subtree(res.tree_as_prefix(), silver_to_prefix(T))

    def test_block_without_free_coordinate_skipped(self):
        F, T = small_fixture()
        res = shrink_silver_small(F, T)
        # block [9, 12) holds no free coordinate, so nothing was chosen there
        assert all(i < 9 for i in res.tree_out.free)


class TestSilverNull:
    def fixture(self):
        F1, T = small_fixture()
        P = Partition.from_lengths([2] * 6)
        second = SmallCover(P, tuple(pats(P[i], ["11"]) for i in range(6)))
        return NullCover(F1, second), T

    def test_two_bundles_against_final_tree(self):
        F, T = self.fixture()
        res = shrink_silver_null(F, T)
        assert [w.label for w in res.witnesses] == ["small-1", "small-2"]
        final = res.tree_as_prefix()
        for w in res.witnesses:
            assert w.tree == final
            assert certify_request(w).passed
            assert all(r.passed for r in density_audit_table(w))

    def test_empty_second_cover_keeps_tree(self):
        F1, T = small_fixture()
        P = Partition.from_lengths([4] * 3)
        empty = SmallCover(P, tuple(PatternSet.empty(P[i]) for i in range(3)))
        res = shrink_silver_null(NullCover(F1, empty), T)
        one_step = shrink_silver_small(F1, T)
        assert res.tree_out == one_step.tree_out
        witness = dict(res.witnesses[1].per_fold)[0]
        assert witness.mass == 0


class TestPerfectSmall:
    def fixture(self):
        P = Partition.from_lengths([3] * 4)
        J = tuple(
            pats(P[i], b)
            for i, b in enumerate(
                [["000", "011", "101", "110"], ["010", "111"], ["100"], ["111"]]
            )
        )
        return SmallCover(P, J)

    def test_budget_and_frozen_tree(self):
        F = self.fixture()
        res = shrink_perfect_small(F, PrefixTree.full(12))
        assert leaf_strings(res.tree_out) == ["000000000000", "000000100000"]
        assert dict(res.provenance.details)["split_budget"] == "0,0,1,1"
        assert classify(res.tree_out).perfect

    def test_restriction_sizes_respect_budget(self):
        F = self.fixture()
        res = shrink_perfect_small(F, PrefixTree.full(12))
        budget = [0, 0, 1, 1]
        for n, blk in enumerate(F.partition.blocks):
            assert len(tree_restrict(res.tree_out, blk)) <= 1 << budget[n]

    def test_fold_bounds(self):
        F = self.fixture()
        res = shrink_perfect_small(F, PrefixTree.full(12))
        assert certify_request(res.witnesses[0]).passed
        rows = density_audit_table(res.witnesses[0])
        assert [r.bound for r in rows] == [
            F.mass, 2 * F.mass, 16 * F.mass, 512 * F.mass,
        ]
        assert all(r.passed for r in rows)
        zero_fold = dict(res.witnesses[0].per_fold)[0]
        assert zero_fold.patterns == F.patterns

    def test_budget_can_break_perfection(self):
        P = Partition.from_lengths([6])
        # one dense block forces a zero split budget everywhere
        F = SmallCover(P, (pats(P[0], [format(v, "06b") for v in range(16)]),))
        res = shrink_perfect_small(F, PrefixTree.full(6))
        assert len(res.tree_out.leaves) == 1
        assert any("not perfect" in w for w in res.provenance.warnings)

    def test_all_empty_cover(self):
        P = Partition.from_lengths([3, 3])
        F = SmallCover(P, tuple(PatternSet.empty(P[i]) for i in range(2)))
        res = shrink_perfect_small(F, PrefixTree.full(6))
        assert dict(res.provenance.details)["kseq"].startswith("skipped")
        assert certify_request(res.witnesses[0]).passed

    def test_uniform_matches_greedy_on_full_tree(self):
        F = self.fixture()
        a = shrink_perfect_small(F, PrefixTree.full(12), uniform=False)
        b = shrink_perfect_small(F, PrefixTree.full(12), uniform=True)
        assert a.tree_out == b.tree_out

    def test_rejects_non_perfect_tree(self):
        F = self.fixture()
        with pytest.raises(ValueError):
            shrink_perfect_small(F, PrefixTree.from_leaves(["000000000000"]))


class TestPerfectNull:
    def fixture(self):
        first = TestPerfectSmall().fixture()
        P = Partition.from_lengths([4] * 3)
        J = (
            pats(P[0], ["0000", "0101", "1010", "1111"]),
            pats(P[1], ["0011"]),
            PatternSet.empty(P[2]),
        )
        return NullCover(first, SmallCover(P, J))

    def test_composition_keeps_earlier_split(self):
        F = self.fixture()
        res = shrink_perfect_null(F, PrefixTree.full(12))
        assert leaf_strings(res.tree_out) == ["000000000000", "000000100000"]
        details = dict(res.provenance.details)
        # trailing zero-density block inherits the previous budget value
        assert details["second.split_budget"] == "0,1,1"
        for w in res.witnesses:
            assert w.tree == res.tree_out
            assert certify_request(w).passed

    def test_tree_chain_shrinks(self):
        F = self.fixture()
        full = PrefixTree.full(12)
        step1 = shrink_perfect_small(F.first, full)
        res = shrink_perfect_null(F, full)
        assert is_subtree(res.tree_out, step1.tree_out)
        assert is_subtree(step1.tree_out, full)


class TestSplittingNull:
    def fixture(self):
        P1 = Partition.from_lengths([3, 5, 4])
        P2 = Partition.from_lengths([5, 5, 2])
        first = SmallCover(
            P1,
            (pats(P1[0], ["111"]), pats(P1[1], ["00000", "11111"]),
             pats(P1[2], ["1001"])),
        )
        second = SmallCover(
            P2,
            (pats(P2[0], ["01010"]), pats(P2[1], ["10101"]),
             pats(P2[2], ["11"])),
        )
        return NullCover(first, second)

    def test_frozen_selection_and_body(self):
        F = self.fixture()
        res = build_splitting_null(F)
        assert dict(res.provenance.details)["selected"] == "0,5,10"
        assert len(res.tree_out.leaves) == 256
        assert classify(res.tree_out).splitting_at_horizon

    def test_witnesses_mass_and_certificates(self):
        F = self.fixture()
        res = build_splitting_null(F)
        for w, small in zip(res.witnesses, (F.first, F.second)):
            cert = certify_request(w)
            assert cert.passed
            witness = dict(w.per_fold)[0]
            assert witness.mass <= 8 * small.mass
            for n in range(3):
                assert len(witness.patterns[n]) <= 8 * len(small.patterns[n])

    def test_non_interleaved_rejected(self):
        P1 = Partition.from_lengths([3, 5, 4])
        P2 = Partition.from_lengths([2, 6, 4])
        first = SmallCover(P1, tuple(PatternSet.empty(P1[i]) for i in range(3)))
        second = SmallCover(P2, tuple(PatternSet.empty(P2[i]) for i in range(3)))
        with pytest.raises(ValueError, match="interleave"):
            build_splitting_null(NullCover(first, second))

    def test_block_count_mismatch_rejected(self):
        P1 = Partition.from_lengths([3, 9])
        P2 = Partition.from_lengths([5, 5, 2])
        first = SmallCover(P1, tuple(PatternSet.empty(P1[i]) for i in range(2)))
        second = SmallCover(P2, tuple(PatternSet.empty(P2[i]) for i in range(3)))
        with pytest.raises(ValueError, match="interleave"):
            build_splitting_null(NullCover(first, second))


class TestShrinkMN:
    def test_silver_kind(self):
        P = Partition.from_lengths([2] * 5)
        Fm = MeagerCover(Point.from_bits("1101001011"), P, 0)
        small1 = SmallCover(P, tuple(pats(P[i], ["10"]) for i in range(5)))
        P2 = Partition.from_lengths([5, 5])
        small2 = SmallCover(
            P2, (pats(P2[0], ["00110"]), pats(P2[1], ["01100", "10011"]))
        )
        T = SilverTree(Point.from_bits("0100111001"), frozenset({0, 3, 4, 7, 8}))
        res = shrink_mn(Fm, NullCover(small1, small2), T, "silver")
        assert [w.label for w in res.witnesses] == ["meager", "small-1", "small-2"]
        assert sorted(res.tree_out.free) == [0]
        final = res.tree_as_prefix()
        for w in res.witnesses:
            assert w.tree == final
            assert certify_request(w).passed

    def test_perfect_kind(self):
        P = Partition.from_lengths([1] * 6)
        Fm = MeagerCover(Point.zero(6), P, 0)
        P2 = Partition.from_lengths([3, 3])
        small = SmallCover(P2, (pats(P2[0], ["111"]), pats(P2[1], ["000"])))
        res = shrink_mn(Fm, NullCover(small, small), PrefixTree.full(6), "perfect")
        assert dict(res.provenance.details)["kind"] == "perfect"
        for w in res.witnesses:
            assert certify_request(w).passed

    def test_kind_validation(self):
        F, T = meager_fixture()
        null = TestSilverNull().fixture()[0]
        with pytest.raises(ValueError, match="kind"):
            shrink_mn(F, null, T, "branching")
        with pytest.raises(ValueError):
            shrink_mn(F, null, silver_to_prefix(T), "silver")
        with pytest.raises(ValueError):
            shrink_mn(F, null, T, "perfect")


class TestSimplifyChain:
    def chain(self):
        return ClosedNullChain((
            Stage(("000",), Fraction(1, 8)),
            Stage(("000000", "000110"), Fraction(1, 32)),
            Stage(("000000110", "000110011"), Fraction(1, 256)),
        ))

    def test_frozen_output(self):
        E = simplify_e_cover(self.chain())
        assert [b.length for b in E.partition.blocks] == [3, 3, 3]
        assert [sorted(w.bits() for w in J.words()) for J in E.patterns] == [
            ["000"], ["000", "110"], ["011", "110"]
        ]
        assert E.threshold == 0
        value, ok = e_density_audit(E)
        assert ok and value == Fraction(1, 4)

    def test_last_stage_nodes_are_members(self):
        E = simplify_e_cover(self.chain())
        for s in self.chain().stages[-1].nodes:
            assert e_member(E, Point.from_bits(s))

    def test_earlier_stage_membership_is_blockwise(self):
        E = simplify_e_cover(self.chain())
        # a stage-1 node pinned down only through its own block range
        p = Point.from_bits("000110000")
        for k, blk in enumerate(E.partition.blocks[:2]):
            assert restrict(p, blk) in E.patterns[k]

    def test_shallow_stage_fails_nullity(self):
        chain = ClosedNullChain((
            Stage(("000",), Fraction(1, 8)),
            Stage(("0001",), Fraction(1, 16)),
            Stage(("00010000",), Fraction(1, 256)),
        ))
        # stage 1 adds only one coordinate past the consumed prefix, and
        # saturating "0001" over its first three bits covers half of it
        with pytest.raises(ValueError, match="insufficient nullity at stage 1"):
            simplify_e_cover(chain)

class TestSilverE:
    def test_selection_and_witness(self):
        E = e_fixture()
        T = SilverTree(Point.from_bits("010011100101"), frozenset({1, 4, 7, 10}))
        res = shrink_silver_e(E, T)
        assert sorted(res.tree_out.free) == [1, 7]
        req = res.witnesses[0]
        assert req.uniform_witness
        value, ok = e_density_audit(dict(req.per_fold)[0])
        assert ok and value == Fraction(1, 2)
        assert certify_request(req).passed
        for b, cover in req.per_fold:
            assert exhaustive_containment(E, res.tree_as_prefix(), b, cover)

    def test_threshold_scales_by_three(self):
        P = e_fixture().partition
        E = ECover(P, e_fixture().patterns, 4)
        T = SilverTree(Point.zero(12), frozenset({1, 7}))
        res = shrink_silver_e(E, T)
        assert dict(res.witnesses[0].per_fold)[0].threshold == 2

    def test_incomplete_triple_dropped(self):
        P = Partition.from_lengths([2] * 7)
        J = tuple(pats(P[i], ["00"]) for i in range(7))
        E = ECover(P, J, 0)
        T = SilverTree(Point.zero(14), frozenset({0, 6}))
        res = shrink_silver_e(E, T)
        assert dict(res.witnesses[0].per_fold)[0].horizon == 12
        assert any("triple" in w for w in res.provenance.warnings)

    def test_too_few_blocks_rejected(self):
        P = Partition.from_lengths([2, 2])
        E = ECover(P, tuple(pats(P[i], ["00"]) for i in range(2)), 0)
        with pytest.raises(ValueError):
            shrink_silver_e(E, SilverTree(Point.zero(4), frozenset({0})))


class TestPerfectE:
    def test_full_tree_frozen_output(self):
        E = e_fixture()
        res = shrink_perfect_e(E, PrefixTree.full(12))
        assert leaf_strings(res.tree_out) == [
            "000000000000", "000000000010",
            "001000000000", "001000000010",
        ]
        cert = certify_request(res.witnesses[0])
        assert cert.passed
        assert dict(cert.thresholds) == {0: 0, 1: 1, 2: 2, 3: 2}
        for b, cover in res.witnesses[0].per_fold:
            assert exhaustive_containment(E, res.tree_out, b, cover)

    def test_fold_one_threshold_is_tight(self):
        P = Partition.from_lengths([1] * 6)
        E = ECover(P, tuple(pats(P[i], ["0"]) for i in range(6)), 0)
        res = shrink_perfect_e(E, forced_bit_tree())
        c1 = dict(res.witnesses[0].per_fold)[1]
        assert exhaustive_containment(E, res.tree_out, 1, c1)
        lowered = ECover(c1.partition, c1.patterns, 0)
        assert not exhaustive_containment(E, res.tree_out, 1, lowered)

    def test_witness_keeps_lower_fold_sums(self):
        # every branch has a 1 at coordinate 1, so the tree's words on
        # super-block [1, 5) miss 0, which its fold-0 check still needs
        P = Partition.from_lengths([1] * 6)
        E = ECover(P, tuple(pats(P[i], ["0"]) for i in range(6)), 0)
        T = PrefixTree.from_leaves(
            leaf for leaf in leaf_strings(PrefixTree.full(6)) if leaf[1] == "1"
        )
        res = shrink_perfect_e(E, T)
        assert 0 not in tree_restrict(res.tree_out, Block(1, 5)).values
        assert certify_request(res.witnesses[0]).passed

    def test_density_audit(self):
        E = e_fixture()
        res = shrink_perfect_e(E, PrefixTree.full(12))
        rows = density_audit_table(res.witnesses[0])
        assert all(r.passed for r in rows)
        assert all(r.bound == Fraction(1, 2) for r in rows)

    def test_rejects_non_perfect_tree(self):
        E = e_fixture()
        with pytest.raises(ValueError):
            shrink_perfect_e(E, PrefixTree.from_leaves(["000000000000"]))


class TestSplittingE:
    def test_frozen_shape(self):
        E = e_fixture()
        res = build_splitting_e(E)
        assert dict(res.provenance.details)["selected"] == "0,6"
        assert len(res.tree_out.leaves) == 16
        flags = classify(res.tree_out)
        assert flags.perfect and flags.splitting_at_horizon

    def test_certificate_and_exhaustive(self):
        E = e_fixture()
        res = build_splitting_e(E)
        assert certify_request(res.witnesses[0]).passed
        for b, cover in res.witnesses[0].per_fold:
            assert exhaustive_containment(E, res.tree_out, b, cover)

    def test_tampered_witness_fails(self):
        E = e_fixture()
        res = build_splitting_e(E)
        req = res.witnesses[0]
        clipped = []
        for b, cover in req.per_fold:
            # drop one pattern from the first block of each fold's cover
            first = cover.patterns[0]
            kept = PatternSet(first.block, frozenset(list(first.values)[1:]))
            patterns = (kept,) + cover.patterns[1:]
            clipped.append((b, replace(cover, patterns=patterns)))
        bad = replace(req, per_fold=tuple(clipped))
        assert not certify_request(bad).passed


class TestPerfectPreconditions:
    def test_perfect_shrinks_never_run_the_full_classifier(self, monkeypatch):
        # the precondition needs only is_perfect; classify and the
        # splitting defect would cost a pass over every cut
        def full_classifier(*args, **kwargs):
            raise AssertionError("full classifier called")

        monkeypatch.setattr(constructions_mod, "classify", full_classifier,
                            raising=False)
        monkeypatch.setattr(trees_mod, "classify", full_classifier)
        monkeypatch.setattr(trees_mod, "splitting_defect", full_classifier)
        T = PrefixTree.full(12)
        F, _ = meager_fixture()
        S, _ = small_fixture()
        for res in (
            shrink_perfect_meager(F, T),
            shrink_perfect_e(e_fixture(), T),
            shrink_perfect_small(S, T),
        ):
            assert is_subtree(res.tree_out, T)


@st.composite
def pattern_sets(draw):
    """Pattern sets on blocks of 1-8 bits: empty, a singleton, full, or any
    subset, with or without the zero word."""
    length = draw(st.integers(1, 8))
    lo = draw(st.integers(0, 3))
    block = Block(lo, lo + length)
    values = draw(st.one_of(
        st.just(frozenset()),
        st.integers(0, block.mask).map(lambda v: frozenset({v})),
        st.just(frozenset(range(1 << length))),
        st.frozensets(st.integers(0, block.mask)),
        st.frozensets(st.integers(0, block.mask)).map(lambda vs: vs | {0}),
    ))
    return PatternSet(block, values)


class TestFoldUnion:
    # shrink_perfect_e's witness on super-block n absorbs every j-fold sum
    # of J for j <= n as the n-fold sum of J ∪ {0}
    @pytest.mark.parametrize("up_to", range(5))
    @settings(max_examples=60, deadline=None)
    @given(J=pattern_sets())
    def test_union_of_nfolds_with_one_sum_per_fold(self, up_to, J):
        want = set()
        for j in range(up_to + 1):
            want |= pattern_nfold(J, j).values
        with_zero = PatternSet(J.block, J.values | {0})
        with mock.patch.object(
            oracle_mod, "pattern_sum", wraps=oracle_mod.pattern_sum
        ) as spy:
            got = pattern_nfold(with_zero, up_to)
        assert got == PatternSet(J.block, frozenset(want))
        assert spy.call_count <= max(up_to - 1, 0)


class TestFoldsArgument:
    def test_folds_validated(self):
        F, T = meager_fixture()
        with pytest.raises(ValueError):
            shrink_silver_meager(F, T, folds=())
        with pytest.raises(ValueError):
            shrink_silver_meager(F, T, folds=(-1, 0))

    def test_folds_subset_respected(self):
        F, T = small_fixture()
        res = shrink_silver_small(F, T, folds=(0, 2))
        assert [b for b, _ in res.witnesses[0].per_fold] == [0, 2]
        assert certify_request(res.witnesses[0]).passed


class TestRandomizedInvariants:
    def test_silver_small_random_certificates(self):
        rng = random.Random(20240817)
        for _ in range(12):
            horizon = rng.choice([6, 8, 9])
            lengths = []
            rest = horizon
            while rest:
                step = min(rest, rng.randint(1, 3))
                lengths.append(step)
                rest -= step
            P = Partition.from_lengths(lengths)
            J = []
            for blk in P.blocks:
                count = rng.randint(0, max(1, 2**blk.length // 2))
                vals = rng.sample(range(2**blk.length), count)
                J.append(PatternSet(blk, frozenset(vals)))
            F = SmallCover(P, tuple(J))
            free = frozenset(
                i for i in range(horizon) if rng.random() < 0.4
            )
            T = SilverTree(Point(horizon, rng.randrange(2**horizon)), free)
            res = shrink_silver_small(F, T)
            assert certify_request(res.witnesses[0]).passed
            assert is_subtree(res.tree_as_prefix(), silver_to_prefix(T))
            rows = density_audit_table(res.witnesses[0])
            assert all(r.passed for r in rows)

    def test_silver_meager_random_exhaustive(self):
        rng = random.Random(987123)
        for _ in range(8):
            horizon = rng.choice([6, 8])
            lengths = [2] * (horizon // 2)
            P = Partition.from_lengths(lengths)
            F = MeagerCover(
                Point(horizon, rng.randrange(2**horizon)),
                P,
                rng.randint(0, len(lengths)),
            )
            free = frozenset(rng.sample(range(horizon), rng.randint(0, 4)))
            T = SilverTree(Point(horizon, rng.randrange(2**horizon)), free)
            res = shrink_silver_meager(F, T)
            for b, cover in res.witnesses[0].per_fold:
                assert exhaustive_containment(F, res.tree_as_prefix(), b, cover)
