from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treesum.bits import Partition, PatternSet, Point, pattern_sum, restrict
from treesum.covers import (
    BlockCheck,
    Certificate,
    ClosedNullChain,
    ECover,
    MeagerCover,
    NullCover,
    SmallCover,
    Stage,
    e_density_audit,
    strict_e_to_simple,
)

from test_oracle import e_member, meager_member


def patterns_on(P: Partition, *pattern_lists: list[str]) -> tuple[PatternSet, ...]:
    assert len(pattern_lists) == len(P)
    return tuple(
        PatternSet.from_bits(b, pats) for b, pats in zip(P.blocks, pattern_lists)
    )


class TestMeagerCover:
    def test_validation(self):
        P = Partition.from_lengths([2, 2])
        with pytest.raises(ValueError):
            MeagerCover(Point.zero(6), P, 0)
        with pytest.raises(ValueError):
            MeagerCover(Point.zero(4), P, 3)

    def test_center_is_not_member(self):
        P = Partition.from_lengths([2, 2, 2])
        C = MeagerCover(Point.from_bits("110100"), P, 0)
        assert not meager_member(C, Point.from_bits("110100"))

    def test_flip_everywhere_is_member(self):
        P = Partition.from_lengths([1] * 5)
        xF = Point.from_bits("10110")
        C = MeagerCover(xF, P, 0)
        assert meager_member(C, xF ^ Point.from_bits("11111"))

    def test_vacuous_threshold(self):
        P = Partition.from_lengths([2, 2])
        C = MeagerCover(Point.zero(4), P, 2)
        for v in range(16):
            assert meager_member(C, Point(4, v))

    def test_threshold_skips_early_blocks(self):
        P = Partition.from_lengths([2, 2])
        C = MeagerCover(Point.zero(4), P, 1)
        assert meager_member(C, Point.from_bits("0001"))
        assert not meager_member(C, Point.from_bits("0100"))

    def test_horizon_mismatch(self):
        C = MeagerCover(Point.zero(4), Partition.from_lengths([2, 2]), 0)
        with pytest.raises(ValueError):
            meager_member(C, Point.zero(6))

    def test_member_count_unit_blocks(self):
        # one excluded pattern per block: product of (2^len - 1)
        rng = random.Random(11)
        for _ in range(10):
            lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            P = Partition.from_lengths(lengths)
            h = P.horizon
            C = MeagerCover(Point(h, rng.randrange(1 << h)), P, 0)
            count = sum(meager_member(C, Point(h, v)) for v in range(1 << h))
            expected = 1
            for ln in lengths:
                expected *= (1 << ln) - 1
            assert count == expected

    def test_allowed_forbidden_split(self):
        P = Partition.from_lengths([2, 3])
        C = MeagerCover(Point.from_bits("10110"), P, 0)
        # all words but the centre's: "110" on block 1, "10" on block 0
        assert C.allowed(1).values == frozenset(range(8)) - {0b110}
        assert len(C.allowed(1)) == 7
        assert restrict(C.xF, P[0]) not in C.allowed(0)
        assert len(C.allowed(0)) == 3


class TestSmallCover:
    def test_mass_example(self):
        P = Partition.from_lengths([1, 2, 3, 4])
        J = patterns_on(P, ["0"], ["01"], ["010"], ["0101"])
        assert SmallCover(P, J).mass == Fraction(15, 16)

    def test_mass_extremes(self):
        P = Partition.from_lengths([2, 2])
        empty = SmallCover(P, patterns_on(P, [], []))
        assert empty.mass == 0
        full = SmallCover(
            P, tuple(PatternSet.full(b) for b in P.blocks)
        )
        assert full.mass == 2

    def test_block_alignment_checked(self):
        P = Partition.from_lengths([2, 2])
        good = patterns_on(P, ["00"], ["11"])
        with pytest.raises(ValueError):
            SmallCover(P, good[:1])
        with pytest.raises(ValueError):
            SmallCover(P, (good[1], good[0]))

    def test_null_cover_matches_horizons(self):
        P = Partition.from_lengths([2, 2])
        Q = Partition.from_lengths([1, 1, 1, 1])
        A = SmallCover(P, patterns_on(P, ["00"], ["11"]))
        B = SmallCover(Q, patterns_on(Q, ["0"], ["1"], ["0"], ["1"]))
        assert NullCover(A, B).horizon == 4
        with pytest.raises(ValueError):
            NullCover(A, SmallCover(*_tiny_cover(2)))


def _tiny_cover(h: int):
    P = Partition.from_lengths([1] * h)
    return P, tuple(PatternSet.from_bits(b, ["0"]) for b in P.blocks)


class TestECover:
    def test_singleton_membership(self):
        P = Partition.from_lengths([2, 2, 2])
        xF = Point.from_bits("011011")
        J = tuple(
            PatternSet(b, frozenset({(xF.value >> (6 - b.hi)) & b.mask}))
            for b in P.blocks
        )
        C = ECover(P, J, 0)
        assert e_member(C, xF)
        assert not e_member(C, xF ^ Point.from_bits("000001"))

    def test_empty_block_rejects_all(self):
        P = Partition.from_lengths([1, 1])
        C = ECover(P, patterns_on(P, ["0", "1"], []), 0)
        assert not any(e_member(C, Point(2, v)) for v in range(4))

    def test_vacuous_threshold(self):
        P = Partition.from_lengths([1, 1])
        C = ECover(P, patterns_on(P, [], []), 2)
        assert all(e_member(C, Point(2, v)) for v in range(4))

    def test_membership_antitone_in_threshold(self):
        rng = random.Random(13)
        P = Partition.from_lengths([2, 1, 2])
        for _ in range(10):
            J = tuple(
                PatternSet(
                    b,
                    frozenset(
                        v for v in range(1 << b.length) if rng.random() < 0.5
                    ),
                )
                for b in P.blocks
            )
            members = [
                {v for v in range(32) if e_member(ECover(P, J, t), Point(5, v))}
                for t in range(4)
            ]
            for lo, hi in zip(members, members[1:]):
                assert lo <= hi

    def test_density_audit(self):
        P = Partition.from_lengths([2, 2])
        ok = ECover(P, patterns_on(P, ["01"], ["10"]), 0)
        assert e_density_audit(ok) == (Fraction(1, 4), True)
        bad = ECover(P, patterns_on(P, ["00", "01", "10"], ["10"]), 0)
        assert e_density_audit(bad) == (Fraction(3, 4), False)
        empty = ECover(P, patterns_on(P, [], []), 0)
        assert e_density_audit(empty) == (Fraction(0), True)

    def test_audit_translation_invariant(self):
        rng = random.Random(17)
        P = Partition.from_lengths([2, 3, 1])
        for _ in range(10):
            J = []
            for b in P.blocks:
                vals = frozenset(
                    v for v in range(1 << b.length) if rng.random() < 0.6
                )
                J.append(PatternSet(b, vals))
            shifted = tuple(
                pattern_sum(
                    Jn, PatternSet(b, frozenset({rng.randrange(1 << b.length)}))
                )
                for Jn, b in zip(J, P.blocks)
            )
            assert e_density_audit(ECover(P, tuple(J), 0)) == e_density_audit(
                ECover(P, shifted, 0)
            )


class TestStrictToSimple:
    def test_block_zero_headroom(self):
        P = Partition.from_lengths([1, 1, 2])
        C = ECover(P, patterns_on(P, ["0", "1"], ["0"], ["01"]), 0)
        out = strict_e_to_simple(C)
        assert out.threshold == 1
        assert len(out.patterns[0]) == 0
        assert out.patterns[1:] == C.patterns[1:]
        assert e_density_audit(out)[1]

    def test_members_preserved_on_bump(self):
        P = Partition.from_lengths([1, 1, 2])
        C = ECover(P, patterns_on(P, ["0", "1"], ["0"], ["01"]), 0)
        out = strict_e_to_simple(C)
        for v in range(16):
            assert e_member(C, Point(4, v)) == e_member(out, Point(4, v))

    def test_violation_named(self):
        P = Partition.from_lengths([1, 1, 2])
        C = ECover(P, patterns_on(P, ["0"], ["0"], ["01", "10"]), 0)
        with pytest.raises(ValueError, match="block 2"):
            strict_e_to_simple(C)

    def test_all_empty_passes(self):
        P = Partition.from_lengths([2, 2])
        C = ECover(P, patterns_on(P, [], []), 0)
        out = strict_e_to_simple(C)
        assert out.threshold == 0
        assert out.patterns == C.patterns


class TestCertificateTypes:
    def test_certificate_flags(self):
        P = Partition.from_lengths([1, 1])
        good = BlockCheck(0, 0, True)
        bad = BlockCheck(1, 1, False)
        cert = Certificate("demo", P, ((0, 0), (1, 2)), (good,))
        assert cert.passed
        assert cert.vacuous_folds == (1,)
        assert not Certificate("demo", P, ((0, 0), (1, 2)), (good, bad)).passed


class TestClosedNullChain:
    def good_chain(self):
        return ClosedNullChain(
            (
                Stage(("000",), Fraction(1, 8)),
                Stage(("000000", "000110"), Fraction(1, 32)),
            )
        )

    def test_valid_chain(self):
        chain = self.good_chain()
        assert chain.stages[1].max_length == 6

    def test_measure_certificate_checked(self):
        with pytest.raises(ValueError):
            Stage(("000",), Fraction(1, 4))

    def test_antichain_checked(self):
        with pytest.raises(ValueError):
            Stage(("00", "001"), Fraction(3, 8))

    def test_measure_bound(self):
        with pytest.raises(ValueError):
            ClosedNullChain((Stage(("0",), Fraction(1, 2)),))

    def test_refinement_checked(self):
        with pytest.raises(ValueError):
            ClosedNullChain(
                (
                    Stage(("000",), Fraction(1, 8)),
                    Stage(("111000",), Fraction(1, 64)),
                )
            )

    def test_deepening_checked(self):
        with pytest.raises(ValueError):
            ClosedNullChain(
                (
                    Stage(("000",), Fraction(1, 8)),
                    Stage(("000",), Fraction(1, 8)),
                )
            )
