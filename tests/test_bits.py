"""Bit algebra tests.

The reference model here works on literal '0'/'1' strings so that every packed
operation is checked against an implementation with no shared code.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesum import bits
from treesum.bits import (
    Block,
    Partition,
    PatternSet,
    Point,
    Word,
    block_product,
    coarsen,
    indicator_word,
    pattern_sum,
    restrict,
)


def s_xor(a: str, b: str) -> str:
    assert len(a) == len(b)
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def s_all(n: int) -> list[str]:
    return [format(v, f"0{n}b") for v in range(1 << n)]


class TestBlock:
    def test_basic(self):
        b = Block(2, 5)
        assert b.length == 3
        assert 2 in b and 4 in b and 5 not in b and 1 not in b
        assert str(b) == "[2,5)"

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Block(3, 3)
        with pytest.raises(ValueError):
            Block(-1, 2)


class TestPartition:
    def test_from_lengths(self):
        p = Partition.from_lengths([2, 3, 1])
        assert p.horizon == 6
        assert p[1] == Block(2, 5)
        assert [b.length for b in p] == [2, 3, 1]

    def test_index_of(self):
        p = Partition.from_lengths([2, 3, 1])
        assert [p.index_of(i) for i in range(6)] == [0, 0, 1, 1, 1, 2]
        with pytest.raises(ValueError):
            p.index_of(6)

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Partition((Block(0, 2), Block(3, 4)))
        with pytest.raises(ValueError):
            Partition((Block(1, 2),))

    def test_coarsen(self):
        fine = Partition.from_lengths([2, 2, 2, 2, 2, 2])
        coarse = coarsen(fine, [1, 2, 3])
        assert [b.length for b in coarse] == [2, 4, 6]
        with pytest.raises(ValueError):
            coarsen(fine, [2, 2])
        with pytest.raises(ValueError):
            coarsen(fine, [4, 4])


class TestWord:
    def test_roundtrip_all_length_6(self):
        block = Block(3, 9)
        for bits in s_all(6):
            w = Word.from_bits(bits, block)
            assert w.bits() == bits
            assert w.value == int(bits, 2)

    def test_msb_first_packing(self):
        # leftmost written bit is the high bit of the packed value
        assert Word.from_bits("100", Block(0, 3)).value == 4
        assert Word.from_bits("001", Block(0, 3)).value == 1
        assert indicator_word(Block(2, 5), [2]).bits() == "100"
        assert indicator_word(Block(2, 5), [4]).bits() == "001"

    @pytest.mark.parametrize("text", ["0_0", " 00", "00 "])
    def test_from_bits_rejects_non_bit_characters(self, text):
        # int(text, 2) alone would accept the underscore and the blanks
        with pytest.raises(ValueError):
            Word.from_bits(text)
        with pytest.raises(ValueError):
            Word.from_bits(text, Block(2, 5))
        with pytest.raises(ValueError):
            PatternSet.from_bits(Block(0, 3), ["101", text])

    def test_lex_order_is_numeric_order(self):
        block = Block(0, 5)
        words = [Word.from_bits(b, block) for b in s_all(5)]
        shuffled = words[:]
        random.Random(7).shuffle(shuffled)
        assert sorted(shuffled) == words

    def test_xor_matches_string_model(self):
        # two words add as the sum of their singleton pattern sets
        block = Block(1, 5)
        for a in s_all(4):
            for b in s_all(4):
                got = pattern_sum(
                    PatternSet.from_bits(block, [a]), PatternSet.from_bits(block, [b])
                )
                assert [w.bits() for w in got.words()] == [s_xor(a, b)]

    def test_xor_rejects_block_mismatch(self):
        with pytest.raises(ValueError, match="blocks differ"):
            pattern_sum(
                PatternSet.from_bits(Block(0, 2), ["01"]),
                PatternSet.from_bits(Block(2, 4), ["01"]),
            )

    def test_indicator(self):
        w = indicator_word(Block(2, 8), [3, 5, 11])
        assert w.bits() == "010100"
        assert indicator_word(Block(0, 4), []).bits() == "0000"
        assert indicator_word(Block(0, 4), range(4)).bits() == "1111"


class TestPoint:
    def test_roundtrip_and_restrict(self):
        p = Point.from_bits("110100101101")
        assert p.horizon == 12
        assert p.bits() == "110100101101"
        assert restrict(p, Block(0, 3)).bits() == "110"
        assert restrict(p, Block(4, 9)).bits() == "00101"
        assert restrict(p, Block(9, 12)).bits() == "101"
        with pytest.raises(ValueError):
            restrict(p, Block(9, 13))

    def test_restrict_matches_slicing_exhaustive(self):
        for bits in s_all(6):
            p = Point.from_bits(bits)
            for lo in range(6):
                for hi in range(lo + 1, 7):
                    assert restrict(p, Block(lo, hi)).bits() == bits[lo:hi]

    def test_xor_group_laws_exhaustive(self):
        zero = Point.zero(4)
        pts = [Point.from_bits(b) for b in s_all(4)]
        for a in pts:
            assert (a ^ a) == zero
            assert (a ^ zero) == a
            for b in pts:
                assert (a ^ b) == (b ^ a)
                for c in pts[:4]:
                    assert ((a ^ b) ^ c) == (a ^ (b ^ c))

    def test_truncate(self):
        p = Point.from_bits("10110")
        assert p.truncate(3).bits() == "101"
        assert p.truncate(5) == p
        with pytest.raises(ValueError):
            p.truncate(6)


class TestPatternSet:
    def test_rejects_values_out_of_range(self):
        block = Block(2, 5)
        for values, bad in (({1, -1}, -1), ({0, 8}, 8)):
            with pytest.raises(
                ValueError, match=rf"^value {bad} out of range for block \[2,5\)"
            ):
                PatternSet(block, frozenset(values))
        assert len(PatternSet(block, frozenset({0, 7}))) == 2

    def test_canonical_order(self):
        J = PatternSet.from_bits(Block(0, 3), ["110", "001", "100"])
        assert [w.bits() for w in J.words()] == ["001", "100", "110"]

    def test_density(self):
        J = PatternSet.from_bits(Block(2, 5), ["010", "111"])
        assert J.density == Fraction(1, 4)
        assert PatternSet.full(Block(0, 2)).density == 1
        assert PatternSet.empty(Block(0, 2)).density == 0

    def test_membership(self):
        J = PatternSet.from_bits(Block(0, 2), ["01"])
        assert Word.from_bits("01", Block(0, 2)) in J
        assert Word.from_bits("01", Block(1, 3)) not in J
        assert 1 in J and 2 not in J

    def test_sum_matches_string_model(self):
        block = Block(0, 3)
        rng = random.Random(11)
        for _ in range(50):
            A = rng.sample(s_all(3), rng.randint(1, 5))
            B = rng.sample(s_all(3), rng.randint(1, 5))
            want = {s_xor(a, b) for a in A for b in B}
            got = pattern_sum(
                PatternSet.from_bits(block, A), PatternSet.from_bits(block, B)
            )
            assert {w.bits() for w in got.words()} == want

    def test_sum_with_empty_is_empty(self):
        block = Block(0, 3)
        J = PatternSet.from_bits(block, ["101"])
        assert len(pattern_sum(J, PatternSet.empty(block))) == 0

    def test_sum_frozen_example(self):
        # {00,11} + {01} = {01,10}; cosets of the diagonal subgroup
        block = Block(0, 2)
        got = pattern_sum(
            PatternSet.from_bits(block, ["00", "11"]),
            PatternSet.from_bits(block, ["01"]),
        )
        assert {w.bits() for w in got.words()} == {"01", "10"}

    def test_translate_preserves_density(self):
        block = Block(1, 5)
        rng = random.Random(3)
        for _ in range(20):
            J = PatternSet.from_bits(block, rng.sample(s_all(4), rng.randint(1, 6)))
            w = PatternSet.from_bits(block, [rng.choice(s_all(4))])
            K = pattern_sum(J, w)
            assert K.density == J.density
            assert pattern_sum(K, w) == J

    def test_translate_by_member_hits_zero(self):
        block = Block(0, 3)
        J = PatternSet.from_bits(block, ["101", "011"])
        assert 0 in pattern_sum(J, PatternSet.from_bits(block, ["101"]))

    def test_block_product(self):
        a = PatternSet.from_bits(Block(0, 2), ["01", "10"])
        b = PatternSet.from_bits(Block(2, 3), ["1"])
        prod = block_product([a, b])
        assert prod.block == Block(0, 3)
        assert {w.bits() for w in prod.words()} == {"011", "101"}
        assert prod.density == a.density * b.density

    def test_block_product_density_multiplies(self):
        rng = random.Random(5)
        for _ in range(20):
            lens = [rng.randint(1, 3) for _ in range(3)]
            p = Partition.from_lengths(lens)
            parts = [
                PatternSet.from_bits(
                    blk, rng.sample(s_all(blk.length), rng.randint(1, 1 << blk.length))
                )
                for blk in p
            ]
            prod = block_product(parts)
            assert prod.density == parts[0].density * parts[1].density * parts[2].density
            assert len(prod) == len(parts[0]) * len(parts[1]) * len(parts[2])

    def test_block_product_rejects_gap(self):
        with pytest.raises(ValueError):
            block_product(
                [PatternSet.full(Block(0, 2)), PatternSet.full(Block(3, 4))]
            )

    def test_restrict_is_sum_homomorphism(self):
        # restriction of a sumset equals the sumset of restrictions
        block = Block(0, 4)
        sub = Block(1, 3)
        rng = random.Random(13)

        def cut(v: int) -> int:
            return restrict(Point(block.length, v), sub).value

        for _ in range(30):
            A = PatternSet.from_bits(block, rng.sample(s_all(4), 3))
            B = PatternSet.from_bits(block, rng.sample(s_all(4), 3))
            lhs = {cut(v) for v in pattern_sum(A, B).values}
            rhs = pattern_sum(
                PatternSet(sub, frozenset(map(cut, A.values))),
                PatternSet(sub, frozenset(map(cut, B.values))),
            )
            assert lhs == rhs.values


# Pair budget for one reference comprehension in the kernel property test.
REFERENCE_PAIRS = 1 << 17


@st.composite
def pattern_operand(draw, length: int, max_size: int) -> frozenset[int]:
    size = 1 << length
    kind = draw(st.sampled_from(["empty", "singleton", "full", "random"]))
    if kind == "empty":
        return frozenset()
    if kind == "singleton":
        return frozenset({draw(st.integers(0, size - 1))})
    if kind == "full" and size <= max_size:
        return frozenset(range(size))
    count = draw(st.integers(1, min(size, max_size)))
    seed = draw(st.integers(0, 2**32 - 1))
    return frozenset(random.Random(seed).sample(range(size), count))


@st.composite
def pattern_pairs(draw) -> tuple[PatternSet, PatternSet]:
    length = draw(st.integers(1, 14))
    lo = draw(st.integers(0, 5))
    block = Block(lo, lo + length)
    J = draw(pattern_operand(length, REFERENCE_PAIRS))
    K = draw(pattern_operand(length, max(1, REFERENCE_PAIRS // max(1, len(J)))))
    return PatternSet(block, J), PatternSet(block, K)


class TestPatternSumKernel:
    """pattern_sum against the plain pair comprehension it replaces for
    large operands."""

    @settings(max_examples=300, deadline=None)
    @given(pattern_pairs())
    def test_matches_pair_comprehension(self, pair):
        J, K = pair
        want = frozenset(u ^ v for u in J.values for v in K.values)
        assert pattern_sum(J, K) == PatternSet(J.block, want)
        assert pattern_sum(K, J) == PatternSet(J.block, want)

    @pytest.mark.parametrize("length", range(1, 15))
    def test_cost_rule_picks_the_bitset_path(self, length, monkeypatch):
        # the bitset path runs exactly when |J|·|K| > 2^L; both sides agree
        # with the comprehension
        calls = []
        kernel = bits._sum_bits
        monkeypatch.setattr(
            bits, "_sum_bits",
            lambda *args: calls.append(1) or kernel(*args),
        )
        rng = random.Random(length)
        block = Block(3, 3 + length)
        size = 1 << length
        j_size = 1 << ((length + 1) // 2)
        took_bitset = []
        for k_size in (size // j_size, size // j_size + 1):
            J = PatternSet(block, frozenset(rng.sample(range(size), j_size)))
            K = PatternSet(block, frozenset(rng.sample(range(size), k_size)))
            calls.clear()
            got = pattern_sum(J, K)
            assert got.values == {u ^ v for u in J.values for v in K.values}
            took_bitset.append(bool(calls))
        assert took_bitset == [False, True]


def coset_words(rng: random.Random, length: int, rank: int) -> set[int]:
    """x + span(g_1..g_rank) with independent generators, on `length` bits."""
    size, span = 1 << length, {0}
    while len(span) < 1 << rank:
        g = rng.randrange(size)
        if g not in span:
            span |= {s ^ g for s in span}
    x = rng.randrange(size)
    return {s ^ x for s in span}


@st.composite
def sum_bits_operands(draw) -> tuple[list[int], frozenset[int], int]:
    """(sorted words, translated set, L) for L <= 10.  A "pow2" draw
    swaps one word of a rank >= 2 coset for a word off it: 2^k words that
    are not a coset, since 2^k - 1 of them already generate the coset."""
    length = draw(st.integers(1, 10))
    size = 1 << length
    kind = draw(st.sampled_from(["empty", "coset", "coset+1", "pow2", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        words = set()
    elif kind == "random":
        words = set(rng.sample(range(size), rng.randint(1, size)))
    elif kind == "pow2" and length < 3:
        words = set(rng.sample(range(size), 1 << (length - 1)))
    else:
        low = 2 if kind == "pow2" else 0
        high = length - 1 if kind == "pow2" else length
        words = coset_words(rng, length, draw(st.integers(low, high)))
        off = sorted(set(range(size)) - words)
        if kind != "coset" and off:
            if kind == "pow2":
                words.remove(rng.choice(sorted(words)))
            words.add(rng.choice(off))
    members = frozenset(rng.sample(range(size), rng.randint(0, min(size, 64))))
    return sorted(words), members, length


def brute_rank(values: set[int], v0: int) -> int:
    span = {0}
    for v in values:
        if v ^ v0 not in span:
            span |= {s ^ v ^ v0 for s in span}
    return len(span).bit_length() - 1


class TestSumBits:
    """The coset closure in bits._sum_bits against the pair comprehension,
    and the elimination in bits._basis against a brute-force span."""

    @settings(max_examples=400, deadline=None)
    @given(sum_bits_operands())
    def test_matches_pair_comprehension(self, operands):
        words, members, length = operands
        want = {u ^ v for u in words for v in members}
        got = bits._sum_bits(words, bits._to_bitset(members, length), length)
        assert got == bits._to_bitset(want, length)

    def test_empty_words_give_the_empty_union(self):
        assert bits._sum_bits([], bits._to_bitset({1, 2}, 2), 2) == 0

    @pytest.mark.parametrize("length", range(1, 9))
    def test_a_coset_takes_rank_plus_one_translates(self, length, monkeypatch):
        translates, unions = [], []
        translate, union = bits._translate, bits._translate_union
        monkeypatch.setattr(
            bits, "_translate", lambda *a: translates.append(1) or translate(*a)
        )
        monkeypatch.setattr(
            bits, "_translate_union", lambda *a: unions.append(1) or union(*a)
        )
        rng = random.Random(length)
        members = bits._to_bitset({0, (1 << length) - 1}, length)
        for rank in range(length + 1):
            words = sorted(coset_words(rng, length, rank))
            translates.clear()
            got = bits._sum_bits(words, members, length)
            assert got == bits._to_bitset(
                {w ^ m for w in words for m in (0, (1 << length) - 1)}, length
            )
            assert (len(translates), unions) == (rank + 1, [])

    def test_a_non_coset_takes_the_translate_union(self, monkeypatch):
        # the basis is sought only for 2^k words
        unions, bases = [], []
        union, basis = bits._translate_union, bits._basis
        monkeypatch.setattr(
            bits, "_translate_union", lambda *a: unions.append(1) or union(*a)
        )
        monkeypatch.setattr(bits, "_basis", lambda *a: bases.append(1) or basis(*a))
        for words, sought in (([0, 1, 2, 4], [1]), ([0, 1, 2], [])):
            unions.clear()
            bases.clear()
            assert bits._sum_bits(words, 1, 3) == bits._to_bitset(set(words), 3)
            assert unions and bases == sought

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.sets(st.integers(0, (1 << n) - 1)), st.integers(0, (1 << n) - 1)
        )
    ))
    def test_basis_is_an_echelon_basis_of_the_span(self, drawn):
        values, v0 = drawn
        basis = bits._basis(values, v0)
        assert len(basis) == brute_rank(values, v0)
        leads = [v.bit_length() for v in basis]
        assert leads == sorted(set(leads), reverse=True)
        span = {0}
        for v in basis:
            span |= {s ^ v for s in span}
        assert {v ^ v0 for v in values} <= span
