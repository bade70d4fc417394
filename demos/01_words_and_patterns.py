"""Words, blocks, and pattern arithmetic.

Everything in this package happens on the first `horizon` coordinates of
infinite 0/1 sequences.  A Block is a half-open coordinate range, a Word
is an assignment on one block, and a PatternSet is a finite set of words
on a shared block.  Addition is coordinatewise XOR throughout.
"""

from treesum import Block, Partition, PatternSet, Point, pattern_sum, restrict

block = Block(0, 3)
print("block", block, "has length", block.length)

J = PatternSet.from_bits(block, ["101", "010", "111"])
print("pattern set:", ", ".join(str(w) for w in J.words()))
print("density:", J.density, "out of", 2 ** block.length, "possible words")

# XOR sumset of two pattern sets on the same block
K = PatternSet.from_bits(block, ["001"])
S = pattern_sum(J, K)
print("sum with {001}:", ", ".join(str(w) for w in S.words()))

# points restrict to words blockwise
part = Partition.from_lengths([3, 3, 2])
p = Point.from_bits("10110011")
print("point", p.bits(), "restricted to each block:")
for blk in part.blocks:
    print("  ", blk, "->", restrict(p, blk))
