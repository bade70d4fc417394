"""Flattening a closed null chain into a blockwise cover.

A closed null chain approximates a closed measure-zero set from outside
by cylinder unions of shrinking measure.  Each stage deepens the last,
so the fresh coordinates of stage k form a block, and the stage's
cylinder suffixes become that block's patterns.  When every stage leaves
enough room, the flattened cover keeps all block densities below 1/2.
"""

from fractions import Fraction

from treesum import (
    ClosedNullChain,
    Point,
    Stage,
    e_density_audit,
    restrict,
    simplify_e_cover,
)

chain = ClosedNullChain((
    Stage(("000",), Fraction(1, 8)),
    Stage(("000000", "000110"), Fraction(1, 32)),
    Stage(("000000110", "000110011"), Fraction(1, 256)),
))

cover = simplify_e_cover(chain)
print("blocks:", ", ".join(str(b) for b in cover.partition.blocks))
for blk, pats in zip(cover.partition.blocks, cover.patterns):
    print(f"  {blk}: {', '.join(sorted(str(w) for w in pats.words()))}")

value, ok = e_density_audit(cover)
print("max block density:", value, "| audit passed:", ok)


def is_member(bits: str) -> bool:
    """Whether the point lands in the listed patterns on every block from
    the cover's threshold on."""
    point = Point.from_bits(bits)
    return all(
        restrict(point, cover.partition[n]) in cover.patterns[n]
        for n in range(cover.threshold, len(cover.partition))
    )


# deepest-stage nodes are full points of the flattened cover
for node in chain.stages[-1].nodes:
    print(node, "is a member:", is_member(node))
print("110110000 is a member:", is_member("110110000"))
