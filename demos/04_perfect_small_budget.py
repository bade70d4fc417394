"""Shrinking a perfect tree against a small cover under a split budget.

Small covers list forbidden words per block.  Keeping a perfect subtree
whose fold sums stay small requires rationing how often branches split;
the ration comes from an exact cutoff sequence driven by the cover's
densities.  Denser covers leave less room to split.
"""

from treesum import (
    Partition,
    PatternSet,
    PrefixTree,
    SmallCover,
    certify_request,
    shrink_perfect_small,
)

part = Partition.from_lengths([3, 3, 3, 3])
cover = SmallCover(part, (
    PatternSet.from_bits(part[0], ["000", "011", "101", "110"]),
    PatternSet.from_bits(part[1], ["010", "111"]),
    PatternSet.from_bits(part[2], ["100"]),
    PatternSet.from_bits(part[3], ["111"]),
))
print("cover mass:", cover.mass)

result = shrink_perfect_small(cover, PrefixTree.full(12))
for key, value in result.provenance.details:
    print(f"  {key} = {value}")
for warning in result.provenance.warnings:
    print("  warning:", warning)

subtree = result.tree_as_prefix()
print("kept", len(subtree.leaves), "of", 2 ** 12, "branches")

request = result.witnesses[0]
cert = certify_request(request)
print("certificate passed:", cert.passed)
for b, witness in request.per_fold:
    print(f"  fold {b}: witness mass {witness.mass}")
