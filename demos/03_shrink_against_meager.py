"""Shrinking a Silver tree against a meager cover.

A meager cover stakes out the points that agree with a center on some
block past a threshold.  Shrinking a tree against it produces a subtree
whose fold sums dodge the cover, together with a coarser meager witness
and a replayable certificate.
"""

from treesum import (
    MeagerCover,
    Partition,
    Point,
    SilverTree,
    certify_request,
    exhaustive_containment,
    shrink_silver_meager,
)

cover = MeagerCover(
    Point.from_bits("110100101101"),
    Partition.from_lengths([2, 2, 2, 2, 2, 2]),
    0,
)
tree = SilverTree(Point.from_bits("010011100101"), frozenset({0, 2, 5, 7, 9}))

result = shrink_silver_meager(cover, tree)
print("kept free coordinates:", sorted(result.tree_out.free))
for key, value in result.provenance.details:
    print(f"  {key} = {value}")

request = result.witnesses[0]
witness = dict(request.per_fold)[0]
print("witness center:", witness.xF.bits(), "threshold", witness.threshold)

# replay the stored checks, then cross-check with brute force
cert = certify_request(request)
print("certificate passed:", cert.passed, f"({len(cert.checks)} block checks)")
subtree = result.tree_as_prefix()
for b, cover_b in request.per_fold:
    ok = exhaustive_containment(cover, subtree, b, cover_b)
    print(f"  exhaustive agreement at fold {b}: {ok}")
