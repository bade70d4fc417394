"""Silver trees and the algebra of their bodies.

A Silver tree is determined by a base point and a set of free
coordinates: branches agree with the base point except on the free
coordinates, where both values occur.  The XOR sumset of two bodies is
again a Silver body, and iterated sumsets collapse after two rounds.
"""

from treesum import Point, SilverTree, nfold_body_sum, silver_to_prefix


def body(tree: SilverTree) -> str:
    """The branches of a Silver tree as bit strings, in increasing order."""
    P = silver_to_prefix(tree)
    return ", ".join(format(v, f"0{P.horizon}b") for v in P.sorted_leaves)


S = SilverTree(Point.from_bits("010011"), frozenset({1, 4}))
T = SilverTree(Point.from_bits("110100"), frozenset({0, 4}))

print("body of S:", body(S))
print("body of T:", body(T))

# the sumset law: XOR the base points, union the free sets
U = SilverTree(S.x ^ T.x, S.free | T.free)
print("S + T has base", U.x.bits(), "and free coordinates", sorted(U.free))
print("body of S + T:", body(U))

# collapse: fold sums of one body never leave the first two folds
P = silver_to_prefix(S)
one = nfold_body_sum(P, 1).values
two = nfold_body_sum(P, 2).values
for n in range(1, 6):
    fold = nfold_body_sum(P, n).values
    inside = fold <= one | two
    print(f"{n}-fold sum has {len(fold)} words, "
          f"inside fold-1 union fold-2: {inside}")
