"""Nondecreasing exponent sequence from a summable positive sequence.

Given positive rationals a_0..a_{m-1} with sum s, the cutoff n_j is the
least index whose tail sum drops strictly below s / 2^(j*j), and k_n
counts how many cutoffs lie at or below n.  The payoff is the bound
sum (2^b)^(k_n) a_n < 2^(b*b) s for every b >= 1, which the measure
constructions spend as their blow-up allowance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class KSeq:
    a: tuple[Fraction, ...]
    s: Fraction
    nj: tuple[int, ...]
    k: tuple[int, ...]

    def __post_init__(self):
        if self.nj[0] != 0:
            raise ValueError("n_0 must be 0")
        if any(x > y for x, y in zip(self.k, self.k[1:])):
            raise ValueError("k must be nondecreasing")


def build_kseq(a: Sequence[Fraction], j_max: int) -> KSeq:
    if not a:
        raise ValueError("empty sequence")
    entries = tuple(Fraction(x) for x in a)
    if any(x <= 0 for x in entries):
        raise ValueError("entries must be positive")
    if j_max < 0:
        raise ValueError("j_max must be at least 0")

    # tails[n] = sum of entries from n on; tails[len] = 0 stands in for the
    # vanished infinite tail, which keeps every cutoff well-defined
    tails = [Fraction(0)] * (len(entries) + 1)
    for n in range(len(entries) - 1, -1, -1):
        tails[n] = tails[n + 1] + entries[n]
    s = tails[0]

    nj = [0]
    for j in range(1, j_max + 1):
        bound = s / 2 ** (j * j)
        nj.append(next(n for n in range(len(entries) + 1) if tails[n] < bound))

    k = []
    for n in range(len(entries)):
        k.append(max(j for j in range(j_max + 1) if nj[j] <= n))
    return KSeq(entries, s, tuple(nj), tuple(k))


def check_kseq_bound(K: KSeq, b: int) -> tuple[Fraction, Fraction, bool]:
    """Exact two sides of the blow-up bound at fold count b."""
    if b < 1:
        raise ValueError("bound is only claimed for b >= 1")
    lhs = sum(
        ((1 << (b * kn)) * an for kn, an in zip(K.k, K.a)), Fraction(0)
    )
    rhs = (1 << (b * b)) * K.s
    return lhs, rhs, lhs < rhs
