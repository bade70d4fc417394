"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Every numeric comparison is exact; there are no tolerances
anywhere in this file.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from treesum.bits import Partition, PatternSet, Point
from treesum.covers import (
    ClosedNullChain,
    ECover,
    SmallCover,
    Stage,
    e_density_audit,
)
from treesum.constructions import (
    shrink_silver_e,
    shrink_silver_small,
    simplify_e_cover,
)
from treesum.cli import EXIT_FAIL, main
from treesum.kseq import build_kseq, check_kseq_bound
from treesum.oracle import density_audit_table, nfold_body_sum
from treesum.scenario import (
    RunFlags,
    bundled_scenario_names,
    load_bundled,
    parse_scenario,
    run,
)
from treesum.trees import PrefixTree, SilverTree, silver_to_prefix

from test_oracle import e_member, nfold_body_sum_direct

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "treesum" / "scenarios"

FLAGS = RunFlags(deterministic=True)


def random_silver(rng: random.Random, horizon: int,
                  free: frozenset[int] | None = None) -> SilverTree:
    if free is None:
        count = rng.randint(1, min(5, horizon))
        free = frozenset(rng.sample(range(horizon), count))
    bits = "".join(rng.choice("01") for _ in range(horizon))
    return SilverTree(Point.from_bits(bits), free)


def random_patterns(rng: random.Random, block, count: int) -> PatternSet:
    values = rng.sample(range(2 ** block.length), count)
    return PatternSet(block, frozenset(values))


def test_criterion_1_exact_arithmetic_reproductions():
    started = time.perf_counter()
    rng = random.Random(20250822)

    # (a) the density chain for triples: each witness block collects at
    # most four translates of the block product, so densities at most 1/2
    # stay at most 1/2, and the extreme case lands on it exactly
    assert Fraction(1, 2) ** 3 * 4 == Fraction(1, 2)
    for _ in range(25):
        lengths = [rng.randint(2, 4) for _ in range(3)]
        part = Partition.from_lengths(lengths)
        pats, densities = [], []
        for blk in part.blocks:
            count = rng.randint(1, 2 ** (blk.length - 1))
            pats.append(random_patterns(rng, blk, count))
            densities.append(Fraction(count, 2 ** blk.length))
        cover = ECover(part, tuple(pats), 0)
        horizon = sum(lengths)
        free = frozenset({rng.randrange(horizon)})
        tree = random_silver(rng, horizon, free)
        result = shrink_silver_e(cover, tree, folds=(0, 1, 2))
        bound = 4 * densities[0] * densities[1] * densities[2]
        for bundle in result.witnesses:
            for _, out in bundle.per_fold:
                width = out.partition[0].length
                value = Fraction(len(out.patterns[0]), 2 ** width)
                assert value <= bound
                assert value <= Fraction(1, 2)

    # (b) the small shrink at most quadruples every block
    blocks_seen = 0
    while blocks_seen < 100:
        lengths = [rng.randint(2, 4) for _ in range(4)]
        part = Partition.from_lengths(lengths)
        pats = tuple(
            random_patterns(rng, blk, rng.randint(1, 2 ** blk.length))
            for blk in part.blocks
        )
        cover = SmallCover(part, pats)
        tree = random_silver(rng, sum(lengths))
        result = shrink_silver_small(cover, tree, folds=(0, 1))
        for bundle in result.witnesses:
            for _, out in bundle.per_fold:
                for n in range(len(part)):
                    assert len(out.patterns[n]) <= 4 * len(pats[n])
                blocks_seen += len(part)

    # (c) the geometric group sizes beat the fold-pattern counts exactly
    for n in range(5):
        group = (2 ** n) ** (n + 1)
        count = sum((2 ** n) ** j for j in range(n + 1))
        value = Fraction(1, 2) ** group * count
        assert value <= Fraction(1, 2)
        if n == 0:
            assert value == Fraction(1, 2)

    # (d) the cutoff sequence bound holds on random positive sequences
    for _ in range(200):
        length = rng.randint(1, 64)
        seq = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(length)]
        for b in (1, 2, 3):
            lhs, rhs, ok = check_kseq_bound(build_kseq(seq, b), b)
            assert ok
            assert lhs <= rhs

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 1 (exact arithmetic reproductions): PASS [{elapsed:.2f}s]")


def _span(units: list[int]) -> set[int]:
    out = {0}
    for e in units:
        out |= {v ^ e for v in out}
    return out


def _body_ints(x_value: int, free: frozenset[int], horizon: int) -> set[int]:
    base = x_value
    for i in free:
        base &= ~(1 << (horizon - 1 - i))
    return {base ^ v for v in _span([1 << (horizon - 1 - i) for i in free])}


def _fold(values: set[int], n: int) -> set[int]:
    out = {0}
    for _ in range(n):
        out = {a ^ b for a in out for b in values}
    return out


def _free_sets(horizon: int, max_size: int):
    for size in range(0, min(max_size, horizon) + 1):
        for combo in itertools.combinations(range(horizon), size):
            yield frozenset(combo)


def test_criterion_2_silver_algebra():
    started = time.perf_counter()
    rng = random.Random(987001)

    # base anchor: the integer body shortcut agrees with the tree body,
    # for every tree at horizon 3
    for x in range(8):
        for free in _free_sets(3, 3):
            S = SilverTree(Point(3, x), free)
            leaves = set(silver_to_prefix(S).leaves)
            assert _body_ints(x, free, 3) == leaves

    # translation structure, exhaustive at horizon 2..4: the n-fold body
    # sum of (x, A) is the zero-based one shifted by x's fixed part when
    # n is odd, unshifted when n is even
    for h in range(2, 5):
        for free in _free_sets(h, h):
            zero_body = _body_ints(0, free, h)
            zero_folds = {n: _fold(zero_body, n) for n in (1, 2, 3)}
            for x in range(2 ** h):
                base = x
                for i in free:
                    base &= ~(1 << (h - 1 - i))
                shifted = _body_ints(x, free, h)
                for n in (1, 2, 3):
                    expect = (
                        {base ^ v for v in zero_folds[n]}
                        if n % 2
                        else zero_folds[n]
                    )
                    assert _fold(shifted, n) == expect

    # that structure reduces x to a zero and a nonzero representative;
    # sweep every free set of size at most 5 up to horizon 10
    for h in range(2, 11):
        alternating = int("10" * h, 2) >> h
        for free in _free_sets(h, 5):
            for x in (0, alternating):
                B = _body_ints(x, free, h)
                folds = {}
                current = {0}
                for n in range(1, 6):
                    current = {a ^ b for a in current for b in B}
                    folds[n] = current
                union = folds[1] | folds[2]
                for n in range(1, 6):
                    assert folds[n] <= union

    # body law: the sumset of two bodies is the body of the summed tree.
    # All tree pairs at horizon 2..3, transversal pairs at 4, random above.
    for h in range(2, 5):
        alternating = int("10" * h, 2) >> h
        xs = range(2 ** h) if h <= 3 else (0, alternating)
        family = [
            SilverTree(Point(h, x), free)
            for free in _free_sets(h, 5) if free
            for x in xs
        ]
        for S, T in itertools.product(family, family):
            merged = SilverTree(S.x ^ T.x, S.free | T.free)
            left = _body_ints(merged.x.value, merged.free, h)
            bs = _body_ints(S.x.value, S.free, h)
            bt = _body_ints(T.x.value, T.free, h)
            assert left == {u ^ v for u in bs for v in bt}
    for _ in range(600):
        h = rng.randint(5, 10)
        S = random_silver(rng, h)
        T = random_silver(rng, h)
        merged = SilverTree(S.x ^ T.x, S.free | T.free)
        left = _body_ints(merged.x.value, merged.free, h)
        bs = _body_ints(S.x.value, S.free, h)
        bt = _body_ints(T.x.value, T.free, h)
        assert left == {u ^ v for u in bs for v in bt}

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 2 (silver algebra): PASS [{elapsed:.2f}s]")


def test_criterion_3_golden_scenarios_end_to_end():
    started = time.perf_counter()
    names = bundled_scenario_names()
    assert len(names) == 13
    ops_seen = set()
    for name in names:
        scenario = load_bundled(name)
        assert 10 <= scenario.horizon <= 14
        report = run(scenario, FLAGS)
        assert report.passed, name
        for entry in report.data["requests"]:
            ops_seen.add(entry["op"])
            for w in entry.get("witnesses", ()):
                assert w["certificate"]["passed"], (name, w["label"])
                folds = [c["fold"] for c in w["covers"]]
                assert folds == [0, 1, 2, 3], (name, w["label"])
                if w["kind"] in ("meager", "e"):
                    assert set(w["exhaustive"].values()) == {True}, name
    assert len(ops_seen) == 13
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 3 (golden scenarios end to end): PASS [{elapsed:.2f}s]")


def test_criterion_4_oracle_self_consistency():
    started = time.perf_counter()
    rng = random.Random(444555)

    # two fold-sum algorithms agree on random trees
    for _ in range(50):
        horizon = rng.randint(4, 10)
        count = rng.randint(2, 24)
        leaves = rng.sample(range(2 ** horizon), count)
        tree = PrefixTree.from_leaves(
            format(v, f"0{horizon}b") for v in leaves
        )
        for n in range(1, 4):
            iterated = nfold_body_sum(tree, n)
            direct = nfold_body_sum_direct(tree, n)
            assert iterated.values == direct.values

    # on every golden scenario the blockwise verdict is confirmed by the
    # exhaustive one wherever the latter applies
    for name in bundled_scenario_names():
        report = run(load_bundled(name), FLAGS)
        for entry in report.data["requests"]:
            for w in entry.get("witnesses", ()):
                if "exhaustive" not in w:
                    continue
                if w["certificate"]["passed"]:
                    assert all(w["exhaustive"].values()), (name, w["label"])

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 4 (oracle self-consistency): PASS [{elapsed:.2f}s]")


def test_criterion_5_chain_simplification():
    started = time.perf_counter()
    chains = [
        ClosedNullChain((
            Stage(("000",), Fraction(1, 8)),
            Stage(("000000", "000110"), Fraction(1, 32)),
            Stage(("000000110", "000110011"), Fraction(1, 256)),
            Stage(("000000110000", "000110011101"), Fraction(1, 2048)),
        )),
        ClosedNullChain((
            Stage(("11",), Fraction(1, 4)),
            Stage(("11000", "11101"), Fraction(1, 16)),
            Stage(("1100010", "1110110"), Fraction(1, 64)),
        )),
        ClosedNullChain((
            Stage(("01",), Fraction(1, 4)),
        )),
    ]
    for chain in chains:
        cover = simplify_e_cover(chain)
        value, ok = e_density_audit(cover)
        assert ok
        assert value <= Fraction(1, 2)
        horizon = cover.partition.horizon
        for k, stage in enumerate(chain.stages):
            for node in stage.nodes:
                # a stage node pins down exactly the first k+1 blocks
                assert len(node) == cover.partition[k].hi
                for j in range(k + 1):
                    blk = cover.partition[j]
                    word = int(node[blk.lo:blk.hi], 2)
                    assert word in cover.patterns[j].values
        for node in chain.stages[-1].nodes:
            assert len(node) == horizon
            assert e_member(cover, Point.from_bits(node))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 5 (chain simplification): PASS [{elapsed:.2f}s]")


def test_criterion_6_negative_controls(tmp_path, capsys):
    started = time.perf_counter()
    flags = RunFlags(exhaustive=False, deterministic=True)

    # removing one consulted pattern from any golden witness bundle must
    # flip that bundle's certificate
    tampered_total = 0
    for name in bundled_scenario_names():
        if name == "chain-simplify":
            continue
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        clean = run(parse_scenario(json.dumps(doc)), flags)
        for w in clean.data["requests"][0]["witnesses"]:
            thresholds = {
                int(b): t for b, t in w["certificate"]["thresholds"].items()
            }
            # the certificate checks blocks from each fold's threshold to
            # the end, so the block count falls out of the check count
            checks = w["certificate"]["checks"]
            blocks, rem = divmod(
                checks + sum(thresholds.values()), len(thresholds)
            )
            assert rem == 0, (name, w["label"])
            spot = next(
                ((b, thr) for b, thr in sorted(thresholds.items())
                 if thr < blocks),
                None,
            )
            assert spot is not None, (name, w["label"])
            bad = json.loads(json.dumps(doc))
            bad["requests"][0]["tamper"] = {
                "bundle": w["label"], "fold": spot[0], "block": spot[1]}
            report = run(parse_scenario(json.dumps(bad)), flags)
            hit = [v for v in report.data["requests"][0]["witnesses"]
                   if v["label"] == w["label"]][0]
            assert not hit["certificate"]["passed"], (name, w["label"])
            assert not report.passed
            tampered_total += 1
    assert tampered_total >= 13

    # and the command line reports it with exit code 1
    doc = json.loads((SCENARIOS / "silver-meager.json").read_text())
    doc["requests"][0]["tamper"] = {"bundle": "meager", "fold": 0, "block": 1}
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--deterministic", "--out",
                 str(tmp_path / "report.json")]) == EXIT_FAIL
    capsys.readouterr()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"criterion 6 (negative controls): PASS [{elapsed:.2f}s]")
