"""Seeded scenario generators for the benchmark workloads.

Each generator returns ``[(scenario_name, scenario_json_text), ...]``; the
program under test only ever sees that JSON text, through
``treesum.scenario.parse_scenario``.  The seed varies points, free
coordinates and pattern values, never the shapes (partitions, pattern
counts, thresholds, free-set sizes), so the expected outcome of every
request and the amount of work in a pass are the same for every seed.
That keeps ``expected.json`` valid for any seed and keeps run-to-run
spread down to machine noise.

This module imports nothing from ``treesum``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

NAMES = ("perfect-full", "splitting-folds", "silver-exhaustive", "bundled")


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _patterns(rng: random.Random, lengths, counts) -> list[list[str]]:
    """Per block, ``count`` distinct random words of the block's length."""
    return [
        [format(v, f"0{L}b") for v in sorted(rng.sample(range(1 << L), k))]
        for L, k in zip(lengths, counts)
    ]


def _complete_super_prefix(fine_count: int) -> int:
    """Fine blocks used by complete super-blocks of sizes 1, 4, 64, ...
    (the grouping of the perfect-tree meager and E constructions)."""
    used, g = 0, 0
    while used + (2**g) ** (g + 1) <= fine_count:
        used += (2**g) ** (g + 1)
        g += 1
    return used


def _scenario(name: str, horizon: int, **parts) -> tuple[str, str]:
    doc = {"name": name, "horizon": horizon, **parts}
    # covers resolve in document order, so keys keep insertion order
    return name, json.dumps(doc, indent=1)


def perfect_full(rng: random.Random) -> list[tuple[str, str]]:
    """Full depth-16 tree through meager, E, small and null covers."""
    horizon = 16
    fine = [2, 3, 3, 3, 3, 2]
    # shrink_perfect_meager looks for splitting nodes strictly past the last
    # complete super-block; with no fine block left over it finds none.
    if _complete_super_prefix(len(fine)) >= len(fine):
        raise ValueError("perfect-full partition needs a trailing fine block")
    coarse = [4, 4, 4, 4]
    wide = [4, 4, 8]
    return [_scenario(
        "perfect-full", horizon,
        partitions={
            "fine": {"lengths": fine},
            "coarse": {"lengths": coarse},
            "wide": {"lengths": wide},
        },
        points={"xF": _bits(rng, horizon)},
        trees={"Q": {"kind": "full"}},
        covers={
            "F": {"kind": "meager", "x": "xF", "partition": "fine",
                  "threshold": 0},
            "E": {"kind": "e", "partition": "fine", "threshold": 0,
                  "patterns": _patterns(rng, fine, [1 << (L - 1) for L in fine])},
            "S1": {"kind": "small", "partition": "coarse",
                   "patterns": _patterns(rng, coarse, [4, 2, 1, 1])},
            "S2": {"kind": "small", "partition": "wide",
                   "patterns": _patterns(rng, wide, [2, 1, 1])},
            "N": {"kind": "null", "first": "S1", "second": "S2"},
        },
        requests=[
            {"op": "shrink_perfect_meager", "cover": "F", "tree": "Q",
             "uniform": False},
            {"op": "shrink_perfect_e", "cover": "E", "tree": "Q",
             "uniform": False},
            {"op": "shrink_perfect_small", "cover": "S1", "tree": "Q",
             "uniform": False},
            {"op": "shrink_perfect_null", "cover": "N", "tree": "Q",
             "uniform": False},
            {"op": "shrink_mn", "meager": "F", "null": "N", "tree": "Q",
             "kind": "perfect"},
        ],
    )]


def splitting_folds(rng: random.Random) -> list[tuple[str, str]]:
    """Fresh splitting trees at horizon 14; the E builds have 1024 leaves."""
    horizon = 14
    unit = [1] * horizon
    covers = {}
    requests = []
    for t in (0, 2, 4, 6):
        covers[f"E{t}"] = {
            "kind": "e", "partition": "unit", "threshold": t,
            "patterns": _patterns(rng, unit, [1] * horizon),
        }
        requests.append({"op": "build_splitting_e", "cover": f"E{t}"})
    points = {}
    for t in (0, 4):
        points[f"x{t}"] = _bits(rng, horizon)
        covers[f"F{t}"] = {"kind": "meager", "x": f"x{t}",
                           "partition": "unit", "threshold": t}
        requests.append({"op": "build_splitting_meager", "cover": f"F{t}"})
    return [_scenario(
        "splitting-folds", horizon,
        partitions={"unit": {"lengths": unit}},
        points=points, covers=covers, requests=requests,
    )]


def silver_exhaustive(rng: random.Random) -> list[tuple[str, str]]:
    """Silver tree through meager covers whose sources reach 2^14 members,
    plus one tampered copy that must fail (the negative control)."""
    horizon = 14
    # at least one free coordinate in every coarse pair, so the shrunk tree
    # always keeps 7 free coordinates (128 branches)
    free = []
    for k in range(horizon // 2):
        pair = [2 * k, 2 * k + 1]
        free.extend(sorted(rng.sample(pair, rng.choice((1, 2)))))
    covers = {}
    requests = []
    for t in (10, 12, 13, 14):
        covers[f"F{t}"] = {"kind": "meager", "x": "xF", "partition": "unit",
                           "threshold": t}
        requests.append({"op": "shrink_silver_meager", "cover": f"F{t}",
                         "tree": "T"})
    requests.append({"op": "shrink_silver_meager", "cover": "F10", "tree": "T",
                     "tamper": {"bundle": "meager", "fold": 1, "block": 6}})
    return [_scenario(
        "silver-exhaustive", horizon,
        partitions={"unit": {"lengths": [1] * horizon}},
        points={"xF": _bits(rng, horizon), "xT": _bits(rng, horizon)},
        index_sets={"A": free},
        trees={"T": {"kind": "silver", "x": "xT", "free": "A"}},
        covers=covers, requests=requests,
    )]


def bundled(rng: random.Random, root: Path) -> list[tuple[str, str]]:
    """The scenarios shipped in the package, in a seed-shuffled order."""
    paths = sorted((root / "src" / "treesum" / "scenarios").glob("*.json"))
    if not paths:
        raise FileNotFoundError("no bundled scenarios under src/treesum/scenarios")
    rng.shuffle(paths)
    return [(p.stem, p.read_text(encoding="utf-8")) for p in paths]


def generate(name: str, seed: int, root: Path) -> list[tuple[str, str]]:
    rng = random.Random(f"{name}:{seed}")
    if name == "perfect-full":
        return perfect_full(rng)
    if name == "splitting-folds":
        return splitting_folds(rng)
    if name == "silver-exhaustive":
        return silver_exhaustive(rng)
    if name == "bundled":
        return bundled(rng, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
