"""Scenario files, request dispatch, and report assembly.

A scenario is a JSON document naming partitions, points, index sets, trees,
and covers, plus a list of construction requests wired together by those
names.  Running a scenario executes each request, replays its stored
certificate checks, optionally cross-checks with the exhaustive oracle, and
folds everything into one report with a single overall pass flag.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .bits import Block, Partition, PatternSet, Point, restrict
from .covers import (
    Certificate,
    ClosedNullChain,
    ECover,
    MeagerCover,
    NullCover,
    SmallCover,
    Stage,
    admitted,
    e_density_audit,
)
# the operations are called by name through _OPS, see _run_request
from .constructions import (
    DEFAULT_FOLDS,
    ShrinkResult,
    build_splitting_e,
    build_splitting_meager,
    build_splitting_null,
    shrink_mn,
    shrink_perfect_e,
    shrink_perfect_meager,
    shrink_perfect_null,
    shrink_perfect_small,
    shrink_silver_e,
    shrink_silver_meager,
    shrink_silver_null,
    shrink_silver_small,
    simplify_e_cover,
)
from .oracle import (
    DEFAULT_HORIZON_CAP,
    BudgetExceeded,
    certify_request,
    density_audit_table,
    exhaustive_counterexample,
    pattern_nfold,
)
from .trees import PrefixTree, SilverTree, classify, tree_restrict

log = logging.getLogger(__name__)


class ScenarioError(ValueError):
    """Raised for malformed or unresolvable scenario input."""


@dataclass(frozen=True)
class Tamper:
    bundle: str
    fold: int
    block: int


@dataclass(frozen=True)
class Request:
    op: str
    args: dict
    folds: tuple[int, ...] | None
    tamper: Tamper | None


@dataclass(frozen=True)
class Scenario:
    name: str
    horizon: int
    partitions: dict
    points: dict
    index_sets: dict
    trees: dict
    covers: dict
    requests: tuple[Request, ...]


@dataclass(frozen=True)
class RunFlags:
    folds: tuple[int, ...] = DEFAULT_FOLDS
    horizon_cap: int = DEFAULT_HORIZON_CAP
    exhaustive: bool = True
    deterministic: bool = False


@dataclass(frozen=True)
class Report:
    name: str
    passed: bool
    data: dict


# ---------------------------------------------------------------------------
# loading

def _fraction(text, where: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise ScenarioError(f"{where}: bad rational {text!r}: {err}") from None


def _int(value, field: str, where: str = "", least: int = 0) -> int:
    """An integer field of at least `least`, read strictly: bool, floats
    (2.0 included) and numeric strings are input errors."""
    if type(value) is not int or value < least:
        prefix = f"{where}: " if where else ""
        raise ScenarioError(
            f"{prefix}bad {field} {value!r}: expected an integer of at least "
            f"{least}"
        )
    return value


def _str(value, field: str, where: str = "") -> str:
    """A string field, read strictly: no other JSON value is coerced."""
    if not isinstance(value, str):
        prefix = f"{where}: " if where else ""
        raise ScenarioError(f"{prefix}bad {field} {value!r}: expected a string")
    return value


def _bit_string(text, where: str) -> str:
    if not isinstance(text, str) or not text or any(c not in "01" for c in text):
        raise ScenarioError(f"{where}: expected a nonempty 0/1 string, got {text!r}")
    return text


def _load_partition(name: str, spec, horizon: int) -> Partition:
    where = f"partition {name!r}"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    if "lengths" not in spec and "blocks" not in spec:
        raise ScenarioError(f"{where}: needs 'lengths' or 'blocks'")
    try:
        if "lengths" in spec:
            part = Partition.from_lengths(
                [_int(n, "length", where, 1) for n in spec["lengths"]]
            )
        else:
            part = Partition(tuple(
                Block(_int(lo, "block bound", where),
                      _int(hi, "block bound", where))
                for lo, hi in spec["blocks"]
            ))
    except ScenarioError:
        raise
    except (ValueError, TypeError) as err:
        raise ScenarioError(f"{where}: {err}") from None
    if part.horizon != horizon:
        raise ScenarioError(
            f"{where}: horizon mismatch, covers [0, {part.horizon}) "
            f"but the scenario horizon is {horizon}"
        )
    return part


def _section(raw: dict, key: str, kind: type):
    """A top-level section, empty when absent; `kind` is dict or list."""
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ScenarioError(f"section {key!r}: expected {shape}")
    return value


def _ref(table: dict, name, kind: str, where: str):
    if not isinstance(name, str) or name not in table:
        raise ScenarioError(f"{where}: unresolved {kind} reference {name!r}")
    return table[name]


def _load_tree(name: str, spec, scn_points, scn_sets, horizon: int):
    where = f"tree {name!r}"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    kind = spec.get("kind")
    if kind == "silver":
        x = _ref(scn_points, spec.get("x"), "point", where)
        free = _ref(scn_sets, spec.get("free"), "index set", where)
        try:
            return SilverTree(x, frozenset(free))
        except ValueError as err:
            raise ScenarioError(f"{where}: {err}") from None
    if kind == "full":
        try:
            return PrefixTree.full(horizon)
        except ValueError as err:
            raise ScenarioError(f"{where}: {err}") from None
    if kind == "prefix":
        leaves = spec.get("leaves")
        if not isinstance(leaves, list):
            raise ScenarioError(f"{where}: prefix tree needs a 'leaves' list")
        for s in leaves:
            if len(_bit_string(s, where)) != horizon:
                raise ScenarioError(
                    f"{where}: horizon mismatch, leaf {s!r} has length "
                    f"{len(s)}, expected {horizon}"
                )
        try:
            return PrefixTree.from_leaves(leaves)
        except ValueError as err:
            raise ScenarioError(f"{where}: {err}") from None
    raise ScenarioError(f"{where}: unknown tree kind {kind!r}")


def _load_patterns(partition: Partition, raw, where: str) -> tuple[PatternSet, ...]:
    if not isinstance(raw, list) or len(raw) != len(partition):
        raise ScenarioError(
            f"{where}: needs one pattern list per block "
            f"({len(partition)} blocks)"
        )
    out = []
    for n, block_pats in enumerate(raw):
        block = partition[n]
        if not isinstance(block_pats, list):
            raise ScenarioError(
                f"{where}: block {n} patterns must be a list of 0/1 strings, "
                f"got {block_pats!r}"
            )
        words = [_bit_string(w, where) for w in block_pats]
        for w in words:
            if len(w) != block.length:
                raise ScenarioError(
                    f"{where}: word {w!r} has length {len(w)}, but block "
                    f"{n} is [{block.lo}, {block.hi})"
                )
        out.append(PatternSet.from_bits(block, words))
    return tuple(out)


def _load_cover(name: str, spec, scn, horizon: int):
    where = f"cover {name!r}"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    kind = spec.get("kind")
    try:
        if kind == "meager":
            x = _ref(scn["points"], spec.get("x"), "point", where)
            part = _ref(scn["partitions"], spec.get("partition"), "partition", where)
            return MeagerCover(
                x, part, _int(spec.get("threshold", 0), "threshold", where)
            )
        if kind == "small":
            part = _ref(scn["partitions"], spec.get("partition"), "partition", where)
            return SmallCover(part, _load_patterns(part, spec.get("patterns"), where))
        if kind == "null":
            first = _ref(scn["covers"], spec.get("first"), "cover", where)
            second = _ref(scn["covers"], spec.get("second"), "cover", where)
            if not isinstance(first, SmallCover) or not isinstance(second, SmallCover):
                raise ScenarioError(f"{where}: null cover parts must be small covers")
            return NullCover(first, second)
        if kind == "e":
            part = _ref(scn["partitions"], spec.get("partition"), "partition", where)
            return ECover(
                part,
                _load_patterns(part, spec.get("patterns"), where),
                _int(spec.get("threshold", 0), "threshold", where),
            )
        if kind == "chain":
            raw_stages = spec.get("stages", [])
            if not isinstance(raw_stages, list):
                raise ScenarioError(
                    f"{where}: stages must be a list of stage objects, got "
                    f"{raw_stages!r}"
                )
            stages = []
            for i, st in enumerate(raw_stages):
                at = f"{where} stage {i}"
                if not isinstance(st, dict):
                    raise ScenarioError(
                        f"{at}: expected an object with 'nodes' and 'measure', "
                        f"got {st!r}"
                    )
                for field in ("nodes", "measure"):
                    if field not in st:
                        raise ScenarioError(f"{at}: missing {field!r}")
                if not isinstance(st["nodes"], list):
                    raise ScenarioError(
                        f"{at}: nodes must be a list of 0/1 strings, got "
                        f"{st['nodes']!r}"
                    )
                nodes = tuple(_bit_string(s, at) for s in st["nodes"])
                for s in nodes:
                    if len(s) > horizon:
                        raise ScenarioError(
                            f"{at}: horizon mismatch, node {s!r} is longer than "
                            f"{horizon}"
                        )
                stages.append(Stage(nodes, _fraction(st["measure"], at)))
            return ClosedNullChain(tuple(stages))
    except ScenarioError:
        raise
    except (ValueError, TypeError, KeyError) as err:
        raise ScenarioError(f"{where}: {err}") from None
    raise ScenarioError(f"{where}: unknown cover kind {kind!r}")


# Per operation: its arguments in call order, each a scenario reference
# (request key, accepted types), the request field "uniform" or "kind", or
# the run's "folds".  The callable is looked up by name when a request runs,
# so rebinding a module attribute reaches it.
_OPS = {
    "shrink_silver_meager": (("cover", MeagerCover), ("tree", SilverTree), "folds"),
    "shrink_perfect_meager": (
        ("cover", MeagerCover), ("tree", PrefixTree), "uniform", "folds",
    ),
    "build_splitting_meager": (("cover", MeagerCover), "folds"),
    "shrink_silver_small": (("cover", SmallCover), ("tree", SilverTree), "folds"),
    "shrink_silver_null": (("cover", NullCover), ("tree", SilverTree), "folds"),
    "shrink_perfect_small": (
        ("cover", SmallCover), ("tree", PrefixTree), "uniform", "folds",
    ),
    "shrink_perfect_null": (
        ("cover", NullCover), ("tree", PrefixTree), "uniform", "folds",
    ),
    "build_splitting_null": (("cover", NullCover), "folds"),
    "shrink_mn": (
        ("meager", MeagerCover),
        ("null", NullCover),
        ("tree", (SilverTree, PrefixTree)),
        "kind",
        "folds",
    ),
    "simplify_e_cover": (("chain", ClosedNullChain),),
    "shrink_silver_e": (("cover", ECover), ("tree", SilverTree), "folds"),
    "shrink_perfect_e": (
        ("cover", ECover), ("tree", PrefixTree), "uniform", "folds",
    ),
    "build_splitting_e": (("cover", ECover), "folds"),
}


def _load_folds(raw, where: str) -> tuple[int, ...]:
    if (
        not isinstance(raw, list)
        or not raw
        or any(type(b) is not int or b < 0 for b in raw)
    ):
        raise ScenarioError(
            f"{where}: folds must be a nonempty list of nonnegative integers, "
            f"got {raw!r}"
        )
    return tuple(raw)


def _load_request(i: int, spec, trees: dict, covers: dict) -> Request:
    where = f"request {i}"
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where}: expected an object")
    op = spec.get("op")
    if not isinstance(op, str) or op not in _OPS:
        raise ScenarioError(f"{where}: unknown operation name {op!r}")
    args = {}
    for arg in _OPS[op]:
        if arg == "uniform":
            uniform = spec.get("uniform", False)
            if type(uniform) is not bool:
                raise ScenarioError(
                    f"{where}: uniform must be true or false, got {uniform!r}"
                )
            args[arg] = uniform
        elif arg == "kind":
            kind = spec.get("kind")
            if kind not in ("silver", "perfect", "uniform"):
                raise ScenarioError(f"{where}: unknown kind {kind!r}")
            args[arg] = kind
        elif arg != "folds":
            key, want = arg
            table = trees if key == "tree" else covers
            obj = _ref(table, spec.get(key), key, where)
            if not isinstance(obj, want):
                wanted = (
                    " or ".join(w.__name__ for w in want)
                    if isinstance(want, tuple)
                    else want.__name__
                )
                raise ScenarioError(
                    f"{where}: {key} {spec.get(key)!r} is not a {wanted}"
                )
            args[key] = obj
    for field in ("folds", "tamper"):
        if field in spec and "folds" not in _OPS[op]:
            raise ScenarioError(f"{where}: {op} takes no folds, so no {field!r}")
    folds = _load_folds(spec["folds"], where) if "folds" in spec else None
    tamper = None
    if "tamper" in spec:
        t = spec["tamper"]
        if not isinstance(t, dict):
            raise ScenarioError(
                f"{where}: bad tamper spec {t!r}: expected an object"
            )
        try:
            tamper = Tamper(
                _str(t["bundle"], "tamper bundle", where),
                _int(t["fold"], "tamper fold", where),
                _int(t["block"], "tamper block", where),
            )
        except KeyError as err:
            raise ScenarioError(f"{where}: bad tamper spec: {err}") from None
    return Request(op, args, folds, tamper)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(f"cannot read {path}: {err}") from None
    return parse_scenario(text, name_hint=path.stem)


def parse_scenario(text: str, name_hint: str = "scenario") -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if "horizon" not in raw:
        raise ScenarioError("scenario is missing 'horizon'")
    horizon = _int(raw["horizon"], "horizon", least=1)
    name = _str(raw.get("name", name_hint), "name")

    partitions = {
        str(k): _load_partition(k, v, horizon)
        for k, v in _section(raw, "partitions", dict).items()
    }
    points = {}
    for k, v in _section(raw, "points", dict).items():
        s = _bit_string(v, f"point {k!r}")
        if len(s) != horizon:
            raise ScenarioError(
                f"point {k!r}: horizon mismatch, length {len(s)} != {horizon}"
            )
        points[str(k)] = Point.from_bits(s)
    index_sets = {}
    for k, v in _section(raw, "index_sets", dict).items():
        if not isinstance(v, list) or any(type(i) is not int for i in v):
            raise ScenarioError(
                f"index set {k!r}: expected a list of integer coordinates"
            )
        coords = frozenset(v)
        if any(i < 0 or i >= horizon for i in coords):
            raise ScenarioError(
                f"index set {k!r}: coordinate out of range [0, {horizon})"
            )
        index_sets[str(k)] = coords
    trees = {
        str(k): _load_tree(k, v, points, index_sets, horizon)
        for k, v in _section(raw, "trees", dict).items()
    }
    scn = {"partitions": partitions, "points": points, "covers": {}}
    for k, v in _section(raw, "covers", dict).items():
        scn["covers"][str(k)] = _load_cover(k, v, scn, horizon)
    requests = tuple(
        _load_request(i, spec, trees, scn["covers"])
        for i, spec in enumerate(_section(raw, "requests", list))
    )
    if not requests:
        raise ScenarioError("scenario has no requests")
    return Scenario(
        name, horizon, partitions, points, index_sets, trees,
        scn["covers"], requests,
    )


# ---------------------------------------------------------------------------
# running

def list_ops() -> tuple[str, ...]:
    return tuple(sorted(_OPS))


def _apply_tamper(request_obj, tamper: Tamper):
    """Swap the fold's witness cover for one that misses a word of the fold
    image on the block, so the certificate must fail there: the least
    source word plus the least tree pattern.  An E or small block drops the
    word, a meager block is recentred on it."""
    fold, n = tamper.fold, tamper.block
    if n >= len(request_obj.partition):
        raise ScenarioError(f"tamper block {n} out of range")
    per_fold = dict(request_obj.per_fold)
    cover = per_fold.get(fold)
    if cover is None:
        raise ScenarioError(f"tamper fold {fold} not requested")
    if n < getattr(cover, "threshold", 0):
        raise ScenarioError(
            f"tamper block {n} is below the fold {fold} "
            "threshold; the certificate would not consult it"
        )
    blk = request_obj.partition[n]
    lo, hi = request_obj.ranges[n]
    hit = 0
    for j in range(lo, hi):
        factor = admitted(request_obj.source, j)
        if not factor.values:
            raise ScenarioError("tamper target block has an empty fold image")
        hit = hit << factor.block.length | min(factor.values)
    hit ^= min(pattern_nfold(tree_restrict(request_obj.tree, blk), fold).values)
    if isinstance(cover, MeagerCover):
        moved = (restrict(cover.xF, blk).value ^ hit) << (cover.horizon - blk.hi)
        per_fold[fold] = replace(cover, xF=cover.xF ^ Point(cover.horizon, moved))
    else:
        patterns = list(cover.patterns)
        patterns[n] = PatternSet(blk, patterns[n].values - {hit})
        per_fold[fold] = replace(cover, patterns=tuple(patterns))
    return replace(request_obj, per_fold=tuple(per_fold.items()))


def _tree_entry(result: ShrinkResult) -> dict:
    prefix = result.tree_as_prefix()
    flags = classify(prefix)
    entry = {
        "horizon": prefix.horizon,
        "leaf_count": len(prefix.leaves),
        "classification": {
            "perfect": flags.perfect,
            "uniformly_perfect": flags.uniformly_perfect,
            "silver": flags.silver,
            "splitting_at_horizon": flags.splitting_at_horizon,
        },
    }
    if isinstance(result.tree_out, SilverTree):
        entry["free"] = sorted(result.tree_out.free)
    return entry


def _certificate_entry(cert: Certificate) -> dict:
    return {
        "passed": cert.passed,
        "thresholds": {str(b): t for b, t in cert.thresholds},
        "checks": len(cert.checks),
        "failed_blocks": sorted(
            [c.fold, c.block_index] for c in cert.checks if not c.passed
        ),
    }


def _witness_entries(witnesses, tamper, flags):
    entries = []
    request_pass = True
    for request_obj in witnesses:
        tampered = tamper is not None and tamper.bundle == request_obj.label
        try:
            cert = certify_request(
                _apply_tamper(request_obj, tamper) if tampered else request_obj
            )
        except BudgetExceeded as err:
            entries.append({
                "label": request_obj.label,
                "kind": request_obj.kind,
                "error": f"oracle budget exceeded: {err}",
            })
            request_pass = False
            continue
        request_pass = request_pass and cert.passed
        entry = {
            "label": request_obj.label,
            "kind": request_obj.kind,
            "uniform_witness": request_obj.uniform_witness,
            "tampered": tampered,
            "certificate": _certificate_entry(cert),
            "covers": [
                {
                    "fold": b,
                    "threshold": getattr(cover, "threshold", None),
                    "pattern_counts": (
                        [len(J) for J in cover.patterns]
                        if hasattr(cover, "patterns")
                        else None
                    ),
                }
                for b, cover in request_obj.per_fold
            ],
        }
        rows = density_audit_table(request_obj)
        if rows:
            entry["audits"] = [
                {
                    "fold": r.fold,
                    "kind": r.kind,
                    "value": str(r.value),
                    "bound": str(r.bound),
                    "passed": r.passed,
                }
                for r in rows
            ]
            request_pass = request_pass and all(r.passed for r in rows)
        source, tree = request_obj.point_source, request_obj.tree
        if (
            source is not None
            and flags.exhaustive
            and tree.horizon <= flags.horizon_cap
            and not tampered
        ):
            try:
                found = exhaustive_counterexample(
                    source, tree, request_obj.per_fold, cap=flags.horizon_cap
                )
            except BudgetExceeded as err:
                entry["exhaustive_error"] = f"oracle budget exceeded: {err}"
                request_pass = False
            else:
                entry["exhaustive"] = {str(b): c is None for b, c in found.items()}
                failed = {b: c for b, c in found.items() if c is not None}
                request_pass = request_pass and not failed
                if failed:
                    entry["exhaustive_counterexamples"] = {
                        str(b): {
                            "point": c.point.bits(),
                            "sum": c.sum.bits(),
                            "block": [c.block.lo, c.block.hi],
                        }
                        for b, c in failed.items()
                    }
        entries.append(entry)
    return entries, request_pass


def _run_request(i: int, req: Request, flags: RunFlags) -> tuple[dict, bool]:
    folds = req.folds if req.folds is not None else flags.folds
    entry = {"index": i, "op": req.op}
    t0 = time.perf_counter()
    names = (arg if isinstance(arg, str) else arg[0] for arg in _OPS[req.op])
    call_args = [folds if name == "folds" else req.args[name] for name in names]
    try:
        result = globals()[req.op](*call_args)
    except BudgetExceeded as err:
        entry["error"] = f"oracle budget exceeded: {err}"
        return entry, False
    except ValueError as err:
        raise ScenarioError(f"request {i} ({req.op}): {err}") from None
    if isinstance(result, ECover):
        value, ok = e_density_audit(result)
        entry["cover"] = {
            "blocks": [[b.lo, b.hi] for b in result.partition.blocks],
            "threshold": result.threshold,
            "pattern_counts": [len(J) for J in result.patterns],
            "max_density": str(value),
            "audit_passed": ok,
        }
        passed = ok
    else:
        if req.tamper and req.tamper.bundle not in {
            w.label for w in result.witnesses
        }:
            raise ScenarioError(
                f"request {i}: tamper names unknown bundle {req.tamper.bundle!r}"
            )
        entry["tree"] = _tree_entry(result)
        entry["provenance"] = {
            "op": result.provenance.op,
            "details": dict(result.provenance.details),
            "warnings": list(result.provenance.warnings),
        }
        witness_entries, passed = _witness_entries(
            result.witnesses, req.tamper, flags
        )
        entry["witnesses"] = witness_entries
    entry["passed"] = passed
    if not flags.deterministic:
        entry["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return entry, passed


def run(scenario: Scenario, flags: RunFlags = RunFlags()) -> Report:
    entries = []
    overall = True
    for i, req in enumerate(scenario.requests):
        entry, ok = _run_request(i, req, flags)
        entries.append(entry)
        overall = overall and ok
    data = {
        "scenario": scenario.name,
        "horizon": scenario.horizon,
        "flags": {
            "folds": list(flags.folds),
            "horizon_cap": flags.horizon_cap,
            "exhaustive": flags.exhaustive,
        },
        "requests": entries,
        "passed": overall,
    }
    if not flags.deterministic:
        data["generated_at"] = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
    return Report(scenario.name, overall, data)


def render_report(report: Report) -> str:
    return json.dumps(report.data, indent=2, sort_keys=True) + "\n"


def emit(report: Report, path) -> None:
    Path(path).write_text(render_report(report), encoding="utf-8")


# ---------------------------------------------------------------------------
# bundled scenarios

def bundled_scenario_names() -> tuple[str, ...]:
    root = resources.files("treesum") / "scenarios"
    return tuple(
        sorted(p.name[: -len(".json")] for p in root.iterdir()
               if p.name.endswith(".json"))
    )


def load_bundled(name: str) -> Scenario:
    root = resources.files("treesum") / "scenarios"
    candidate = root / f"{name}.json"
    try:
        text = candidate.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise ScenarioError(
            f"no bundled scenario named {name!r}; "
            f"available: {', '.join(bundled_scenario_names())}"
        ) from None
    return parse_scenario(text, name_hint=name)


def run_selftest(flags: RunFlags = RunFlags(deterministic=True)) -> tuple[bool, list[str]]:
    """Run every bundled scenario; returns overall pass and one line each."""
    lines = []
    overall = True
    for name in bundled_scenario_names():
        report = run(load_bundled(name), flags)
        lines.append(f"{name}: {'pass' if report.passed else 'FAIL'}")
        overall = overall and report.passed
    return overall, lines
