"""Command-line interface: transform, solve, net, verify.

File formats
------------
Game files are JSON documents::

    {"n": 2, "c": 2, "k": 2,
     "benefit":       [{"set": [1], "value": 1.0}, ...],
     "cost_attacker": [...],
     "cost_defender": [...]}

Sets are strictly ascending 1-based target lists; unspecified subsets default
to 0; duplicate sets are rejected. ``c`` and ``k`` default to ``n``.

Reports are JSON documents::

    {"value": ..., "defender": [{"set": [...], "prob": ...}, ...],
     "attacker": [...], "support_size": ..., "iterations": ...,
     "gaps": [attacker, defender], "error_bound": ...}

``error_bound`` appears only for network solves. Identical inputs and flags
produce byte-identical reports.

Exit codes: 0 success, 1 usage or parse error, 2 capacity or unverifiable,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bits import mask_of, targets_of
from .compact import (CompactGame, build_compact_game, coordinates, interaction_coefficients,
                      payoff_block)
from .equilibrium import SolverConfig, best_response_gap, solve_bruteforce, solve_compact
from .errors import CapacityError, FormatError, SetGameError, SolverFailureError
from .games import GameSpec, NORMAL_FORM_GUARD, expand_normal_form
from .network import FailureOperator, Network, ValueFunction, network_from_text, solve_network_game
from .setfunctions import GroundSet, SetFunction

VERIFY_TOLERANCE = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# game files


def _is_int(value) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_entries(raw, n: int, label: str) -> dict[int, float]:
    if not isinstance(raw, list):
        raise FormatError(f"{label} must be a list of set/value records")
    entries: dict[int, float] = {}
    for i, record in enumerate(raw):
        where = f"{label}[{i}]"
        if not isinstance(record, dict) or set(record) != {"set", "value"}:
            raise FormatError(f"{where} must be an object with 'set' and 'value'")
        targets = record["set"]
        if not isinstance(targets, list) or not all(_is_int(t) for t in targets):
            raise FormatError(f"{where}.set must be a list of integers")
        if any(not 1 <= t <= n for t in targets):
            raise FormatError(f"{where}.set has targets outside [1, {n}]")
        if targets != sorted(set(targets)):
            raise FormatError(f"{where}.set must be strictly ascending")
        value = record["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise FormatError(f"{where}.value must be a number")
        mask = mask_of(targets)
        if mask in entries:
            raise FormatError(f"{where}.set duplicates an earlier set")
        entries[mask] = float(value)
    return entries


def parse_game_json(text: str) -> GameSpec:
    """Parse a game file; raises :class:`FormatError` with location context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise FormatError("game file must be a JSON object")
    unknown = set(doc) - {"n", "c", "k", "benefit", "cost_attacker", "cost_defender"}
    if unknown:
        raise FormatError(f"unknown keys {sorted(unknown)} in game file")
    if "n" not in doc or not _is_int(doc["n"]) or doc["n"] < 1:
        raise FormatError("game file needs a positive integer 'n'")
    n = doc["n"]
    caps = {}
    for key in ("c", "k"):
        value = doc.get(key, n)
        if not _is_int(value) or not 0 <= value <= n:
            raise FormatError(f"'{key}' must be an integer in [0, {n}]")
        caps[key] = value
    ground = GroundSet(n)
    benefit = SetFunction(ground, _parse_entries(doc.get("benefit", []), n, "benefit"))
    cost_a = SetFunction(ground, _parse_entries(doc.get("cost_attacker", []), n, "cost_attacker"))
    cost_d = SetFunction(ground, _parse_entries(doc.get("cost_defender", []), n, "cost_defender"))
    return GameSpec(ground=ground, benefit=benefit, attacker_cost=cost_a,
                    defender_cost=cost_d, attacker_cap=caps["c"], defender_cap=caps["k"])


def _entries_to_json(fn: SetFunction) -> list[dict]:
    return [{"set": list(targets_of(mask)), "value": value}
            for mask, value in sorted(fn.entries.items())]


def format_game_json(spec: GameSpec) -> str:
    doc = {
        "n": spec.n,
        "c": spec.attacker_cap,
        "k": spec.defender_cap,
        "benefit": _entries_to_json(spec.benefit),
        "cost_attacker": _entries_to_json(spec.attacker_cost),
        "cost_defender": _entries_to_json(spec.defender_cost),
    }
    return json.dumps(doc, indent=2) + "\n"


def _mixture_to_json(mixture) -> list[dict]:
    return [{"set": list(targets_of(mask)), "prob": prob} for mask, prob in mixture.atoms]


def report_to_dict(report, gaps, error_bound=None) -> dict:
    doc = {
        "value": report.value,
        "defender": _mixture_to_json(report.defender),
        "attacker": _mixture_to_json(report.attacker),
        "support_size": report.support_size,
        "iterations": report.iterations,
        "gaps": [gaps[0], gaps[1]],
    }
    if error_bound is not None:
        doc["error_bound"] = error_bound
    return doc


def _write_report(doc: dict, out_path: str | None) -> None:
    payload = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def _format_number(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)  # exact mode: Fractions print as p/q


def _cmd_transform(args) -> int:
    spec = parse_game_json(_read(args.game))
    coeffs = interaction_coefficients(spec, exact=args.exact)
    support = CompactGame.from_coefficients(coeffs, spec.attacker_cap, spec.defender_cap).support
    print(f"support size {support.size} over n={spec.n}")
    print("set : benefit / attacker-cost / defender-cost-coordinates")
    for mask in support.members:
        name = "{" + ",".join(map(str, targets_of(mask))) + "}"
        print(f"{name} : " + " / ".join(_format_number(t.value(mask)) for t in coeffs))
    return 0


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _cmd_solve(args) -> int:
    spec = parse_game_json(_read(args.game))
    trace: list | None = [] if args.trace else None
    game = build_compact_game(spec)
    report = solve_compact(spec, SolverConfig(eps_gap=args.tol), trace=trace, game=game)
    if not report.converged:
        raise SolverFailureError("constraint generation did not converge")
    gaps = best_response_gap(spec, report, game)
    if args.trace:
        with open(args.trace, "w") as fh:
            for record in trace:
                fh.write(json.dumps(record) + "\n")
    _write_report(report_to_dict(report, gaps), args.out)
    return 0


def _parse_network_file(path: str) -> Network:
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
        if not isinstance(doc, dict) or "nodes" not in doc:
            raise FormatError("graph JSON needs a 'nodes' field")
        edges = doc.get("edges", [])
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges):
            raise FormatError("graph 'edges' must be a list of [u, v] pairs")
        values = doc.get("values")
        if values is not None and not isinstance(values, list):
            raise FormatError("graph 'values' must be a list of numbers")
        try:
            return Network(
                node_count=doc["nodes"],
                edges=tuple((u, v) for u, v in edges),
                node_values=tuple(values) if values is not None else None,
            )
        except SetGameError as exc:
            raise FormatError(str(exc)) from None
    return network_from_text(text)


def _histogram(magnitudes: list[float], bins: int = 10) -> list[str]:
    if not magnitudes:
        return ["  (no nonzero interaction coefficients)"]
    top = max(magnitudes)
    counts = [0] * bins
    for m in magnitudes:
        idx = min(int(bins * m / top), bins - 1)
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        lo, hi = top * i / bins, top * (i + 1) / bins
        bar = "#" * (0 if peak == 0 else round(40 * count / peak))
        lines.append(f"  [{lo:10.4g}, {hi:10.4g}) {count:6d} {bar}")
    return lines


def _cmd_net(args) -> int:
    net = _parse_network_file(args.graph)
    value_fn = ValueFunction(kind=args.value_fn)
    failure = FailureOperator(
        kind=args.failure,
        threshold=args.cascade_threshold if args.failure == "threshold_cascade" else None,
    )
    report, approx = solve_network_game(net, value_fn, failure, args.c, args.eps_c,
                                        config=SolverConfig(eps_gap=args.tol), defender_cap=args.k)
    if not report.converged:
        raise SolverFailureError("constraint generation did not converge")
    gaps = best_response_gap(approx.spec, report, approx.game)

    magnitudes = sorted(abs(float(v)) for v in approx.game.benefit_vec if v != 0)
    print(f"approximation: dropped {approx.dropped_terms} coefficient(s) at eps_c={approx.eps_c:g}")
    print(f"value error bound: {approx.error_bound:g}")
    print(f"components ({len(approx.components)}):")
    for comp in approx.components:
        names = ["{" + ",".join(map(str, targets_of(m))) + "}" for m in comp]
        print("  " + " ".join(names))
    print("surviving |coefficient| histogram:")
    for line in _histogram(magnitudes):
        print(line)
    _write_report(report_to_dict(report, gaps, error_bound=approx.error_bound), args.out)
    return 0


def _cmd_verify(args) -> int:
    spec = parse_game_json(_read(args.game))
    na, nd = spec.strategy_counts()
    if na * nd > NORMAL_FORM_GUARD:
        print(f"unverifiable at this size: {na}x{nd} normal form exceeds the guard")
        return 2
    reference = solve_bruteforce(spec)
    game = build_compact_game(spec)
    compact_report = solve_compact(spec, game=game)
    value_gap = abs(reference.value - compact_report.value)

    nf = expand_normal_form(spec)
    P = coordinates(nf.attacker_strategies, game.support, "attacker")
    Q = coordinates(nf.defender_strategies, game.support, "defender")
    identity_gap = float(np.max(np.abs(payoff_block(game, P, Q) - nf.matrix)))

    print(f"value: brute force {reference.value:.9g}, constraint generation {compact_report.value:.9g}")
    print(f"max value discrepancy: {value_gap:.3g}")
    print(f"max payoff decomposition discrepancy: {identity_gap:.3g}")
    if max(value_gap, identity_gap) > VERIFY_TOLERANCE:
        print("FAIL")
        return 3
    print("OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="setgames", description="Set-function security game solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="print interaction coefficients and the support set")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--exact", action="store_true", help="rational arithmetic")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("solve", help="solve a game by constraint generation")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--tol", type=_positive_float, default="1e-7",
                   help="best-response gap tolerance")
    p.add_argument("--trace", metavar="FILE", help="write one JSON record per round")
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("net", help="induce, approximate, and solve a network game")
    p.add_argument("graph", help="edge list ('nodes N' header) or graph JSON file")
    p.add_argument("--value-fn", default="connected_pairs", choices=list(ValueFunction.KINDS),
                   dest="value_fn")
    p.add_argument("--failure", default="node_removal", choices=list(FailureOperator.KINDS))
    p.add_argument("--cascade-threshold", type=float, default=0.5,
                   help="surviving-neighbor fraction below which a node fails")
    p.add_argument("--c", type=int, required=True, help="attacker cardinality cap")
    p.add_argument("--k", type=int, help="defender cardinality cap (default: every node)")
    p.add_argument("--eps-c", type=float, required=True, dest="eps_c",
                   help="coefficient magnitude threshold")
    p.add_argument("--tol", type=_positive_float, default="1e-7")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("verify", help="cross-check the two solvers and the payoff decomposition")
    p.add_argument("game", help="game JSON file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except SetGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
