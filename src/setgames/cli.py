"""Command-line interface: transform, solve, net, verify.

File formats
------------
Game files are JSON documents::

    {"n": 2, "c": 2, "k": 2,
     "benefit":       [{"set": [1], "value": 1.0}, ...],
     "cost_attacker": [...],
     "cost_defender": [...]}

Sets are strictly ascending 1-based target lists; unspecified subsets default
to 0; duplicate sets are rejected. ``c`` and ``k`` default to ``n``. Graph files
(``net``) are read by :func:`setgames.network.network_from_text`: JSON or an edge list.

Reports are JSON documents::

    {"value": ..., "defender": [{"set": [...], "prob": ...}, ...],
     "attacker": [...], "support_size": ..., "iterations": ...,
     "gaps": [attacker, defender], "error_bound": ...}

``error_bound`` appears only for network solves. Identical inputs and flags
produce byte-identical reports.

Exit codes: 0 success, 1 usage or parse error or a file that cannot be read
or written (``error: ...`` on stderr), 2 capacity or unverifiable, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bits import mask_of, targets_of
from .compact import build_compact_game, coordinates, payoff_block
from .equilibrium import SolverConfig, best_response_gap, solve_compact
from .errors import CapacityError, FormatError, InvalidInputError, SetGameError, SolverFailureError
from .games import GameSpec, expand_normal_form
from .lp import solve_matrix_game
from .network import FailureOperator, ValueFunction, network_from_text, solve_network_game
from .setfunctions import GroundSet, SetFunction, _check_ints

VERIFY_TOLERANCE = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# game files


def _parse_entries(raw, n: int, label: str) -> dict[int, float]:
    if not isinstance(raw, list):
        raise FormatError(f"{label} must be a list of set/value records")
    entries: dict[int, float] = {}
    for i, record in enumerate(raw):
        where = f"{label}[{i}]"
        if not isinstance(record, dict) or set(record) != {"set", "value"}:
            raise FormatError(f"{where} must be an object with 'set' and 'value'")
        targets = record["set"]
        if not isinstance(targets, list):
            raise FormatError(f"{where}.set must be a list of integers")
        _check_ints(targets, f"{where}.set targets", 1, n)  # mask_of shifts by t - 1
        if targets != sorted(set(targets)):
            raise FormatError(f"{where}.set must be strictly ascending")
        mask = mask_of(targets)
        if mask in entries:
            raise FormatError(f"{where}.set duplicates an earlier set")
        entries[mask] = record["value"]
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
    if "n" not in doc:
        raise FormatError("game file needs a positive integer 'n'")
    try:  # the library checks n, c, k and the values
        ground = GroundSet(doc["n"])
        utilities = [SetFunction(ground, _parse_entries(doc.get(key, []), ground.n, key))
                     for key in ("benefit", "cost_attacker", "cost_defender")]
        return GameSpec(ground, *utilities, doc.get("c", ground.n), doc.get("k", ground.n))
    except InvalidInputError as exc:
        raise FormatError(str(exc)) from None


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
        _write(out_path, payload)
    else:
        sys.stdout.write(payload)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def _format_number(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)  # exact mode: Fractions print as p/q


def _cmd_transform(args) -> int:
    spec = parse_game_json(_read(args.game))
    game = build_compact_game(spec, exact=args.exact)
    print(f"support size {game.support.size} over n={spec.n}")
    print("set : benefit / attacker-cost / defender-cost-coordinates")
    for mask, *values in zip(game.support.members, game.benefit_vec, game.attacker_cost_vec,
                             game.defender_cost_vec):
        name = "{" + ",".join(map(str, targets_of(mask))) + "}"
        print(f"{name} : " + " / ".join(map(_format_number, values)))
    return 0


def _cmd_solve(args) -> int:
    spec = parse_game_json(_read(args.game))
    trace: list | None = [] if args.trace else None
    game = build_compact_game(spec)
    report = solve_compact(spec, SolverConfig(eps_gap=args.tol), trace=trace, game=game)
    if not report.converged:
        raise SolverFailureError("constraint generation did not converge")
    gaps = best_response_gap(spec, report, game)
    if args.trace:
        _write(args.trace, "".join(json.dumps(record) + "\n" for record in trace))
    _write_report(report_to_dict(report, gaps), args.out)
    return 0


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
    net = network_from_text(_read(args.graph))
    value_fn = ValueFunction(kind=args.value_fn)
    failure = FailureOperator(args.failure, args.cascade_threshold)
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
    try:
        nf = expand_normal_form(spec)
    except CapacityError as exc:
        print(f"unverifiable at this size: {exc}")
        return 2
    reference = float(solve_matrix_game(nf.matrix).value)  # solve_bruteforce's value, same nf
    game = build_compact_game(spec)
    compact_report = solve_compact(spec, game=game)
    value_gap = abs(reference - compact_report.value)

    P = coordinates(nf.attacker_strategies, game.support, "attacker")
    Q = coordinates(nf.defender_strategies, game.support, "defender")
    identity_gap = float(np.max(np.abs(payoff_block(game, P, Q) - nf.matrix)))

    print(f"value: brute force {reference:.9g}, constraint generation {compact_report.value:.9g}")
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
    p.add_argument("--tol", type=float, default=1e-7, help="best-response gap tolerance")
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
    p.add_argument("--tol", type=float, default=1e-7)
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
