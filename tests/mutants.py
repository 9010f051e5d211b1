"""Mutation gate: every listed one-line mutant of the library must be killed.

    python tests/mutants.py

Each mutant names a file under ``src/setgames``, a text that occurs in it
exactly once, the text that replaces it, and the tests that must catch the
change. For each mutant the script copies ``src/`` to a temporary directory,
applies the replacement there and runs the mutant's tests against the copy
with a fixed Hypothesis seed. The mutant is killed when one of its tests
fails. The script first runs every listed test on an unchanged copy, which
must pass, and exits nonzero when that run fails, when a mutant's text is
not found once in its file, or when a mutant survives. The file's name keeps
pytest from collecting it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/setgames, old text, new text, killing tests)
MUTANTS = (
    ("M1: the approximation drops coefficients up to 4 * eps_c", "network.py",
     "(np.abs(table[0]) <= eps_c)", "(np.abs(table[0]) <= 4 * eps_c)",
     ("tests/test_network.py::TestSeparableApproximation"
      "::test_pair_coefficients_and_moderate_threshold",
      "tests/test_cli.py::TestCommands::test_net_command")),
    ("M2: a solve counts as converged at gaps up to 1e4 * eps_gap", "equilibrium.py",
     "converged = max(gaps) <= 10 * config.eps_gap",
     "converged = max(gaps) <= 1e4 * config.eps_gap",
     ("tests/test_equilibrium.py::TestCompactSolver"
      "::test_gap_past_ten_eps_gap_is_not_converged",)),
    ("M3: the simplex's optimality tolerance is 1e-5", "lp.py",
     "OPTIMALITY_TOL = 1e-8", "OPTIMALITY_TOL = 1e-5",
     ("tests/test_lp.py::TestWarmStart::test_rows_with_basic_slacks_get_no_row_weight",
      "tests/test_lp.py::TestWarmStart::test_growth_order_matches_cold_with_fewer_pivots",
      "tests/test_compact.py::TestCaratheodory::test_tolerance_bounds_the_l1_residual")),
    ("M4: the coefficient cutoff is 1e-6 of the largest value", "setfunctions.py",
     "SPARSITY_SCALE = 1e-12", "SPARSITY_SCALE = 1e-6",
     ("tests/test_setfunctions.py::TestZeta::test_roundtrip_dense",)),
    ("M5: a strategy is added only when its gain exceeds 1e3 * eps_gap", "equilibrium.py",
     "if gain > config.eps_gap and", "if gain > 1e3 * config.eps_gap and",
     ("tests/test_equilibrium.py::TestCompactSolver::test_small_gaps_still_add_strategies",)),
    ("M6: the knapsack over components breaks ties to the larger mask", "oracles.py",
     "m < new_mask[u + t]", "m > new_mask[u + t]",
     ("tests/test_acceptance.py::TestCriterion9OracleConsistency"
      "::test_methods_agree_with_bruteforce",
      "tests/test_oracles.py::TestSeparable"
      "::test_random_multi_component_problems_match_bruteforce")),
    ("M7: a support holds the empty set but not the singletons", "oracles.py",
     "np.union1d(masks, [0, *(1 << i for i in range(ground.n))])", "np.union1d(masks, [0])",
     ("tests/test_acceptance.py::TestCriterion5VertexMapping"
      "::test_roundtrip_exhaustive_and_linear_cost",
      "tests/test_acceptance.py::TestCriterion9OracleConsistency"
      "::test_methods_agree_with_bruteforce")),
    ("M8: the transform's all-zero test ignores the default", "setfunctions.py",
     "if not any(f.default or any(f.entries.values()) for f in functions):",
     "if not any(any(f.entries.values()) for f in functions):",
     ("tests/test_setfunctions.py::TestMoebius::test_constant_function_collapses_to_empty_set",)),
    ("M9: the defender cost enters the payoff with the wrong sign", "compact.py",
     "+ (Q @ game.defender_cost_vec)", "- (Q @ game.defender_cost_vec)",
     ("tests/test_acceptance.py::TestCriterion2DecompositionIdentity"
      "::test_compact_value_reproduces_payoffs",
      "tests/test_acceptance.py::TestCriterion4EquilibriumEquivalence"
      "::test_compact_matches_bruteforce")),
    ("M10: a polynomial term counts when none of its targets is a one", "oracles.py",
     "mask & ~ones_mask == 0", "mask & ones_mask == 0",
     ("tests/test_acceptance.py::TestCriterion6PseudoBooleanEquivalence"
      "::test_three_routes_agree_exactly",)),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for ``tests`` run from the repo root against the library in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=1", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_of_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({test for *_, killers in MUTANTS for test in killers})
        code = run_tests(copy_of_src(tmp), tests)
        print(f"unchanged library: pytest exit {code}")
        if code != 0:
            problems.append("the killing tests do not all pass on the unchanged library")
    for name, file, old, new, killers in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_of_src(tmp) / "setgames" / file
            text = path.read_text()
            if text.count(old) != 1:
                verdict = f"{old!r} occurs {text.count(old)} times in {file}, not once"
            else:
                path.write_text(text.replace(old, new))
                code = run_tests(path.parent.parent, killers)
                # pytest exits 1 when a test failed; any other code is a broken run.
                verdict = {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{name}: {verdict}")
        if verdict != "killed":
            problems.append(f"{name}: {verdict}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
