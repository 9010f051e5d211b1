"""The benchmark under perfbench/ calls the library by name; every name it uses must exist.

A removed or renamed export, or a removed keyword parameter, would otherwise
fail only a benchmark run. The files are read, and the tracer loaded, by
path; nothing under perfbench/ is imported as a package or changed.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import setgames

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_sources():
    return sorted(BENCH.glob("*.py"))


def test_bench_files_are_found():
    names = {path.name for path in bench_sources()}
    assert {"workloads.py", "tracer.py", "run.py"} <= names


@pytest.mark.parametrize("path", bench_sources(), ids=lambda path: path.name)
def test_every_sg_name_exists(path):
    text = path.read_text()
    for name in sorted(set(re.findall(r"\bsg\.([A-Za-z_]\w*)", text))):
        assert hasattr(setgames, name), f"{path.name} uses sg.{name}, which setgames lacks"
    for module, names in re.findall(r"^\s*from (setgames(?:\.\w+)*) import ([\w, ]+)$", text,
                                    re.M):
        imported = importlib.import_module(module)
        for name in names.replace(" ", "").split(","):
            assert hasattr(imported, name), f"{path.name} imports {name} from {module}"


@pytest.mark.parametrize("path", bench_sources(), ids=lambda path: path.name)
def test_every_sg_keyword_is_a_parameter(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "sg"):
            continue
        params = inspect.signature(getattr(setgames, node.func.attr)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for keyword in node.keywords:
            assert keyword.arg is None or keyword.arg in params, (
                f"{path.name}:{node.lineno} passes {keyword.arg}= to sg.{node.func.attr}")


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, home, attr, modules, _, _ in tracer.LAYERS:
        fn = getattr(importlib.import_module(home), attr, None)
        assert callable(fn), f"layer {name}: {home}.{attr} is missing"
        for binding in modules or ():
            assert getattr(importlib.import_module(binding), attr, None) is fn, (
                f"layer {name}: {binding} does not bind {home}.{attr}")
