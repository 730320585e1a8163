import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cvarlearn

MODULES = ["cvarlearn"] + [f"cvarlearn.{m.name}"
                           for m in pkgutil.iter_modules(cvarlearn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from cvarlearn import *", namespace)
    assert set(cvarlearn.__all__) <= set(namespace)


ENVIRONMENT_READS = {"environ", "environb", "getenv"}
SOURCES = sorted(Path(cvarlearn.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_reads_the_process_environment(path):
    # A run's output depends on its command line and config file alone, so
    # no environment variable may become a hidden input.
    reads = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in ENVIRONMENT_READS for alias in node.names)]
    assert not reads, f"{path.name} reads the process environment at lines {reads}"


FORKS = {"fork_map", "fork_ranges"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem not in ("core", "harness")],
                         ids=lambda p: p.name)
def test_only_core_and_harness_fork(path):
    # core forks and the harness alone decides how work is cut across
    # processes; every other module is serial.
    names = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name) and node.id in FORKS
             or isinstance(node, ast.Attribute) and (
                 node.attr in FORKS or node.attr == "fork"
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or isinstance(node, ast.ImportFrom) and any(
                 alias.name in FORKS or node.module == "os" and alias.name == "fork"
                 for alias in node.names)]
    assert not names, f"{path.name} names a fork at lines {names}"
