import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import qrngkit
from qrngkit import bitstring, config, errors, exact, extractors, fileio, simulate, stats, streams

MODULES = (bitstring, config, errors, exact, extractors, fileio, simulate, stats, streams)
ROOT = Path(__file__).resolve().parent.parent
BENCH_RUN = ROOT / "benchmarks" / "run.py"


def test_package_exports_exactly_its_modules_public_names():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(set(declared)) == len(declared), "a name is public in two modules"
    assert len(set(qrngkit.__all__)) == len(qrngkit.__all__)
    assert set(qrngkit.__all__) == set(declared) | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qrngkit, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_every_chunked_loop_steps_by_the_one_chunk_size():
    # records, law rows and counted blocks all go _CHUNK at a time; the reader's block is bytes
    assert simulate._CHUNK is fileio._CHUNK is stats._CHUNK is streams._CHUNK
    others = {f"{module.__name__}.{name}" for module in MODULES for name in vars(module)
              if re.search("CHUNK|SLICE", name) and name != "_CHUNK"}
    assert others == {"qrngkit.fileio._READ_CHUNK"}


def test_every_name_the_benchmark_traces_is_a_callable(monkeypatch):
    # a renamed or deleted name would otherwise break the harness only when it runs
    monkeypatch.setattr(sys, "path", list(sys.path))  # the harness puts its own folder first
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    class Recorder:
        def __init__(self):
            self.wrapped = []

        def wrap(self, module, attr, name, count=None):
            self.wrapped.append((module, attr, name))

    recorder = Recorder()
    run.install_wraps(recorder)
    assert recorder.wrapped
    for module, attr, name in recorder.wrapped:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {name})"


def test_runtime_imports_are_the_declared_dependencies():
    # every third-party package the source imports, lazy imports too, is declared, and
    # nothing else is: a test-only package (scipy, the chi-squared oracle) stays out
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (ROOT / "src" / "qrngkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]}
    assert third_party == declared == {"numpy", "orjson"}


def test_sources_parse_at_the_declared_python_floor():
    # the suite runs on a newer interpreter, so the floor's grammar is checked directly:
    # syntax that needs a later version, such as except*, fails to parse here
    tomllib = pytest.importorskip("tomllib")
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    version = tuple(map(int, re.fullmatch(r">=(\d+)\.(\d+)", floor).groups()))
    paths = [*(ROOT / "src" / "qrngkit").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_the_draws_do_not_reach_into_a_bit_generator():
    # each stage and each outcome column has its own Philox key, so no source needs a
    # generator's buffered state, and the draw contract cannot come to rest on its layout
    reached = [(path.name, node.lineno, node.attr)
               for path in (ROOT / "src" / "qrngkit").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("state", "advance", "random_raw")]
    assert reached == []
    words = [simulate._SAMPLING, simulate._DOUBLE_COUNTING,
             *(simulate._UNIFORMS + column for column in range(4))]
    assert len(set(words)) == len(words) == 6
