"""Package surface: __all__ matches the top-level names, errors.py defines and __all__
exports three exception types, README's library example runs, numpy is the only
third-party import, the model file and the sidecar each have one reader and writer,
every function and method has a caller in the package, the names the benchmark's
tests bind exist, and no command imports numpy.ma."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import spectral_rbm
from spectral_rbm import classifier, cli, errors, markov, rbm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    bound = {
        name for name, value in vars(spectral_rbm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(spectral_rbm.__all__) == len(set(spectral_rbm.__all__))
    assert set(spectral_rbm.__all__) == bound


def test_three_exception_types_one_per_outcome():
    # bad input exits 2 (FormatError: a malformed file), a failed convergence 4; a
    # fourth type that no caller tells apart from these would only add surface
    def exception_names(namespace, names):
        return {name for name in names
                if isinstance(namespace[name], type) and issubclass(namespace[name], Exception)}

    three = {"ValidationError", "FormatError", "ConvergenceError"}
    assert exception_names(vars(errors), vars(errors)) == three
    assert exception_names(vars(spectral_rbm), spectral_rbm.__all__) == three
    assert issubclass(errors.FormatError, errors.ValidationError)


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert "accuracy:" in capsys.readouterr().out


def test_numpy_is_the_only_runtime_dependency():
    allowed = sys.stdlib_module_names | {"numpy"}
    package = Path(spectral_rbm.__file__).parent
    third_party = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        # relative imports (level > 0) stay inside the package
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] not in allowed
    ]
    assert third_party == []


# every command, then split, in one fresh process: np.unique with no return_* option
# imports numpy.ma (about 1.25 MB resident), which no package path needs
NO_NUMPY_MA = """
import sys
from spectral_rbm import cli, dataset

out = sys.argv[1] + "/"
tiny = ["--hidden", "4", "--epochs", "2"]
for argv in (
    ["synth", "--out", out + "raw.csv", "--per-class", "20", "--dim", "10"],
    ["preprocess", out + "raw.csv", "--out", out + "bin.csv"],
    ["preprocess", out + "raw.csv", "--out", out + "test.csv", "--reuse-stats", out + "bin.csv.sidecar"],
    ["train", out + "bin.csv", "--out", out + "m.rbme", *tiny],
    ["evaluate", out + "m.rbme", out + "test.csv"],
    ["sweep-alpha", out + "raw.csv", "--alphas", "1/3,1/2", *tiny],
):
    assert cli.main(argv) == 0, argv
dataset.split(dataset.load_csv(out + "raw.csv"), dataset.SplitSpec())
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_no_command_imports_numpy_ma(tmp_path):
    package_root = str(Path(spectral_rbm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_MA, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_only_classifier_handles_the_model_file():
    # struct and the format's magics in a second module would mean a second reader or writer;
    # the same holds for the sidecar, whose version key only cli may spell
    package = Path(spectral_rbm.__file__).parent
    marks = {
        path.name: {
            "import struct" if isinstance(node, (ast.Import, ast.ImportFrom)) else node.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Import) and "struct" in [alias.name for alias in node.names])
            or (isinstance(node, ast.ImportFrom) and node.module == "struct")
            or (isinstance(node, ast.Constant)
                and node.value in (b"RBM1", b"RBME1", "sidecar_version"))
        }
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in marks.items() if found} == {
        "classifier.py": {"import struct", b"RBM1", b"RBME1"},
        "cli.py": {"sidecar_version"},
    }


def test_names_the_benchmark_tests_bind_exist():
    # perfbench/test_perfbench.py::test_tracer_restores_the_package looks these up;
    # ROADMAP item 2 changes this list together with that test
    bound = {
        "rbm.cd1": vars(rbm).get("cd1"),
        "rbm.train_rbm": vars(rbm).get("train_rbm"),
        "classifier.train_rbm": vars(classifier).get("train_rbm"),
        "markov.SeededRng.uniforms": vars(markov.SeededRng).get("uniforms"),
        "cli.main": vars(cli).get("main"),
    }
    missing = [name for name, value in bound.items() if not callable(value)]
    assert missing == [], (
        f"{missing} gone: perfbench/test_perfbench.py::test_tracer_restores_the_package "
        "binds them; change both together (ROADMAP item 2)"
    )


# Functions kept without a caller in the package: the exact oracles, which check the
# fast paths from the tests, the names the benchmark's tracer test binds (ROADMAP
# item 2 deletes cd1 and rebinds that test), and dataset.split, the public wrapper
# over split_indices that the benchmark's tracer wraps by name.
UNCALLED = {
    "rbm.energy", "rbm.exact_log_partition_function", "rbm.exact_log_likelihood",
    "rbm.exact_gibbs_kernel", "rbm.cd1", "rbm.train_rbm", "dataset.split",
}


def _references(node, enclosing=frozenset()):
    """(node type, name, names of the definitions around it) of each ast.Name and ast.Attribute."""
    if isinstance(node, ast.FunctionDef):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name):
        yield ast.Name, node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield ast.Attribute, node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def without_caller(trees):
    """Qualified names of the functions and methods in trees (module name -> ast) never called.

    A module-level function's caller is an ast.Name, since every module imports by name;
    a method's or property's is an ast.Attribute. A reference inside any definition of the
    same name does not count, so a function does not call itself and two methods named
    alike do not vouch for each other. A method named like an np.ndarray attribute is
    refused outright, since numpy calls would count as its callers. Dunders, which Python
    calls, are not held to the rule.
    """
    definitions = _definitions(trees)
    callers = {
        (kind, name)
        for tree in trees.values() for kind, name, enclosing in _references(tree)
        if name not in enclosing
    }
    return sorted(
        qualified for qualified, (kind, name) in definitions.items()
        if (kind, name) not in callers or (kind is ast.Attribute and hasattr(np.ndarray, name))
    )


def _definitions(trees):
    """{qualified name: (the node type that calls it, its name)} of each function and method."""
    definitions = {
        f"{module}.{node.name}": (ast.Name, node.name)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    definitions.update({
        f"{module}.{cls.name}.{node.name}": (ast.Attribute, node.name)
        for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name)
    })
    return definitions


def test_the_caller_guard_sees_through_numpy_names_and_namesakes():
    source = """
class Report:
    @property
    def size(self):
        return 0

class Reader:
    def finish(self, other):
        other.finish(self)

class Options:
    def finish(self, other):
        other.finish(self)

def main(report):
    return np.zeros(3).size, Reader(), Options(), report

value = main(Report())
"""
    assert without_caller({"m": ast.parse(source)}) == [
        "m.Options.finish", "m.Reader.finish", "m.Report.size",
    ]


def test_every_function_has_a_caller_in_the_package():
    # code that only tests use either becomes an oracle or is deleted
    package = Path(spectral_rbm.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
    }
    assert UNCALLED <= set(_definitions(trees))
    uncalled = [name for name in without_caller(trees) if name not in UNCALLED]
    assert uncalled == [], f"no caller in the package: {uncalled}"
