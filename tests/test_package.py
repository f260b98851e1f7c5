"""Package surface: __all__ matches the top-level names, README's library example runs,
numpy is the only third-party import, the model file has one reader and writer, every
function and method has a caller in the package, and the names the benchmark's tests bind
exist."""

import ast
import re
import sys
import types
from pathlib import Path

import spectral_rbm
from spectral_rbm import classifier, cli, markov, rbm

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    bound = {
        name for name, value in vars(spectral_rbm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(spectral_rbm.__all__) == len(set(spectral_rbm.__all__))
    assert set(spectral_rbm.__all__) == bound


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


def test_only_classifier_handles_the_model_file():
    # struct and the format's magics in a second module would mean a second reader or writer
    package = Path(spectral_rbm.__file__).parent
    marks = {
        path.name: {
            "import struct" if isinstance(node, (ast.Import, ast.ImportFrom)) else node.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Import) and "struct" in [alias.name for alias in node.names])
            or (isinstance(node, ast.ImportFrom) and node.module == "struct")
            or (isinstance(node, ast.Constant) and node.value in (b"RBM1", b"RBME1"))
        }
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in marks.items() if found} == {
        "classifier.py": {"import struct", b"RBM1", b"RBME1"},
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
# fast paths from the tests, and the names the benchmark's tracer test binds (ROADMAP
# item 2 deletes cd1 and rebinds that test).
UNCALLED = {
    "rbm.energy", "rbm.exact_log_partition_function", "rbm.exact_log_likelihood",
    "rbm.exact_gibbs_kernel", "rbm.cd1", "rbm.train_rbm",
}


def test_every_function_has_a_caller_in_the_package():
    # code that only tests use either becomes an oracle or is deleted; an import
    # or a call from inside the function itself does not count as a caller. Methods
    # and properties of the package's classes are held to the same rule; dunders,
    # which Python calls, are not.
    package = Path(spectral_rbm.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
    }
    functions = {
        f"{module}.{node.name}": node
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    functions.update({
        f"{module}.{cls.name}.{node.name}": node
        for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name)
    })
    assert UNCALLED <= set(functions)

    def has_caller(definition):
        # ast.Name carries a name in .id, ast.Attribute in .attr; an import's alias has neither
        inside = set(map(id, ast.walk(definition)))
        return any(
            id(node) not in inside
            and definition.name in (getattr(node, "id", None), getattr(node, "attr", None))
            for tree in trees.values() for node in ast.walk(tree)
        )

    uncalled = sorted(name for name, node in functions.items()
                      if name not in UNCALLED and not has_caller(node))
    assert uncalled == [], f"no caller in the package: {uncalled}"
