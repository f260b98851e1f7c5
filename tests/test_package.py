"""Package surface: __all__ matches the top-level names, and README's library example runs."""

import re
import types
from pathlib import Path

import spectral_rbm

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
