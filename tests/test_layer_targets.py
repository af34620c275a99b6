"""The layer boundaries that the benchmark's trace mode wraps
(``perfbench/spans.py``, ``TARGETS``) must exist in rcpolar, so that a rename
fails here rather than in a traced benchmark run; so must every name the
package exports and every name README's Python examples import, and README's
shell examples may set only the config keys their commands list."""

import ast
import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from rcpolar import cli

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_span_targets_resolve_to_rcpolar_callables():
    targets = _span_targets()
    assert targets
    for mod, fn in targets:
        obj = getattr(importlib.import_module(f"rcpolar.{mod}"), fn, None)
        assert callable(obj), f"rcpolar.{mod}.{fn} is not a callable"


def test_public_names_resolve():
    package = importlib.import_module("rcpolar")
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    assert package.__all__ and not missing


def test_readme_examples_compile_and_import_public_names():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    imported = []
    for block in blocks:
        compile(block, "README.md", "exec")
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(alias.name, None) for alias in node.names]
    rcpolar = [(mod, name) for mod, name in imported
               if mod.split(".")[0] == "rcpolar"]
    assert rcpolar
    for mod, name in rcpolar:
        module = importlib.import_module(mod)
        assert name is None or hasattr(module, name), f"{mod}.{name}"


def _readme_command_lines():
    """The arguments of each ``rcpolar`` line in README's ``sh`` blocks, with
    continued lines joined and split as a shell would."""
    text = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["rcpolar"]:
                lines.append(words[1:])
    return lines


def test_readme_command_lines_set_only_listed_keys():
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == set(cli._COMMANDS)
    for argv in lines:
        # The CLI's own config check: a key the command does not list, or
        # a listed key missing, raises ConfigError.
        try:
            cli._load_config(cli.build_parser().parse_args(argv))
        except cli.ConfigError as exc:
            pytest.fail(f"README: rcpolar {shlex.join(argv)}: {exc}")
