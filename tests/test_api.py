"""The public API and the import layering.

Every name a module exports in ``__all__`` resolves.  Names are imported
from their module, as in ``from matchorder.engine import perm_leq``; the
package itself exports nothing, so importing one module loads only the
modules it uses."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("cli", "engine", "matchings", "permgraphs", "permutations", "suites")

SRC = Path(__file__).resolve().parent.parent / "src"

LOADS_MODULES = """\
import json, sys
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("matchorder"))))
"""

_PERMUTATIONS = {"matchorder", "matchorder._search", "matchorder.permutations"}
_MATCHINGS = _PERMUTATIONS | {"matchorder.matchings"}
_ENGINE = _MATCHINGS | {"matchorder.engine"}
# the deciders and replay never need the graph toolkit, and the CLI loads
# permgraphs and suites only in the commands that use them
LOADS = {
    "matchorder.permutations": _PERMUTATIONS,
    "matchorder.matchings": _MATCHINGS,
    "matchorder.engine": _ENGINE,
    "matchorder.cli": _ENGINE | {"matchorder.cli"},
}


def test_exports_resolve_and_match_their_modules():
    for name in MODULES:
        module = importlib.import_module(f"matchorder.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"matchorder.{name}.{attr}"


@pytest.mark.parametrize("module", LOADS)
def test_an_import_loads_only_the_modules_it_uses(module):
    done = subprocess.run(
        [sys.executable, "-c", LOADS_MODULES, str(SRC), module],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(done.stdout) == sorted(LOADS[module])
