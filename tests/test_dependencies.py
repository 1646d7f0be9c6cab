"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_LIST_NEW_MODULES = """
import sys
before = set(sys.modules)
import augrank.cli
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_imports_only_the_standard_library():
    # Compare sys.modules before and after the import in a fresh interpreter:
    # `site` may already have loaded third-party packages, which do not count.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LIST_NEW_MODULES],
        env=env, capture_output=True, text=True, check=True,
    )
    imported = result.stdout.split()
    assert "augrank" in imported
    third_party = [m for m in imported if m != "augrank" and m not in sys.stdlib_module_names]
    assert third_party == []
