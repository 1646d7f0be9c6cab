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
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# Only the remote scorer needs HTTP; it imports these at its first batch.
# Matched as name prefixes, so submodules count too.
_HTTP_MODULES = ("http.client", "urllib.request", "ssl", "email", "socket")


def _modules_new_after_cli_import(*flags: str) -> list[str]:
    # Compare sys.modules before and after the import in a fresh interpreter:
    # `site` may already have loaded third-party packages, which do not count.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", _LIST_NEW_MODULES],
        env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout.split()


def test_cli_imports_only_the_standard_library():
    imported = sorted({name.partition(".")[0] for name in _modules_new_after_cli_import()})
    assert "augrank" in imported
    third_party = [m for m in imported if m != "augrank" and m not in sys.stdlib_module_names]
    assert third_party == []


def test_cli_import_loads_no_http_stack():
    # -S: without `site`, nothing is loaded before the import that could
    # hide one of these modules.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert [m for m in imported if m.startswith(_HTTP_MODULES)] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` imports `inspect` (and with it `ast`, `dis` and
    # `tokenize`), and each `@dataclass` compiles generated code at import:
    # together about 30 ms of every command's start-up. Records are plain
    # `__slots__` classes instead.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert [m for m in imported if m in ("dataclasses", "inspect")] == []


def test_cli_import_loads_no_typing():
    # The package names `TextIO` and `TypeVar` in annotations only, which
    # are never evaluated; importing `typing` for them cost about 7 ms of
    # every command's start-up.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert "typing" not in imported
