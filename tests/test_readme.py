"""README's CLI examples, Defaults table and spelling table agree with the
parser, `ExperimentConfig`, the types the table names and the alias
tables."""

import argparse
import dataclasses
import shlex
from pathlib import Path

import pytest

import augrank.cli
from augrank.cli import (
    _MODE_ALIASES,
    _SCORER_ALIASES,
    _SOURCE_ALIASES,
    ExperimentConfig,
    build_parser,
)
from augrank.evaluation import MetricConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
ALIASES = {"mode": _MODE_ALIASES, "source": _SOURCE_ALIASES, "scorer": _SCORER_ALIASES}
CONFIG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def section(heading):
    """The README text from `heading` to the next heading of any level."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return body.split("\n#", 1)[0]


def tables(text):
    """Each Markdown table in `text`, as its body rows of cells with the
    backticks removed."""
    found = []
    for block in text.split("\n\n"):
        lines = block.strip().splitlines()
        if lines and all(line.startswith("|") for line in lines):
            found.append([
                [cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
                for line in lines[2:]
            ])
    return found


def cli_commands():
    block = section("## CLI").split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def flag_actions(parser, path=()):
    """(subcommand path, option string, action) for every option of every
    subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from flag_actions(sub, path + (name,))
        for option in action.option_strings:
            yield path, option, action


def typed(key, text):
    """A README cell or a flag default as the value of config key `key`."""
    if key in ALIASES:
        return ALIASES[key][text.lower()]
    if key == "metrics":
        return MetricConfig(tuple(text.split(",")))
    if key == "skip_direct_answers":
        return {"yes": True, "no": False}[text]
    return type(CONFIG_DEFAULTS[key])(text)


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_cli_block_commands_parse(argv):
    assert argv[0] == "augrank"
    build_parser().parse_args(argv[1:])


DEFAULT_ROWS, SPELLING_ROWS = tables(section("### Defaults"))


@pytest.mark.parametrize("row", DEFAULT_ROWS, ids=lambda row: row[3])
def test_defaults_table_matches_parser_and_config(row):
    _, default, flag, key, _ = row
    expected = typed(key, default)
    assert CONFIG_DEFAULTS[key] == expected
    # `pipeline run`'s flags override the config and have no default of their own.
    actions = [
        action for path, option, action in flag_actions(build_parser())
        if option == flag and path != ("pipeline", "run")
    ]
    assert actions, flag
    for action in actions:
        value = action.default
        if key == "skip_direct_answers":  # the flag turns skipping off
            value = "no" if value else "yes"
        assert typed(key, str(value)) == expected, flag


@pytest.mark.parametrize("row", DEFAULT_ROWS, ids=lambda row: row[3])
def test_defaults_table_names_the_type_that_defines_each_default(row):
    _, default, _, key, defined_in = row
    owner = getattr(augrank.cli, defined_in, None)
    assert isinstance(owner, type), defined_in
    expected = typed(key, default)
    # A type that is the key's whole value (MetricConfig) defines its
    # default as its own fresh instance; any other holds it as the
    # attribute named after the key.
    assert (owner() if isinstance(expected, owner) else getattr(owner, key)) == expected


@pytest.mark.parametrize("row", SPELLING_ROWS, ids=lambda row: row[1])
def test_spelling_table_lists_each_alias_table(row):
    flag, key, spellings = row
    assert spellings.split(", ") == list(ALIASES[key])
    choices = {path: action.choices for path, option, action in flag_actions(build_parser())
               if option == flag}
    assert choices, flag
    for path, accepted in choices.items():
        expected = set(ALIASES[key]) - ({"none"} if path == ("expand",) else set())
        assert set(accepted) == expected, (path, flag)
