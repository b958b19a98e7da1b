"""The CLI's option table, pinned: for each subcommand path, every option's
flags, dest, default, required flag, type, choices and action class, in
declaration order.  `cli_options.json` was written by `option_table` from
the parser as it stood before each option came to be declared once; run
this file as a script to print the table of the current parser."""

import argparse
import json
from pathlib import Path

from ramsey_gadgets import cli

PINNED_OPTIONS = Path(__file__).with_name("cli_options.json")


def option_table(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """{subcommand path: [option, ...]} for `parser` and every parser
    below it; the subcommand choice itself is a positional option."""
    rows = []
    table = {path: rows}
    for action in parser._actions:
        choices = action.choices
        rows.append({"flags": list(action.option_strings),
                     "dest": action.dest, "default": action.default,
                     "required": action.required,
                     "type": getattr(action.type, "__name__", None),
                     "choices": None if choices is None else list(choices),
                     "action": type(action).__name__})
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in choices.items():
                table.update(option_table(sub, f"{path} {name}".strip()))
    return table


def test_option_table_is_pinned():
    want = json.loads(PINNED_OPTIONS.read_text())
    got = json.loads(json.dumps(option_table(cli.build_parser())))
    assert list(got) == list(want)
    for path in want:
        assert got[path] == want[path], path


def test_spec_verifiers_share_one_option_table():
    # each takes its gadget from --spec alone, under the budget flags
    table = option_table(cli.build_parser())
    kinds = ("sender", "indicator", "gni", "pattern-gadget")
    assert [o["flags"] for o in table["verify sender"]] == [
        ["-h", "--help"], ["--report"], ["--max-nodes"], ["--max-seconds"],
        ["--spec"]]
    assert all(table[f"verify {kind}"] == table["verify sender"]
               for kind in kinds)


if __name__ == "__main__":
    print(json.dumps(option_table(cli.build_parser()), indent=1))
