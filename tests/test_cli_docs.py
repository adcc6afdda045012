"""The console-script lists in the docs name exactly the parser's subcommands."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def parser_subcommands() -> set[str]:
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return set(subparsers.choices)


@pytest.mark.parametrize("document", ["README.md", "docs/api.md"])
def test_console_script_list_matches_the_parser(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    match = re.search(r"console script: `repro\s+([^`]+)`", text, re.IGNORECASE)
    assert match, f"{document} has no 'console script: `repro ...`' list"
    listed = [name.strip() for name in match.group(1).split("|")]
    assert len(listed) == len(set(listed)), f"{document} lists a subcommand twice"
    assert set(listed) == parser_subcommands()
