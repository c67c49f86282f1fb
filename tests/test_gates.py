"""The CI gate table: no config goes ungated, and every line parses
back from the line the runner prints for it."""

import glob
import os

import pytest

from gate_table import ROOT, gates


def _configs():
    found = glob.glob(os.path.join(ROOT, "configs", "*.cfg"))
    found += glob.glob(os.path.join(ROOT, ".github", "*-configs", "*.cfg"))
    return {os.path.relpath(path, ROOT) for path in found}


def test_every_config_is_named_by_a_gate():
    named = {os.path.normpath(g.config) for g in gates.parse_table()}
    assert _configs() - named == set()


def test_every_gate_names_an_existing_config():
    missing = [(g.lineno, g.config) for g in gates.parse_table()
               if not os.path.isfile(os.path.join(ROOT, g.config))]
    assert missing == []


def test_a_printed_line_parses_back_to_its_gate():
    # the runner prints the observed line of a failing gate, to be
    # copied into the table as it stands
    for g in gates.parse_table():
        assert gates.parse_line(g.line(g.exit, g.expected), g.lineno) == g


@pytest.mark.parametrize("text, message", [
    ("run configs/static_rate.cfg sha256=00", "exit=CODE"),
    ("run configs/static_rate.cfg exit=0", "one of sha256"),
    ("run configs/static_rate.cfg exit=0 sha256=00 stderr=x", "one of sha256"),
    ("run exit=0 sha256=00", "a subcommand and a config"),
    ("run configs/static_rate.cfg exit=0 exit=1 sha256=00", "given twice"),
])
def test_a_malformed_line_is_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        gates.parse_line(text, 1)
