"""README's library examples run as written, so a public name that the
documented API still imports from its module fails here once it is gone."""

import re
from pathlib import Path

from occloc import server
from occloc.cli import COMMANDS, MAX_BER_BITS, MAX_GRID_POINTS
from occloc.harness import (MAX_FIXTURES, MAX_ROOM_CM, MAX_SAMPLING_HZ, MAX_SNIR_DB,
                            MAX_TICKS)
from occloc.modem import MIN_BER_BITS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


def test_names_the_current_snapshot_version():
    words = " ".join(README.read_text().split())
    assert f"snapshot version {server.SNAPSHOT_VERSION} holds" in words


def test_command_line_block_names_every_flag_with_its_default():
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = {line.split()[1]: line for line in block.splitlines()}
    for command, (_, _, flags, _) in COMMANDS.items():
        for name, _, default, _ in flags:
            assert f"--{name} {default:g}" in lines[command], (command, name)


def test_exit_code_paragraph_states_the_bounds():
    """The flag bounds the exit-code paragraph names are the constants' values."""
    words = " ".join(re.search(r"\nExit codes: (.*?)\n\n", README.read_text(), re.S)
                     .group(1).split())
    for phrase in (f"`--bits` below {MIN_BER_BITS:,} or above {MAX_BER_BITS:,},",
                   f"more than {MAX_GRID_POINTS:,} points", f"beyond ±{MAX_SNIR_DB:g} dB",
                   f"more than {MAX_FIXTURES:,} fixtures (`harness.MAX_FIXTURES`)",
                   f"deeper than {MAX_ROOM_CM:,} cm (`harness.MAX_ROOM_CM`;",
                   f"a ceiling higher than {MAX_ROOM_CM:,} cm (the same bound;",
                   f"above {MAX_SAMPLING_HZ:g} Hz (`harness.MAX_SAMPLING_HZ`;",
                   f"more than {MAX_TICKS:,} ticks (`harness.MAX_TICKS`;"):
        assert phrase in words, phrase


def test_outputs_table_gives_each_row_s_csv_header():
    """The Outputs table lists, for each command that writes outputs, exactly
    the CSV header its COMMANDS row declares."""
    table = re.search(r"### Outputs\n\n(.*?)\n\n", README.read_text(), re.S).group(1)
    rows = dict(re.findall(r"^\| `(\w+)\.csv` \| `([^`]*)` \|$", table, re.M))
    assert rows == {command: row[3][0] for command, row in COMMANDS.items() if row[3]}
