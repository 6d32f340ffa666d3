"""README's library examples run as written, so a trimmed export that the
documented API still names fails here."""

import re
from pathlib import Path

from occloc import server
from occloc.cli import FLAGS

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
    for command, flags in FLAGS.items():
        for name, _, default, _ in flags:
            assert f"--{name} {default:g}" in lines[command], (command, name)
