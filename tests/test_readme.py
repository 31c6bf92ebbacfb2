"""The README's library quick start, command lines and system
configuration example run as written."""

import json
import re
import shlex

from resodec.cli import run
from resodec.config import system_from_config

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def test_quick_start_runs(capsys):
    (quick_start,) = fenced_blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_command_lines_exit_0(monkeypatch, capsys):
    # verify is left out: test_verify_qubit_csv_is_pinned runs it
    (block,) = [b for b in fenced_blocks("sh") if "resodec spectrum" in b]
    lines = [shlex.split(line) for line in block.splitlines()]
    assert all(argv[0] == "resodec" for argv in lines)
    monkeypatch.chdir(REPO_ROOT)
    for argv in lines:
        if argv[1] != "verify":
            assert run(argv[1:]) == 0, argv
            assert capsys.readouterr().out.startswith("# config_hash: ")


def test_system_configuration_example_loads():
    (example,) = fenced_blocks("json")
    spec = system_from_config(json.loads(example))
    assert spec.dim == 2
    assert spec.couplings[0].matrix[0, 1] == 0.7
