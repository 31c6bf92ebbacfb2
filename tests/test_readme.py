"""The README's library quick start and system configuration example
run as written."""

import json
import re

from resodec.config import system_from_config

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def test_quick_start_runs(capsys):
    (quick_start,) = fenced_blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_system_configuration_example_loads():
    (example,) = fenced_blocks("json")
    spec = system_from_config(json.loads(example))
    assert spec.dim == 2
    assert spec.couplings[0].matrix[0, 1] == 0.7
