"""The cli-cold benchmark commands print byte-identical CSVs.

Each command of ``perfbench/workloads.py`` ``CLI_COMMANDS`` runs in
process through ``cli.run``, with the benchmark's arguments, from the
repository root; the sha256 of its standard output must equal the one
recorded in ``perfbench/cli_golden.json``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys

import pytest

from resodec.cli import run

from conftest import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"
GOLDEN = json.loads((PERFBENCH / "cli_golden.json").read_text())["sha256"]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name, subcommand, args", WORKLOADS.CLI_COMMANDS,
                         ids=[c[0] for c in WORKLOADS.CLI_COMMANDS])
def test_cli_output_matches_golden_hash(monkeypatch, name, subcommand, args):
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(WORKLOADS.cli_argv(subcommand, args))
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]
