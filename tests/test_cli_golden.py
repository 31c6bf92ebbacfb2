"""The cli-cold benchmark commands print byte-identical CSVs.

Each command of ``perfbench/workloads.py`` ``CLI_COMMANDS`` runs in
process through ``cli.run``, with the benchmark's arguments, from the
repository root; the sha256 of its standard output must equal the one
recorded in ``perfbench/cli_golden.json``.  The ``verify`` CSV of
``demos/configs/verify_qubit.json`` is pinned here as well.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys

import pytest

from resodec.cli import run
from resodec.errors import TruncationWarning

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

#: sha256 of ``resodec verify --config demos/configs/verify_qubit.json``;
#: its bath's coupling-weighted occupancy (6.2e-5) is far below
#: ``oracle.SECTOR_OCCUPANCY_TOL``, so every mode starts in the vacuum
#: without a thermofield partner
VERIFY_QUBIT_SHA256 = \
    "79b06d28392c9ded4fbb459d464582958ce7e064b541227cd891054492a68cd9"


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


def test_scaling_with_given_tol_matches_golden_hash(monkeypatch):
    # --tol 1e-9 clusters the demo fields into the same 3^N groups as
    # the default tolerance, so the subset pass gives the same CSV
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(WORKLOADS.cli_argv(
            "scaling", ["--config", "demos/configs/scaling.json",
                        "--tol", "1e-9"]))
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == GOLDEN["scaling:scaling"]


def test_verify_qubit_csv_is_pinned(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    # 200 modes at cap 3 exceed the sector engine's state-space limit
    with pytest.warns(TruncationWarning, match="excitation cap lowered "
                      "from the requested 3 to 2"), \
            contextlib.redirect_stdout(out):
        code = run(["verify", "--config", "demos/configs/verify_qubit.json"])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == VERIFY_QUBIT_SHA256
