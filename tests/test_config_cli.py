"""Configuration schema, hashing, and the command-line surface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from resodec.config import (
    config_hash,
    form_factor_from_config,
    load_config,
    matrix_from_config,
    matrix_to_config,
    register_from_config,
    system_from_config,
)
from resodec.cli import run
from resodec.errors import BadConfiguration, ValidationError
from resodec.model import RegisterSpec, SystemSpec
from resodec.oracle import VerifyConfig
from resodec.reservoir import thermal_spectral_density, xi

from conftest import CONFIG_DIR

QUBIT_CFG = CONFIG_DIR / "single_qubit.json"
REG4_CFG = CONFIG_DIR / "reg4.json"
XI_CFG = CONFIG_DIR / "xi_grid.json"
VERIFY_CFG = CONFIG_DIR / "verify_qubit.json"


def invoke(*args):
    proc = subprocess.run([sys.executable, "-m", "resodec", *args],
                          capture_output=True, text=True, timeout=300)
    return proc


def read_csv(path):
    """Split an output file into comment lines, header, rows, footers."""
    comments, header, rows, footers = [], None, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            (footers if header is not None else comments).append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows, footers


# =====================================================================
# Loaders and hashing
# =====================================================================

def test_load_config_errors(tmp_path):
    with pytest.raises(BadConfiguration, match="cannot read"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(BadConfiguration, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(BadConfiguration, match="JSON object"):
        load_config(arr)


def test_matrix_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    again = matrix_from_config(matrix_to_config(m))
    assert np.array_equal(again, m)
    with pytest.raises(BadConfiguration, match=r"\[re, im\]"):
        matrix_from_config([[1.0, 2.0], [3.0, 4.0]])


def test_config_hash_is_order_insensitive():
    a = {"dim": 2, "beta": 1.0}
    b = {"beta": 1.0, "dim": 2}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash(a) != config_hash({"dim": 2, "beta": 1.5})


def test_form_factor_from_config_defaults_and_errors():
    ff = form_factor_from_config({"p": 0.5, "m": 2})
    assert ff.overall_scale == 1.0 and ff.angular_weight == 1.0
    with pytest.raises(BadConfiguration, match="missing key 'p'"):
        form_factor_from_config({"m": 1})
    with pytest.raises(ValidationError):
        form_factor_from_config({"p": 0.5, "m": 3})


def test_system_and_register_loaders():
    cfg = load_config(QUBIT_CFG)
    spec = system_from_config(cfg)
    assert isinstance(spec, SystemSpec)
    assert spec.dim == 2
    assert spec.couplings[0].strength == 0.01
    assert spec.couplings[0].matrix[0, 1] == 0.7

    reg_cfg = load_config(REG4_CFG)
    reg = register_from_config(reg_cfg)
    assert isinstance(reg, RegisterSpec)
    assert reg.n_qubits == 4
    # the register path also feeds the generic system loader
    assert system_from_config(reg_cfg).dim == 16

    broken = dict(cfg, energies=[0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        system_from_config(broken)


# =====================================================================
# Subcommands end to end
# =====================================================================

def test_spectrum_output_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    proc = invoke("spectrum", "--config", str(QUBIT_CFG),
                  "--check-nonoverlap", "--parallel", "1",
                  "-o", str(out_a))
    assert proc.returncode == 0, proc.stderr
    proc = invoke("spectrum", "--config", str(QUBIT_CFG),
                  "--check-nonoverlap", "--parallel", "4",
                  "-o", str(out_b))
    assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()

    comments, header, rows, footers = read_csv(out_a)
    assert comments[0].startswith("# config_hash: ")
    assert comments[1] == "# seed: 53710"
    assert comments[2].startswith("# version: ")
    assert header == ["e", "s", "Re(epsilon)", "Im(epsilon)", "nu",
                      "gamma_e", "group_size"]
    assert any(f.startswith("# nonoverlap_margin: ") for f in footers)
    assert "# nonoverlap_passed: true" in footers

    # the e = 0 group's decay rate must match the closed form
    cfg = load_config(QUBIT_CFG)
    spec = system_from_config(cfg)
    g = spec.couplings[0].form_factor
    expected = 0.01 ** 2 * np.pi * 0.7 ** 2 * xi(g, 1.0, 1.0)
    zero_rows = [r for r in rows if float(r[0]) == 0.0]
    assert zero_rows
    for r in zero_rows:
        assert np.isclose(float(r[5]), expected, rtol=1e-9)


def test_evolve_matches_library(tmp_path):
    out = tmp_path / "evolve.csv"
    proc = invoke("evolve", "--config", str(QUBIT_CFG),
                  "--elements", "0,1", "--times", "0:10:41",
                  "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    comments, header, rows, footers = read_csv(out)
    assert header == ["t", "re_0_1", "im_0_1"]
    assert len(rows) == 41
    assert footers and footers[-1].startswith("# ergodic_mean,")

    from resodec.dynamics import resonance_evolution
    from resodec.model import DensityMatrix
    cfg = load_config(QUBIT_CFG)
    spec = system_from_config(cfg)
    rho0 = DensityMatrix.from_array(matrix_from_config(
        cfg["evolve"]["initial_state"]))
    traj = resonance_evolution(spec, rho0, np.linspace(0.0, 10.0, 41))
    got = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    assert np.max(np.abs(got - traj.element(0, 1))) <= 1e-11


def test_rates_output_consistency(tmp_path):
    out = tmp_path / "rates.csv"
    proc = invoke("rates", "--config", str(REG4_CFG), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    _, header, rows, _ = read_csv(out)
    assert header == ["e", "gamma", "gamma_conserving", "gamma_exchange",
                      "gamma_cross", "e0", "hamming", "group_size"]

    reg = register_from_config(load_config(REG4_CFG))
    d_zero = thermal_spectral_density(reg.g1, reg.beta, 0.0)
    for r in rows:
        gamma, g_cons, g_exch, g_cross = map(float, r[1:5])
        e0, hamming = int(r[5]), int(r[6])
        assert np.isclose(gamma, g_cons + g_exch + g_cross, atol=1e-15)
        assert np.isclose(
            g_cons, reg.lambda1 ** 2 * (np.pi / 2) * d_zero * e0 ** 2,
            rtol=1e-9, atol=1e-15)
        assert abs(e0) <= hamming


def test_scaling_output(tmp_path):
    cfg = {
        "beta": 0.5,
        "scaling": {
            "n_list": [2, 3],
            "b_interval": [0.45, 0.55],
            "lambda1": 0.01, "lambda2": 0.01,
            "g1": {"p": -0.5, "m": 1, "scale": 1.0},
            "g2": {"p": 0.5, "m": 1, "scale": 1.0},
        },
    }
    path = tmp_path / "scaling.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "scaling.csv"
    proc = invoke("scaling", "--config", str(path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    _, header, rows, footers = read_csv(out)
    assert header == ["N", "max_gamma_conserving", "max_gamma_exchange",
                      "gamma0"]
    assert [int(r[0]) for r in rows] == [2, 3]
    assert any(f.startswith("# conserving_exponent: ") for f in footers)
    assert any(f.startswith("# exchange_exponent: ") for f in footers)
    assert any(f.startswith("# gamma0_spread: ") for f in footers)


def test_xi_grid_output(tmp_path):
    out = tmp_path / "xi.csv"
    proc = invoke("xi", "--config", str(XI_CFG), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    _, header, rows, _ = read_csv(out)
    assert header == ["eta", "xi", "xi_lorentzian_eps1e-3", "abs_diff"]
    assert len(rows) == 41

    cfg = load_config(XI_CFG)
    ff = form_factor_from_config(cfg["form_factor"])
    for r in rows[::8]:
        eta = float(r[0])
        assert np.isclose(float(r[1]), xi(ff, 2.0, eta), atol=1e-14)
        assert np.isclose(float(r[3]), abs(float(r[1]) - float(r[2])),
                          atol=1e-15)


def test_verify_failure_exit_code(tmp_path):
    cfg = json.loads(VERIFY_CFG.read_text())
    cfg["verify"]["n_modes"] = 5
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "verify.csv"
    proc = invoke("verify", "--config", str(path), "-o", str(out))
    assert proc.returncode == 3
    assert "ERROR[3]:" in proc.stderr
    _, header, rows, _ = read_csv(out)
    assert header == ["check", "deviation", "tolerance", "status",
                      "detail"]
    assert rows[0][0] == "bath-discretization"
    assert rows[0][3] == "FAIL"
    # the human-readable report rides on stdout when a file holds the CSV
    assert "overall: FAIL" in proc.stdout


# =====================================================================
# Exit codes and argument handling (in-process for speed)
# =====================================================================

def test_exit_code_validation_errors(tmp_path, capsys):
    assert run(["nonsense", "--config", "x.json"]) == 1
    assert run([]) == 1
    assert "ERROR[1]" in capsys.readouterr().err

    assert run(["spectrum", "--config",
                str(tmp_path / "missing.json")]) == 1
    assert "ERROR[1]" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "beta": 1.0}))
    assert run(["spectrum", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and "energies" in err


def test_exit_code_numerical_error(tmp_path, capsys):
    cfg = {"form_factor": {"p": -0.6, "m": 1, "scale": 1.0},
           "beta": 2.0,
           "xi_grid": {"start": 0.0, "stop": 1.0, "num": 5}}
    path = tmp_path / "ir.json"
    path.write_text(json.dumps(cfg))
    assert run(["xi", "--config", str(path)]) == 2
    assert "ERROR[2]" in capsys.readouterr().err


def test_seed_echo_and_version(tmp_path, capsys):
    out = tmp_path / "seeded.csv"
    assert run(["xi", "--config", str(XI_CFG), "--seed", "0x1F",
                "-o", str(out)]) == 0
    comments, _, _, _ = read_csv(out)
    assert "# seed: 31" in comments

    assert run(["--version"]) == 0
    assert run(["spectrum", "--config", str(XI_CFG), "--seed",
                "not-a-seed"]) == 1


def test_programming_errors_are_not_relabelled(monkeypatch):
    # only configuration parsing maps TypeError/ValueError/KeyError to
    # exit 1; the same exceptions from computation are bugs
    import resodec.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("bug in a handler")

    monkeypatch.setattr(cli, "resonance_energies", broken)
    with pytest.raises(TypeError, match="bug in a handler"):
        run(["spectrum", "--config", str(QUBIT_CFG)])


def test_verify_section_validation(tmp_path, capsys):
    with pytest.raises(ValueError, match="method"):
        VerifyConfig(method="krylov")
    cfg = json.loads(VERIFY_CFG.read_text())
    path = tmp_path / "verify.json"

    cfg["verify"]["method"] = "krylov"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and "krylov" in err

    # an initial state of the right size reaches the checks (the coarse
    # bath then fails verification); a wrong size is a validation error
    del cfg["verify"]["method"]
    cfg["verify"]["n_modes"] = 5
    cfg["verify"]["initial_state"] = [[[0.5, 0.0], [0.5, 0.0]],
                                      [[0.5, 0.0], [0.5, 0.0]]]
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path),
                "-o", str(tmp_path / "out.csv")]) == 3
    cfg["verify"]["initial_state"] = [[[1.0, 0.0]]]
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 1
    assert "dimension 2" in capsys.readouterr().err

    assert run(["spectrum", "--config", str(QUBIT_CFG), "--tol", "0"]) == 1


def test_verify_section_rejects_unknown_keys(tmp_path, capsys):
    cfg = json.loads(VERIFY_CFG.read_text())
    cfg["verify"]["n_mode"] = 40          # misspelt n_modes
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and "n_mode" in err


def test_rates_rejects_large_register_before_field_scan(
        tmp_path, monkeypatch, capsys):
    import resodec.register as register

    def no_scan(*args, **kwargs):
        pytest.fail("the generic-field scan ran before the size check")

    monkeypatch.setattr(register, "generic_field_check", no_scan)
    n = 11
    cfg = {"register": {"n": n, "J": np.zeros((n, n)).tolist(),
                        "B": np.linspace(0.45, 0.55, n).tolist(),
                        "lambda1": 0.01, "lambda2": 0.01,
                        "g1": {"p": -0.5, "m": 1}, "g2": {"p": 0.5, "m": 1}},
           "beta": 0.5}
    path = tmp_path / "reg11.json"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and "11 qubits" in err
