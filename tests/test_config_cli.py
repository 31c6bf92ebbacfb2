"""Configuration schema, hashing, and the command-line surface."""

import errno
import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from resodec.config import (
    config_hash,
    evolve_from_config,
    form_factor_from_config,
    load_config,
    matrix_from_config,
    register_from_config,
    scaling_from_config,
    system_from_config,
    verify_from_config,
    xi_from_config,
    _integer,
)
from resodec.cli import build_parser, run
from resodec.errors import BadConfiguration, ValidationError
from resodec.model import RegisterSpec, SystemSpec
from resodec.oracle import VerifyConfig
from resodec.reservoir import thermal_spectral_density, xi

from conftest import CONFIG_DIR, NARROW_B_INTERVAL, NEAR_RELATION_FIELDS

QUBIT_CFG = CONFIG_DIR / "single_qubit.json"
REG4_CFG = CONFIG_DIR / "reg4.json"
XI_CFG = CONFIG_DIR / "xi_grid.json"
VERIFY_CFG = CONFIG_DIR / "verify_qubit.json"
SCALING_CFG = CONFIG_DIR / "scaling.json"


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
    got = matrix_from_config([[[0.5, -1.0], [2.0, 0.0]],
                              [[0.0, 3.0], [-0.25, 0.125]]])
    assert np.array_equal(got, [[0.5 - 1.0j, 2.0], [3.0j, -0.25 + 0.125j]])
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
    assert ff.overall_scale == 1.0
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


def test_merged_groups_exit_0_from_the_module(tmp_path):
    # fields the generic check passes but the clustering merges: rates
    # and scaling finish with a warning, not a traceback
    reg4 = json.loads(REG4_CFG.read_text())
    reg4["register"]["B"] = [0.5, -0.4999999999, 0.484295, 0.542906]
    scaling = json.loads(SCALING_CFG.read_text())
    scaling["scaling"].update(b_interval=list(NARROW_B_INTERVAL),
                              n_list=[2, 3, 4])
    for command, cfg, warning in (
            ("rates", reg4, "hold pairs with different (D, e0)"),
            ("scaling", scaling, "not one per flip pattern")):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        proc = invoke(command, "--config", str(path), "-o",
                      str(tmp_path / f"{command}.csv"))
        assert proc.returncode == 0, proc.stderr
        assert "UserWarning" in proc.stderr and warning in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("B, n_merged", NEAR_RELATION_FIELDS)
def test_rates_on_near_relation_fields(tmp_path, B, n_merged):
    from resodec.register import decoherence_rates

    cfg = json.loads(REG4_CFG.read_text())
    n = len(B)
    cfg["register"].update(n=n, B=B, J=np.zeros((n, n)).tolist())
    path = tmp_path / "near.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "near.csv"
    with pytest.warns(UserWarning, match=f"^{n_merged} of "):
        assert run(["rates", "--config", str(path), "-o", str(out)]) == 0
    with pytest.warns(UserWarning, match=f"^{n_merged} of "):
        reports = decoherence_rates(register_from_config(cfg))
    _, _, rows, _ = read_csv(out)
    assert [(r[0], int(r[5]), int(r[6]), int(r[7])) for r in rows] \
        == [(format(rep.e, ".12e"), rep.e0, rep.hamming, len(rep.pairs))
            for rep in reports]


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


def test_package_provides_only_the_version(tmp_path):
    # the names live in the submodules: loading the value types and the
    # configuration loaders pulls in no scipy
    probe = ("import sys, resodec.model, resodec.config, resodec; "
             "print(resodec.__version__); "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    version, scipy_modules = proc.stdout.splitlines()
    assert scipy_modules == "[]"

    # and the package's version is the one stamped on every CSV
    out = tmp_path / "xi.csv"
    proc = invoke("xi", "--config", str(XI_CFG), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    comments, _, _, _ = read_csv(out)
    assert f"# version: {version}" in comments


def test_every_module_lists_exactly_its_public_names():
    # each name of a submodule's __all__ resolves, and each public
    # function or class defined there is listed
    import importlib
    import inspect
    import pkgutil

    import resodec

    for info in pkgutil.iter_modules(resodec.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"resodec.{info.name}")
        listed = module.__all__
        assert [n for n in listed if not hasattr(module, n)] == [], \
            info.name
        defined = [name for name, value in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(value) or inspect.isclass(value))
                   and value.__module__ == module.__name__]
        assert sorted(set(defined) - set(listed)) == [], info.name


#: prints, as JSON, the scipy and mpmath modules that are loaded
_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('scipy', 'mpmath'))))")


def _beyond_quadpack(modules):
    """The modules beyond what resodec.reservoir._quad loads: scipy's
    compiled QUADPACK and, before it, scipy's top-level core."""
    return [m for m in modules if m != "scipy.integrate._quadpack"
            and not re.fullmatch(r"scipy(\._.*|\.version|\.__config__)?",
                                 m)]


def test_scipy_free_commands_load_no_scipy(tmp_path):
    # only verify needs scipy at large (sparse products and Bessel
    # coefficients): one interpreter runs spectrum, rates, evolve and
    # scaling on their demo configurations without loading any of it,
    # then xi, whose Lorentzian check loads scipy's compiled QUADPACK
    # and scipy's core, but not scipy.integrate itself
    commands = [
        ["spectrum", "--config", str(QUBIT_CFG)],
        ["spectrum", "--config", str(CONFIG_DIR / "three_level.json"),
         "--check-nonoverlap"],
        ["rates", "--config", str(REG4_CFG)],
        ["evolve", "--config", str(CONFIG_DIR / "three_level.json")],
        ["scaling", "--config", str(SCALING_CFG)],
    ]
    commands = [argv + ["-o", str(tmp_path / f"{i}.csv")]
                for i, argv in enumerate(commands)]
    xi_command = ["xi", "--config", str(XI_CFG),
                  "-o", str(tmp_path / "xi.csv")]
    probe = ("import json, sys, resodec.cli; "
             "print([resodec.cli.run(argv) "
             f"for argv in json.loads(sys.argv[1])]); {_LOADED}; "
             f"print(resodec.cli.run(json.loads(sys.argv[2]))); {_LOADED}")
    proc = subprocess.run([sys.executable, "-c", probe,
                           json.dumps(commands), json.dumps(xi_command)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, before_xi, xi_code, after_xi = proc.stdout.splitlines()
    assert (codes, json.loads(before_xi)) == ("[0, 0, 0, 0, 0]", [])
    assert xi_code == "0"
    assert "scipy.integrate._quadpack" in json.loads(after_xi)
    assert _beyond_quadpack(json.loads(after_xi)) == []


def test_only_register_commands_load_numpy_random(tmp_path):
    # numpy.random comes with the register layer, whose field draws only
    # rates and scaling need: one interpreter runs spectrum (both demo
    # configurations), evolve and xi without loading either, then rates,
    # which loads both; scaling, alone in a second one, loads both too
    free = [
        ["spectrum", "--config", str(QUBIT_CFG)],
        ["spectrum", "--config", str(CONFIG_DIR / "three_level.json"),
         "--check-nonoverlap"],
        ["evolve", "--config", str(CONFIG_DIR / "three_level.json")],
        ["xi", "--config", str(XI_CFG)],
    ]
    rates = [["rates", "--config", str(REG4_CFG)]]
    scaling = [["scaling", "--config", str(SCALING_CFG)]]
    loaded = ("print(json.dumps(sorted({'numpy.random', 'resodec.register'}"
              " & set(sys.modules))))")
    probe = ("import json, sys, resodec.cli\n"
             "for argvs in json.loads(sys.argv[1]):\n"
             "    print([resodec.cli.run(argv) for argv in argvs])\n"
             f"    {loaded}")
    both = ["numpy.random", "resodec.register"]
    for runs, want in (([free, rates], [[], both]), ([scaling], [both])):
        runs = [[argv + ["-o", str(tmp_path / f"{argv[0]}{i}.csv")]
                 for i, argv in enumerate(argvs)] for argvs in runs]
        proc = subprocess.run([sys.executable, "-c", probe,
                               json.dumps(runs)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[::2] == [str([0] * len(argvs)) for argvs in runs]
        assert [json.loads(line) for line in lines[1::2]] == want


def test_closed_form_reservoir_diagnostics_load_no_scipy_or_mpmath():
    # Condition (A) and the inverse-frequency moment are closed forms;
    # the Lorentzian check then loads scipy's compiled QUADPACK and
    # scipy's core, and neither scipy.integrate nor mpmath
    probe = ("import json, sys; "
             "from resodec.model import FormFactor; "
             "from resodec.reservoir import check_condition_A, "
             "mean_inverse_frequency, xi_lorentzian_check; "
             "ff = FormFactor(radial_exponent=0.5, decay_exponent=2); "
             "print(check_condition_A(ff).passed, "
             f"mean_inverse_frequency(ff) > 0.0); {_LOADED}; "
             f"print(xi_lorentzian_check(ff, 2.0, 1.1, 1e-3) > 0.0); "
             f"{_LOADED}")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    closed_forms, before, check, after = proc.stdout.splitlines()
    assert (closed_forms, json.loads(before)) == ("True True", [])
    assert check == "True"
    assert "scipy.integrate._quadpack" in json.loads(after)
    assert _beyond_quadpack(json.loads(after)) == []


def test_oracle_loads_no_scipy_integrate():
    # the oracle's bath-weight check is a closed form (through gammainc),
    # with no quadrature; gammainc and the Chebyshev coefficients' jv
    # come from scipy.special's compiled ufunc module, without the
    # scipy.special package, and the ladder products from scipy.sparse's
    # compiled kernels, without the scipy.sparse package
    probe = textwrap.dedent("""
        import sys
        import numpy as np
        from resodec.model import FormFactor, build_system
        from resodec.oracle import discretize_bath, exact_evolve
        ff = FormFactor(radial_exponent=0.5, decay_exponent=2)
        spec = build_system([0.0, 1.0], [(0.05, [[0, 1], [1, 0]], ff)],
                            beta=2.0)
        bath = discretize_bath(ff, 2.0, 30, 3.0, 2)
        exact_evolve(spec, bath, np.eye(2) / 2, [0.0, 0.5, 1.0])
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.integrate", "scipy.special",
                                      "scipy.sparse"))))
        """)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['scipy.sparse._sparsetools', 'scipy.special._special_ufuncs']"]


def test_verify_import_failure_is_not_exit_1(monkeypatch):
    # verify imports the oracle when it runs, outside the configuration
    # parsing whose errors are exit 1: a failed import stays an error
    monkeypatch.setitem(sys.modules, "resodec.oracle", None)
    with pytest.raises(ImportError):
        run(["verify", "--config", str(VERIFY_CFG)])


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


def test_main_exits_4_on_a_bug(tmp_path, monkeypatch, capsys):
    # an exception that run lets through leaves main with its traceback
    # and exit 4, never with a configuration error's 1
    import resodec.cli as cli

    def broken(*args):
        raise TypeError("bug in a handler")

    monkeypatch.setattr(cli, "_cmd_spectrum", broken)
    monkeypatch.setattr(sys, "argv",
                        ["resodec", "spectrum", "--config", str(QUBIT_CFG)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: bug in a handler" in err

    monkeypatch.setattr(sys, "argv", ["resodec", "rates", "--config",
                                      str(tmp_path / "missing.json")])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


@pytest.mark.parametrize("to_file", [False, True],
                         ids=["xi csv", "verify report"])
@pytest.mark.parametrize("error", [
    BrokenPipeError(errno.EPIPE, "Broken pipe"),
    OSError(errno.ENOSPC, "No space left on device"),
], ids=["closed pipe", "full disk"])
def test_a_failed_write_to_standard_output_exits_1(error, to_file, tmp_path,
                                                   monkeypatch, capsys):
    # a closed pipe or a full disk on standard output is an environment
    # fault like an unwritable -o path: exit 1, never a bug's traceback;
    # with the CSV in a file, verify's report is what goes there
    class Failing:
        def write(self, text):
            raise error

    argv = ["xi", "--config", str(XI_CFG)]
    if to_file:
        cfg = json.loads(VERIFY_CFG.read_text())
        cfg["verify"]["n_modes"] = 5
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(cfg))
        argv = ["verify", "--config", str(path),
                "-o", str(tmp_path / "verify.csv")]
    monkeypatch.setattr(sys, "stdout", Failing())
    assert run(argv) == 1
    assert capsys.readouterr().err == \
        f"ERROR[1]: cannot write output '-': {error}\n"


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
def test_write_failures_exit_1_from_the_module(unbuffered):
    # evolve's three-level CSV (75 kB) outgrows a 64 kB pipe, so closing
    # the pipe after its first line fails a write; the interpreter's own
    # flush at exit must not add a message or change the code
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "resodec", "evolve", "--config",
         str(CONFIG_DIR / "three_level.json")], env=env, bufsize=0,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()      # unbuffered: byte by byte
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == 1
    assert first.startswith(b"# config_hash: ")
    assert err == "ERROR[1]: cannot write output '-': [Errno 32] Broken pipe\n"

    if not os.path.exists("/dev/full"):
        return
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "resodec", "xi", "--config", str(XI_CFG)],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=300)
    assert proc.returncode == 1
    assert proc.stderr == ("ERROR[1]: cannot write output '-': "
                           "[Errno 28] No space left on device\n")


def test_verify_section_validation(tmp_path, capsys):
    # the oracle engine is chosen automatically: "method" is no key of
    # the section
    with pytest.raises(TypeError, match="method"):
        VerifyConfig(method="krylov")
    cfg = json.loads(VERIFY_CFG.read_text())
    path = tmp_path / "verify.json"

    cfg["verify"]["method"] = "krylov"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and "unknown key(s) ['method']" in err

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

    # verify itself refuses to rescale an uncoupled system to a nonzero
    # lambda, before it discretizes a bath or writes a row
    cfg = json.loads(VERIFY_CFG.read_text())
    cfg["couplings"][0]["strength"] = 0.0
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("ERROR[1]: cannot rescale a spec with zero "
                            "coupling to a nonzero lambda\n")
    assert captured.out == ""

    assert run(["spectrum", "--config", str(QUBIT_CFG), "--tol", "0"]) == 1


@pytest.mark.parametrize("key, value", [
    ("lambdas", []), ("horizon_factor", -5.0), ("horizon_factor", 0.0),
    ("rate_tolerance", -0.2),
])
def test_verify_section_rejects_empty_or_nonpositive_values(
        tmp_path, capsys, key, value):
    # run, these would report a vacuous PASS (no lambda, a zero horizon)
    # or a spurious verification failure (exit 3)
    cfg = json.loads(VERIFY_CFG.read_text())
    cfg["verify"][key] = value
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and key in err


def test_integer_values_accept_integral_floats_only():
    assert _integer(3, "x") == 3 and _integer(20.0, "x") == 20
    for bad in (1.5, 20.7, "3", True, None):
        with pytest.raises(BadConfiguration, match="x must be an integer"):
            _integer(bad, "x")
    assert form_factor_from_config({"p": 0.5, "m": 2.0}) == \
        form_factor_from_config({"p": 0.5, "m": 2})


def _set(*path):
    """Mutator that sets cfg[path[0]]...[path[-2]] = path[-1]."""
    def apply(cfg):
        *keys, last, value = path
        for key in keys:
            cfg = cfg[key]
        cfg[last] = value
    return apply


@pytest.mark.parametrize("command, config, mutate, context", [
    ("spectrum", QUBIT_CFG,
     _set("couplings", 0, "form_factor", "m", 1.5),
     "couplings[0].form_factor.m"),
    ("spectrum", QUBIT_CFG, _set("dim", 2.5), "dim"),
    ("rates", REG4_CFG, _set("register", "n", 4.5), "register.n"),
    ("scaling", SCALING_CFG, _set("scaling", "n_list", 1, 3.5),
     "scaling.n_list"),
    ("xi", XI_CFG, _set("xi_grid", "num", 40.5), "xi_grid.num"),
    ("evolve", QUBIT_CFG, _set("evolve", "times", "num", 20.5),
     "evolve.times.num"),
    ("verify", VERIFY_CFG, _set("verify", "n_modes", 20.7),
     "verify.n_modes"),
    ("verify", VERIFY_CFG, _set("verify", "num_times", "161"),
     "verify.num_times"),
])
def test_non_integer_config_values_exit_1(tmp_path, capsys, command,
                                          config, mutate, context):
    # no silent truncation: 1.5 is not run as 1
    cfg = json.loads(config.read_text())
    mutate(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and f"{context} must be an integer" in err


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


# =====================================================================
# Section loaders: every value checked
# =====================================================================

def _leaves(node, path=()):
    """Key paths of the values of a JSON document that are neither
    objects nor arrays."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _commands_reading(cfg, key):
    """Subcommands that read the top-level ``key`` of ``cfg``: a
    section is read by its own subcommand only, system or register data
    and beta by every subcommand the file serves."""
    sections = {"evolve": "evolve", "verify": "verify",
                "scaling": "scaling", "xi_grid": "xi"}
    served = [command for section, command in sections.items()
              if section in cfg]
    if key in sections:
        return [sections[key]]
    if "scaling" in cfg or "xi_grid" in cfg:
        return served
    return ["spectrum", *(["rates"] if "register" in cfg else []), *served]


def test_every_leaf_of_the_shipped_configs_is_checked(tmp_path, capsys):
    # a string, boolean, null or object in place of any value is exit 1:
    # true is never read as 1.0, null never as NaN
    path = tmp_path / "mutated.json"
    runs = 0
    for source in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(source.read_text())
        for *keys, last in _leaves(cfg):
            for value in ("x", True, None, {}):
                mutated = json.loads(source.read_text())
                _set(*keys, last, value)(mutated)
                path.write_text(json.dumps(mutated))
                for command in _commands_reading(cfg, (*keys, last)[0]):
                    code = run([command, "--config", str(path)])
                    err = capsys.readouterr().err
                    where = (source.name, *keys, last, value, command)
                    assert code == 1 and "ERROR[1]" in err, where
                    runs += 1
    assert runs == 1520


def _objects(node, path=()):
    """Key paths of the objects nested below the top level of a JSON
    document."""
    if isinstance(node, dict) and path:
        yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _objects(child, path + (key,))


def test_every_object_below_the_top_level_refuses_unknown_keys(tmp_path,
                                                               capsys):
    # a misspelt key is exit 1 in every command that reads its object,
    # never ignored in favour of a default
    path = tmp_path / "mutated.json"
    runs = 0
    for source in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(source.read_text())
        for keys in _objects(cfg):
            mutated = json.loads(source.read_text())
            _set(*keys, "typo", 1)(mutated)
            path.write_text(json.dumps(mutated))
            for command in _commands_reading(cfg, keys[0]):
                code = run([command, "--config", str(path)])
                err = capsys.readouterr().err
                where = (source.name, *keys, command)
                assert code == 1 and "ERROR[1]" in err, where
                assert "unknown key(s) ['typo']" in err, where
                runs += 1
    assert runs == 40
    # a form factor is {p, m, scale}: there is no angular weight
    cfg = json.loads(XI_CFG.read_text())
    cfg["form_factor"]["weight"] = 0.5
    path.write_text(json.dumps(cfg))
    assert run(["xi", "--config", str(path)]) == 1
    assert "unknown key(s) ['weight'] in form_factor" \
        in capsys.readouterr().err


@pytest.mark.parametrize("loader, path, mutate, message", [
    (register_from_config, REG4_CFG, _set("register", "lambda1", "0.01"),
     "register.lambda1 must be a finite number"),
    (register_from_config, REG4_CFG, _set("register", "B", 0, 10 ** 400),
     "register.B must be an array of finite numbers"),
    (system_from_config, QUBIT_CFG, _set("beta", True),
     "beta must be a finite number"),
    (system_from_config, QUBIT_CFG, _set("beta", float("inf")),
     "beta must be a finite number"),
    (system_from_config, QUBIT_CFG, _set("energies", [0.0, [1.0]]),
     "energies must be an array of finite numbers"),
    (evolve_from_config, QUBIT_CFG,
     _set("evolve", "initial_state", 0, 1, 0, None),
     "evolve.initial_state must be an array of finite numbers"),
    (evolve_from_config, QUBIT_CFG, _set("evolve", [1]),
     "evolve must be an object"),
    (scaling_from_config, SCALING_CFG, _set("scaling", "lambda1", "0.01"),
     "scaling.lambda1 must be a finite number"),
    (scaling_from_config, SCALING_CFG,
     _set("scaling", "b_interval", [0.45, True]),
     "scaling.b_interval must be a 1-d array of finite numbers"),
    (scaling_from_config, SCALING_CFG,
     _set("scaling", "b_interval", [0.45, 0.5, 0.55]),
     r"b_interval must be a finite \(low, high\) pair"),
    (xi_from_config, XI_CFG, _set("xi_grid", "stop", None),
     "xi_grid.stop must be a finite number"),
    (xi_from_config, XI_CFG, _set("form_factor", "scale", "1"),
     "form_factor.scale must be a finite number"),
    (verify_from_config, VERIFY_CFG, _set("verify", "omega_max", False),
     "verify.omega_max must be a finite number"),
    (verify_from_config, VERIFY_CFG, _set("verify", "lambdas", [[0.01]]),
     "verify.lambdas must be a 1-d array of finite numbers"),
    (verify_from_config, VERIFY_CFG, _set("verify", "n_modes", 0),
     "n_modes must be >= 1"),
])
def test_section_loaders_raise_bad_configuration(loader, path, mutate,
                                                 message):
    cfg = json.loads(path.read_text())
    mutate(cfg)
    with pytest.raises(ValidationError, match=message):
        loader(cfg)


def test_section_loaders_read_the_shipped_configs():
    spec, rho0, times = evolve_from_config(load_config(QUBIT_CFG))
    assert spec.dim == 2 and rho0.dim == 2
    assert np.array_equal(times, np.linspace(0.0, 50.0, 201))
    # the override replaces evolve.times, which may then be absent
    cfg = load_config(QUBIT_CFG)
    del cfg["evolve"]["times"]
    with pytest.raises(BadConfiguration, match="missing key 'times'"):
        evolve_from_config(cfg)
    assert np.array_equal(evolve_from_config(cfg, (0.0, 10.0, 41))[2],
                          np.linspace(0.0, 10.0, 41))

    template, n_list = scaling_from_config(load_config(SCALING_CFG))
    assert n_list == [2, 3, 4, 5, 6] and template.b_interval == (0.45, 0.55)
    cfg = load_config(SCALING_CFG)
    del cfg["scaling"]["b_interval"]
    from resodec.register import RegisterTemplate
    assert scaling_from_config(cfg)[0].b_interval \
        == RegisterTemplate.b_interval

    ff, beta, grid = xi_from_config(load_config(XI_CFG))
    assert (ff.decay_exponent, beta, len(grid)) == (2, 2.0, 41)

    system, vconfig, rho0 = verify_from_config(load_config(VERIFY_CFG))
    assert vconfig == VerifyConfig(n_modes=200, lambdas=(0.01,))
    assert rho0 is None and system.dim == 2
    # the section is optional
    cfg = load_config(VERIFY_CFG)
    del cfg["verify"]
    assert verify_from_config(cfg)[1] == VerifyConfig()


def test_evolve_times_override_without_config_grid(tmp_path, capsys):
    cfg = json.loads(QUBIT_CFG.read_text())
    del cfg["evolve"]["times"]
    path = tmp_path / "no_times.json"
    path.write_text(json.dumps(cfg))
    assert run(["evolve", "--config", str(path)]) == 1
    assert "missing key 'times'" in capsys.readouterr().err
    out = tmp_path / "evolve.csv"
    assert run(["evolve", "--config", str(path), "--times", "0:10:41",
                "-o", str(out)]) == 0
    assert len(read_csv(out)[2]) == 41
    # num is an integer or an integral float, as evolve.times.num is
    assert run(["evolve", "--config", str(path), "--times", "0:10:41.0",
                "-o", str(out)]) == 0
    assert len(read_csv(out)[2]) == 41
    for times, message in (("0:10", "start:stop:num"),
                           ("0:x:41", "numeric fields"),
                           ("0:inf:41", "--times.stop must be a finite"),
                           ("0:10:0", "--times.num must be >= 1"),
                           ("0:10:2.5", "--times.num must be an integer")):
        assert run(["evolve", "--config", str(path), "--times", times]) == 1
        assert message in capsys.readouterr().err, times


def test_evolve_times_is_checked_under_the_override(tmp_path, capsys):
    # a misspelt evolve.times fails with and without --times
    cfg = json.loads(QUBIT_CFG.read_text())
    cfg["evolve"]["times"] = {"start": 0, "stop": 1, "nun": 5}
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(cfg))
    for flags in ([], ["--times", "0:1:3"]):
        assert run(["evolve", "--config", str(path),
                    "-o", str(tmp_path / "evolve.csv"), *flags]) == 1
        assert "unknown key(s) ['nun'] in evolve.times" \
            in capsys.readouterr().err, flags


@pytest.mark.parametrize("n_list", [[-1], [2, 2]])
def test_scaling_rejects_sizes_below_1_or_repeated(tmp_path, capsys,
                                                   n_list):
    cfg = json.loads(SCALING_CFG.read_text())
    cfg["scaling"]["n_list"] = n_list
    path = tmp_path / "scaling.json"
    path.write_text(json.dumps(cfg))
    assert run(["scaling", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "ERROR[1]" in err and "distinct sizes >= 1" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-9"])
def test_tol_must_be_finite_and_positive(tol):
    # --tol inf merged the qubit's four pairs into one e = 0 group and
    # printed a negative decay rate with exit 0
    assert run(["spectrum", "--config", str(QUBIT_CFG), "--tol", tol]) == 1


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--config", str(QUBIT_CFG), "--tol", "inf"],
     "resodec spectrum: argument --tol: tolerance must be finite and > 0"),
    (["spectrum", "--config", str(QUBIT_CFG), "--seed", "x"],
     "resodec spectrum: argument --seed: seed must be an integer"),
    (["bogus"], "resodec: argument command: invalid choice: 'bogus'"),
    (["spectrum", "--config", str(QUBIT_CFG), "--bogus"],
     "resodec: unrecognized arguments: --bogus"),
    (["spectrum"], "the following arguments are required: --config"),
    ([], "resodec: the following arguments are required: command"),
    (["spectrum", "--config", str(QUBIT_CFG), "-v"],
     "resodec: unrecognized arguments: -v"),
    *[(["evolve", "--config", str(CONFIG_DIR / "three_level.json"),
        *flags], message) for flags, message in (
        (["--elements", "0"], "element selection '0' is not of the form m,n"),
        (["--elements", "a,b"],
         "element selection 'a,b' has non-integer indices"),
        (["--elements", "0,5"], "element (0,5) outside a dimension-3 matrix"),
        (["--elements", ";"], "empty element selection"),
        (["--times", "0:10"], "--times must be start:stop:num with numeric "
                              "fields, got '0:10'"))],
    (["spectrum", "--config", str(QUBIT_CFG), "--seed",
      "0x10000000000000000"],
     "resodec spectrum: argument --seed: seed must fit in 64 unsigned bits"),
])
def test_flag_errors_print_one_error_line(argv, message, capsys):
    # a usage error is a validation error like any other: exit 1 and one
    # ERROR[1] line, not argparse's usage block
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR[1]: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""


def test_flag_errors_from_the_module():
    proc = invoke("spectrum", "--config", str(QUBIT_CFG), "--tol", "inf")
    assert proc.returncode == 1
    assert proc.stderr == ("ERROR[1]: resodec spectrum: argument --tol: "
                           "tolerance must be finite and > 0\n")
    for flag in ("--help", "--version"):
        proc = invoke(flag)
        assert proc.returncode == 0 and proc.stdout and not proc.stderr


def test_tol_is_offered_only_where_groups_are_clustered(capsys):
    parser = build_parser()
    for command in ("spectrum", "rates", "evolve", "scaling"):
        args = parser.parse_args([command, "--config", "c.json",
                                  "--tol", "1e-9"])
        assert args.tol == 1e-9
    for command, cfg in (("xi", XI_CFG), ("verify", VERIFY_CFG)):
        assert run([command, "--config", str(cfg), "--tol", "1e-3"]) == 1
        err = capsys.readouterr().err
        assert err == "ERROR[1]: resodec: unrecognized arguments: --tol 1e-3\n"
