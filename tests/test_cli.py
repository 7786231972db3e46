"""CLI exit codes, artifacts, determinism, and config parsing."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from embedfem.analysis import NewtonConfig
from embedfem.cli import main
from embedfem.config import (ConfigError, config_documentation, newton_config,
                             parse_config)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(tmp_path, config_text, overrides=(), flags=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "run.ini"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    argv = ["run", str(cfg), f"run.output_dir={out}", *overrides, *flags]
    return main(argv), out


LAPLACE = """
[run]
mode = solve

[geometry]
conductor_length = 1.0
pad_length = 0.0
slider_length = 0.0
height = 1.0
nx_conductor = 8
nx_pad = 0
nx_slider = 0
ny = 8

[materials]
beta = 0.0
joule = false
v0_x = 0.0
v0_y = 0.0
"""


def test_solve_laplace_exit_zero_and_artifacts(tmp_path):
    code, out = run_cli(tmp_path, LAPLACE)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_residual_norm"] <= 1e-10
    csv = (out / "solution.csv").read_text().splitlines()
    assert csv[0] == "nodeId,x,y,psi,T"
    assert len(csv) == 1 + summary["num_nodes"]
    vtk = (out / "solution.vtk").read_text()
    assert vtk.startswith("# vtk DataFile")
    assert "POINT_DATA" in vtk


def test_missing_required_section_exit_two(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "[run]\nmode = continuation\n")
    assert code == 2
    assert "continuation" in capsys.readouterr().err


def test_unknown_key_exit_two(tmp_path):
    code, _ = run_cli(tmp_path, "[run]\nmode = solve\nbogus = 1\n")
    assert code == 2


def test_removed_threads_key_exit_two(tmp_path, capsys):
    code, _ = run_cli(tmp_path, LAPLACE, overrides=["solver.threads=2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "threads" in err
    with pytest.raises(ConfigError, match="threads"):
        parse_config(tmp_path / "run.ini", ["solver.threads=2"])


def test_removed_workset_size_key_exit_two(tmp_path, capsys):
    # the partition never changes an output, so [solver] has no workset key
    code, _ = run_cli(tmp_path, (CONFIGS / "demo.ini").read_text(),
                      ["solver.workset_size=-5"])
    assert code == 2
    assert ("unknown key 'workset_size' in section [solver]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [("gmres_tol", "1e-8"),
                                        ("gmres_restart", "40"),
                                        ("gmres_max_iters", "100")])
def test_removed_gmres_keys_exit_two(tmp_path, capsys, key, value):
    code, _ = run_cli(tmp_path, LAPLACE, overrides=[f"solver.{key}={value}"])
    assert code == 2
    assert f"unknown key {key!r} in section [solver]" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("max_iters", 7), ("abs_tol", 1e-9),
                                        ("rel_tol", 1e-10),
                                        ("dense_dof_limit", 123)])
def test_solver_override_reaches_newton_config(tmp_path, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(LAPLACE)
    newton = newton_config(parse_config(cfg, [f"solver.{key}={value}"]))
    assert newton == dataclasses.replace(NewtonConfig(), **{key: value})


def test_bad_override_exit_two(tmp_path):
    code, _ = run_cli(tmp_path, LAPLACE, overrides=["notakeyvalue"])
    assert code == 2


def test_solver_failure_exit_one(tmp_path):
    # one iteration cannot converge the coupled demo from scratch
    code, _ = run_cli(tmp_path, "[run]\nmode = solve\n",
                      overrides=["solver.max_iters=1",
                                 "solver.abs_tol=1e-14",
                                 "solver.rel_tol=1e-15"])
    assert code == 1


def test_singular_ilu_factor_exit_one_without_traceback(tmp_path, capsys):
    # the 32 x 32 strip (2,178 dofs) is above dense_dof_limit, and ILU(0) of
    # its Jacobian hits an exactly zero pivot
    code, _ = run_cli(tmp_path, (CONFIGS / "demo.ini").read_text(),
                      ["geometry.nx_conductor=16", "geometry.nx_pad=4",
                       "geometry.nx_slider=12", "geometry.ny=32"])
    assert code == 1
    err = capsys.readouterr().err
    assert "solver failure: ILU factorization failed" in err
    assert "Traceback" not in err


def test_summary_bitwise_deterministic(tmp_path):
    code1, out1 = run_cli(tmp_path / "a", LAPLACE)
    code2, out2 = run_cli(tmp_path / "b", LAPLACE)
    assert code1 == code2 == 0
    a = (out1 / "summary.json").read_bytes()
    b = (out2 / "summary.json").read_bytes()
    assert a == b
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_override_changes_parameter(tmp_path):
    code, out = run_cli(tmp_path, LAPLACE, overrides=["parameters.Alpha=2.0"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["parameters"]["Alpha"] == 2.0


def test_dump_graph_writes_dag_files(tmp_path):
    code, out = run_cli(tmp_path, LAPLACE, flags=["--dump-graph"])
    assert code == 0
    text = (out / "graph_Residual.txt").read_text()
    assert "gather_solution" in text and "scatter_residual" in text
    dot = (out / "graph_Jacobian.dot").read_text()
    assert dot.startswith("digraph")
    ensemble = (out / "graph_EnsembleResidual.txt").read_text()
    assert ensemble == text
    assert (out / "graph_EnsembleResidual.dot").read_text().startswith(
        'digraph "EnsembleResidual"')


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for key in ("conductor_length", "abs_tol",
                "psi.left_conductor_end", "PadSigma0"):
        assert key in out


def test_docs_defaults_match_dataclasses():
    from embedfem.config import GeometrySection
    doc = config_documentation()
    assert f"nx_conductor = {GeometrySection().nx_conductor}" in doc
    assert f"abs_tol = {NewtonConfig().abs_tol}" in doc


def test_parse_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_parse_config_type_errors(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nmode = solve\n\n[geometry]\nny = not_an_int\n")
    with pytest.raises(ConfigError, match="ny"):
        parse_config(cfg)


def test_peclet_warning(tmp_path):
    cfg = tmp_path / "pec.ini"
    cfg.write_text("[run]\nmode = solve\n\n[materials]\nv0_x = -100.0\n")
    with pytest.warns(UserWarning, match="Peclet"):
        parse_config(cfg)


def test_shipped_configs_parse():
    for name in ("demo.ini", "laplace8.ini", "continuation.ini",
                 "optimize.ini", "uq.ini", "verify.ini"):
        cfg = parse_config(CONFIGS / name)
        assert cfg.run.mode in ("solve", "continuation", "optimize", "uq", "verify")


@pytest.mark.parametrize("config_text", [(CONFIGS / "demo.ini").read_text(),
                                         "[run]\nmode = verify\n"],
                         ids=["demo", "verify"])
def test_solver_section_reaches_every_newton_solve(tmp_path, capsys,
                                                   config_text):
    # verify's manufactured-solution solves take [solver] as solve mode does
    code, _ = run_cli(tmp_path, config_text,
                      ["solver.max_iters=1", "solver.abs_tol=1e-300",
                       "solver.rel_tol=1e-300"])
    assert code == 1
    err = capsys.readouterr().err
    assert "solver failure: Newton did not converge in 1 iterations" in err
    assert "Traceback" not in err


def test_verify_mode_writes_pass_fail_table(tmp_path):
    cfg_text = """
[run]
mode = verify

[geometry]
nx_conductor = 4
nx_pad = 1
nx_slider = 3
ny = 8

[materials]
v0_x = -5.0
"""
    code, out = run_cli(tmp_path, cfg_text)
    assert code == 0
    table = (out / "verify.csv").read_text().splitlines()
    assert table[0].startswith("check,status")
    assert all(",PASS," in line for line in table[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert all(c["passed"] for c in summary["checks"])


@pytest.mark.parametrize("override, message", [
    ("uq.degree=-1", "uq.degree"),
    ("uq.nisp_order=0", "uq.nisp_order"),
    ("uq.parameter=Bogus", "Bogus"),
    ("uq.expansion=35,abc", "uq.expansion"),
])
def test_bad_uq_section_exit_two(tmp_path, capsys, override, message):
    code, _ = run_cli(tmp_path, (CONFIGS / "uq.ini").read_text(), [override])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("config", ["uq.ini", "verify.ini"])
def test_uncertain_conductivity_must_stay_positive(tmp_path, capsys, config):
    # 35 + 40 xi is -5 at xi = -1; 35 + 15 xi stays positive on [-1, 1]
    parse_config(CONFIGS / config, ["uq.expansion=35.0, 15.0"])
    code, _ = run_cli(tmp_path, (CONFIGS / config).read_text(),
                      ["uq.expansion=35.0, 40.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "PadSigma0" in err


@pytest.mark.parametrize("config, overrides", [
    ("demo.ini", ["geometry.ny=0"]),
    ("demo.ini", ["geometry.height=-1"]),
    ("demo.ini", ["geometry.nx_pad=0"]),
    ("demo.ini", ["materials.kappa=0"]),
    ("demo.ini", ["solver.abs_tol=0"]),
    ("demo.ini", ["materials.sigma0_pad=50"]),
    ("continuation.ini", ["continuation.steps=0"]),
    ("continuation.ini", ["geometry.nx_slider=0", "geometry.slider_length=0"]),
    ("optimize.ini", ["optimize.parameters=deflection,deflection_top,"
                      "deflection_bottom", "optimize.start=0.1,0.1,0.1"]),
])
def test_bad_config_value_exits_two_without_traceback(tmp_path, capsys, config,
                                                       overrides):
    code, _ = run_cli(tmp_path, (CONFIGS / config).read_text(), overrides)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_verify_runs_spectral_check_at_configured_nisp_order(tmp_path,
                                                             monkeypatch):
    from embedfem import verification
    orders = []
    sg_vs_nisp = verification.sg_vs_nisp

    def spy(model, expansion, nisp_order, config):
        orders.append(nisp_order)
        return sg_vs_nisp(model, expansion, nisp_order, config)

    monkeypatch.setattr(verification, "sg_vs_nisp", spy)
    cfg_text = """
[run]
mode = verify

[geometry]
nx_conductor = 4
nx_pad = 1
nx_slider = 3
ny = 8

[materials]
v0_x = -5.0

[uq]
nisp_order = 3
"""
    run_cli(tmp_path, cfg_text)
    assert orders == [3]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "sg_vs_nisp" in [c["name"] for c in summary["checks"]]


@pytest.mark.parametrize("config, overrides, message", [
    ("demo.ini", ["solver.max_iters=0"], "[solver] max_iters must be >= 1"),
    ("demo.ini", ["solver.max_iters=-1"], "[solver] max_iters must be >= 1"),
    ("optimize.ini", ["optimize.lower=0.3", "optimize.upper=-0.3"],
     "[optimize] lower (0.3) must be below upper (-0.3)"),
    ("optimize.ini", ["optimize.max_iters=0"],
     "[optimize] max_iters must be >= 1"),
    ("optimize.ini", ["optimize.tol=0"], "[optimize] tol must be positive"),
    ("optimize.ini", ["optimize.upper=nan"], "[optimize] lower (-0.3) must "
     "be below upper (nan)"),
    ("demo.ini", ["solver.abs_tol=nan"], "[solver] tolerances must be "
     "positive"),
], ids=["solver-max-iters", "solver-negative-iters", "optimize-bounds",
        "optimize-max-iters", "optimize-tol", "optimize-nan-bound",
        "solver-nan-tol"])
def test_settings_that_cannot_run_exit_two(tmp_path, capsys, config,
                                           overrides, message):
    code, _ = run_cli(tmp_path, (CONFIGS / config).read_text(), overrides)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["parameters.PadSigma0",
                                 "boundary.psi.left_conductor_end"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_exit_two(tmp_path, capsys, key, value):
    code, _ = run_cli(tmp_path, (CONFIGS / "demo.ini").read_text(),
                      [f"{key}={value}"])
    assert code == 2
    section, name = key.split(".", 1)
    assert (f"config error: [{section}] {name} must be finite, got {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("expansion", ["nan", "0.0, inf"])
def test_non_finite_expansion_of_any_parameter_exits_two(tmp_path, capsys,
                                                         expansion):
    code, _ = run_cli(tmp_path, (CONFIGS / "uq.ini").read_text(),
                      ["uq.parameter=Alpha", f"uq.expansion={expansion}"])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"config error: uq.expansion must be finite, got {expansion!r}"
            in err and "Traceback" not in err)


def test_expansion_longer_than_the_basis_exits_two_before_any_output(
        tmp_path, capsys):
    code, out = run_cli(tmp_path, (CONFIGS / "uq.ini").read_text(),
                        ["uq.degree=2", "uq.expansion=35, 1, 1, 1"])
    assert code == 2
    err = capsys.readouterr().err
    assert ("config error: uq.expansion has 4 coefficients, more than the 3 "
            "of a degree-2 basis" in err and "Traceback" not in err)
    assert not out.exists()
    parse_config(CONFIGS / "uq.ini", ["uq.degree=2", "uq.expansion=35, 1, 1"])


def test_bad_quad_order_is_named_in_the_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, (CONFIGS / "demo.ini").read_text(),
                      ["geometry.quad_order=5"])
    assert code == 2
    err = capsys.readouterr().err
    assert ("config error: geometry.quad_order must be 1, 2, or 3, got 5"
            in err and "Traceback" not in err)
