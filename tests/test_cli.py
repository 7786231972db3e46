"""CLI exit codes, artifacts, determinism, and config parsing."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("content", [
    b"mode = solve\n",
    b"[run]\nmode = solve\nmode = verify\n",
    b"[run]\nmode = solve\n\n[run]\noutput_dir = elsewhere\n",
    b"[run]\n  stray line\nmode = solve\n",
    b"[run]\nmode = solve\n# caf\xe9\n",
], ids=["no-section-header", "repeated-key", "repeated-section",
        "indented-stray-line", "not-utf-8"])
def test_malformed_config_file_exits_two(tmp_path, capsys, content):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", str(cfg), f"run.output_dir={out}"]) == 2
    err = capsys.readouterr().err
    assert (f"config error: cannot parse config file {str(cfg)!r}: " in err
            and "Traceback" not in err)
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_output_dir_that_cannot_be_made_exits_two(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if below else blocker
    code = main(["run", str(CONFIGS / "laplace8.ini"), f"run.output_dir={out}"])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"config error: cannot create output directory {str(out)!r}: "
            in err and "Traceback" not in err)
    assert blocker.is_file()


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
    ("optimize.ini", ["optimize.start=0.1,0.1,0.1"]),
    ("optimize.ini", ["optimize.parameters=deflection_bottom,deflection_top",
                      "optimize.start=0.1,0.0"]),
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
    ("demo.ini", ["solver.dense_dof_limit=-1"],
     "[solver] dense_dof_limit must be >= 0, got -1"),
    ("optimize.ini", ["optimize.lower=0.3", "optimize.upper=-0.3"],
     "[optimize] lower (0.3) must be below upper (-0.3)"),
    ("optimize.ini", ["optimize.max_iters=0"],
     "[optimize] max_iters must be >= 1"),
    ("optimize.ini", ["optimize.tol=0"], "[optimize] tol must be positive"),
    ("optimize.ini", ["optimize.upper=nan"], "[optimize] lower (-0.3) must "
     "be below upper (nan)"),
    ("demo.ini", ["solver.abs_tol=nan"], "[solver] tolerances must be "
     "positive"),
    ("optimize.ini", ["optimize.start=abc"],
     "cannot parse optimize.start = 'abc' as a list of floats"),
    ("optimize.ini", ["optimize.start=nan"],
     "optimize.start must be finite, got 'nan'"),
    ("optimize.ini", ["optimize.start=0.1,0.1,0.1"], "[optimize] start has 3 "
     "values; one sets the deflection, two the top and bottom deflections"),
    ("optimize.ini", ["optimize.parameters=deflection_top"],
     "unknown key 'parameters' in section [optimize]"),
    ("continuation.ini", ["continuation.start=nan"],
     "continuation.start and stop must be finite, got nan and 0.3"),
    ("continuation.ini", ["continuation.stop=inf"],
     "continuation.start and stop must be finite, got -0.3 and inf"),
    ("demo.ini", ["materials.sigma0_slider=0"],
     "[materials] sigma0_slider must be positive, got 0.0"),
    ("demo.ini", ["materials.kappa=-1"],
     "[materials] kappa must be positive, got -1.0"),
    ("demo.ini", ["parameters.PadSigma0=0"],
     "[parameters] PadSigma0 must be positive, got 0.0"),
    # the checks of registered names, made by build_model
    ("continuation.ini", ["continuation.parameter=deflection_top"],
     "continuation parameter 'deflection_top' is neither 'deflection' nor a "
     "registered parameter"),
    ("continuation.ini", ["continuation.parameter=Gamma"],
     "continuation parameter 'Gamma' is neither 'deflection' nor a "
     "registered parameter"),
    ("uq.ini", ["uq.parameter=Bogus"],
     "uq.parameter 'Bogus' is not registered by the model"),
    ("demo.ini", ["parameters.Gamma=1.0"],
     "parameter 'Gamma' is not registered by the model"),
    # the modes that morph need a slider, also checked by build_model
    ("continuation.ini", ["geometry.nx_slider=0", "geometry.slider_length=0"],
     "mesh has no slider region to morph"),
    ("optimize.ini", ["geometry.nx_slider=0", "geometry.slider_length=0"],
     "mesh has no slider region to morph"),
    # a conductivity sweep that reaches zero, also checked by build_model
    ("continuation.ini", ["continuation.parameter=PadSigma0",
                          "continuation.start=10", "continuation.stop=-5",
                          "continuation.steps=4"],
     "continuation of PadSigma0 reaches -5; a conductivity must be positive"),
    # a first or last shape that gives no valid mesh, also checked by
    # build_model: a deflection of 1e300 rounds the slider's rows together
    ("continuation.ini", ["continuation.start=1e300"],
     "[continuation] shape parameters 1e+300 give no valid mesh: "
     "non-positive mapping determinant"),
    ("optimize.ini", ["optimize.upper=inf", "optimize.start=1e300"],
     "[optimize] shape parameters 1e+300 give no valid mesh: "
     "non-positive mapping determinant"),
], ids=["solver-max-iters", "solver-negative-iters",
        "solver-negative-dense-limit", "optimize-bounds",
        "optimize-max-iters", "optimize-tol", "optimize-nan-bound",
        "solver-nan-tol", "optimize-start-text", "optimize-start-nan",
        "optimize-three-starts", "optimize-parameters-key",
        "continuation-nan-start", "continuation-inf-stop",
        "materials-zero-sigma0", "materials-negative-kappa",
        "pad-sigma0-zero",
        "continuation-shape-name", "continuation-unknown-name",
        "uq-unknown-name", "unknown-parameter", "continuation-no-slider",
        "optimize-no-slider", "continuation-pad-sigma0-to-zero",
        "continuation-deflection-without-a-mesh",
        "optimize-start-without-a-mesh"])
def test_settings_that_cannot_run_exit_two(tmp_path, capsys, config,
                                           overrides, message):
    # every one fails before the output directory is made
    code, out = run_cli(tmp_path, (CONFIGS / config).read_text(), overrides)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_of_a_library_parameter_needs_no_slider(tmp_path):
    code, out = run_cli(tmp_path, (CONFIGS / "continuation.ini").read_text(),
                        ["geometry.nx_slider=0", "geometry.slider_length=0",
                         "continuation.parameter=Beta", "continuation.steps=2"])
    assert code == 0 and (out / "continuation.csv").exists()


def test_failed_nisp_sample_names_its_xi_and_parameter(tmp_path, capsys):
    # the SG solve converges; the Gauss node at xi = -0.9325 puts Beta past
    # the turning point near -0.176, where no steady solution exists
    code, _ = run_cli(tmp_path, (CONFIGS / "uq.ini").read_text(),
                      ["uq.parameter=Beta", "uq.expansion=0.0, 0.2"])
    assert code == 1
    err = capsys.readouterr().err
    assert ("solver failure: NISP sample at xi = -0.9325 (Beta = -0.1865) "
            "failed: Newton line search failed to find a decrease") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("start, names", [
    ("0.1", ["deflection"]),
    ("0.1, 0.0", ["deflection_top", "deflection_bottom"])])
def test_optimize_start_picks_the_shape_parameters(tmp_path, start, names):
    code, out = run_cli(tmp_path, (CONFIGS / "optimize.ini").read_text(),
                        [f"optimize.start={start}", "optimize.max_iters=1"])
    assert code == 0
    header = (out / "optimize.csv").read_text().splitlines()[0]
    assert header == ",".join(["iteration", *names, "objective"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["shape_parameters"] == names


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


#: (config, key, message) of every float key a section checks for finiteness
_SECTION_FLOATS = [
    ("demo.ini", "solver.abs_tol", "[solver] tolerances must be positive and "
     "finite"),
    ("demo.ini", "solver.rel_tol", "[solver] tolerances must be positive and "
     "finite"),
    ("optimize.ini", "optimize.tol", "[optimize] tol must be positive and "
     "finite, got {}"),
    *(("demo.ini", f"materials.{name}", f"[materials] {name} must be finite, "
       "got {}") for name in ("kappa", "sigma0_conductor", "sigma0_slider",
                              "beta", "T0", "v0_x", "v0_y")),
    *(("demo.ini", f"geometry.{region}_length", f"region {region!r} length "
       "must be non-negative and finite, got {}")
      for region in ("conductor", "pad", "slider")),
    ("demo.ini", "geometry.height", "degenerate geometry: height must be "
     "positive and finite, got {}"),
]


@pytest.mark.parametrize("config, key, message", [
    pytest.param(*case, id=case[1]) for case in _SECTION_FLOATS])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_section_floats_exit_two(tmp_path, capsys, config, key,
                                            message, value):
    code, out = run_cli(tmp_path, (CONFIGS / config).read_text(),
                        [f"{key}={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"config error: {message.format(float(value))}" in err
            and "Traceback" not in err)
    assert not out.exists()


@pytest.mark.parametrize("bound", ["optimize.lower=-inf", "optimize.upper=inf"])
def test_infinite_optimize_bounds_still_run(tmp_path, bound):
    code, out = run_cli(tmp_path, (CONFIGS / "optimize.ini").read_text(),
                        [bound, "optimize.max_iters=1"])
    assert code == 0 and (out / "summary.json").exists()


def test_optimize_start_outside_the_bounds_is_projected(tmp_path):
    # the optimizer starts from the projected start, whose mesh is valid
    code, out = run_cli(tmp_path, (CONFIGS / "optimize.ini").read_text(),
                        ["optimize.start=1e300", "optimize.max_iters=1"])
    assert code == 0 and (out / "summary.json").exists()


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


# ---------------------------------------------------------------------------
# the clean-failure contract as a property over config values
# ---------------------------------------------------------------------------

#: the 8x8 strip, on which every mode runs in a fraction of a second
STRIP8 = ["geometry.nx_conductor=4", "geometry.nx_pad=1",
          "geometry.nx_slider=3", "geometry.ny=8"]

#: per shipped config, overrides that keep its run short; drawn overrides
#: come after them and may replace them
_SHORT = {"demo.ini": [], "continuation.ini": ["continuation.steps=3"],
          "optimize.ini": ["optimize.max_iters=2"], "uq.ini": ["uq.degree=2"],
          "verify.ini": ["uq.degree=2"]}

_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300)


def _float(low, high):
    """A float of the key's range, or a non-finite or out-of-range one."""
    return st.one_of(st.floats(low, high), st.sampled_from(_EDGE_FLOATS))


def _int(low, high):
    return st.one_of(st.integers(low, high), st.integers(-2, low - 1),
                     st.integers(high + 1, high + 2))


def _float_list(low, high, sizes):
    return st.lists(_float(low, high), min_size=sizes[0],
                    max_size=sizes[1]).map(lambda v: ", ".join(map(repr, v)))


#: every key of [materials], [solver], [continuation], [optimize] and [uq]
#: with values of its type: in its documented range (steps <= 3, max_iters
#: <= 2, degree <= 2), at its edges, non-finite, or a registered name or not
_OVERRIDES = {
    "materials.sigma0_conductor": _float(1.0, 200.0),
    "materials.sigma0_slider": _float(1.0, 200.0),
    "materials.kappa": _float(0.5, 10.0),
    "materials.beta": _float(0.0, 0.5),
    "materials.T0": _float(-1.0, 1.0),
    "materials.v0_x": _float(-10.0, 0.0),
    "materials.v0_y": _float(-1.0, 1.0),
    "materials.joule": st.sampled_from(["true", "false", "maybe"]),
    "solver.abs_tol": _float(1e-14, 1e-6),
    "solver.rel_tol": _float(1e-14, 1e-6),
    "solver.max_iters": _int(1, 30),
    "solver.dense_dof_limit": _int(0, 400),
    "continuation.parameter": st.sampled_from(
        ["deflection", "Alpha", "Beta", "PadSigma0", "Gamma"]),
    "continuation.start": _float(-0.3, 0.3),
    "continuation.stop": _float(-0.3, 0.3),
    "continuation.steps": _int(1, 3),
    "optimize.start": _float_list(-0.3, 0.3, (0, 3)),
    "optimize.lower": _float(-0.3, 0.0),
    "optimize.upper": _float(0.0, 0.3),
    "optimize.tol": _float(1e-8, 1e-2),
    "optimize.max_iters": _int(1, 2),
    "uq.parameter": st.sampled_from(["PadSigma0", "Alpha", "Beta", "Bogus"]),
    "uq.expansion": _float_list(-20.0, 50.0, (1, 4)),
    "uq.degree": _int(0, 2),
    "uq.nisp_order": _int(1, 4),
}


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(config=st.sampled_from(sorted(_SHORT)), data=st.data())
def test_any_config_value_exits_cleanly(config, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(_OVERRIDES)), unique=True,
                              max_size=4), label="keys")
    overrides = [f"{key}={data.draw(_OVERRIDES[key], label=key)}"
                 for key in keys]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["run", str(CONFIGS / config), f"run.output_dir={out}",
                *STRIP8, *_SHORT[config], *overrides]
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("ignore")   # the 8x8 strip's Peclet warning
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists(), err.getvalue()
        if code == 0:   # a run that did not converge says why it stopped
            summary = json.loads((out / "summary.json").read_text())
            if summary.get("optimizer_converged") is False:
                assert isinstance(summary["optimizer_termination"], str)
                assert summary["optimizer_termination"]
