"""The benchmark's three workloads: meshes, seeded inputs, the op and checks.

Every input is drawn from ``numpy.random.default_rng([seed, stream, index])``,
so an op's inputs depend only on the seed and the op's index, never on how
many ops a run managed or on what ran before it. Meshes are the strip ladder
of the demo, which is the 16 x 16 strip: size n gives an n x n element strip
with the demo's proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from embedfem import analysis, config, verification
from embedfem.physics import NonPhysicalStateError

OP_STREAM, WARMUP_STREAM, CHECK_STREAM = 0, 1, 2

FD_TOL = 1e-6            # criterion 2
GRADIENT_TOL = 1e-4      # criterion 4, with the same central-difference step
GRADIENT_STEP = 1e-5
SG_NISP_TOL = 1e-3       # criterion 7
NISP_ORDER = 6


def rng_for(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


class ToleranceExceeded(Exception):
    """An op's result missed its accuracy gate."""


CLEAN_FAILURES = (analysis.SolveFailure, NonPhysicalStateError,
                  config.ConfigError)


def classify(err):
    """(class name, clean): clean failures are the ones embedfem reports on
    purpose; any other exception is a crash."""
    return type(err).__name__, isinstance(err, CLEAN_FAILURES)


@dataclass
class Mesh:
    """One built model of a workload with the Newton settings it runs under."""

    label: str
    model: object
    newton: object


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} {self.name}: {self.measured:.3e} "
                f"(tolerance {self.tolerance:.0e})")


class Workload:
    """Ops cycle through ``sizes`` in order; one round is one op per mesh."""

    name = ""
    why = ""
    sizes = ()
    uq = False

    def build(self, n):
        cfg = config.RunConfig()
        g = cfg.geometry
        g.nx_conductor, g.nx_pad, g.nx_slider, g.ny = (n // 2, n // 8,
                                                       3 * n // 8, n)
        cfg.solver.threads = 1
        if self.uq:
            cfg.uq = config.UqSection(degree=3)
        return Mesh(f"{n}x{n}", config.build_model(cfg),
                    config.newton_config(cfg))

    def draw(self, rng, mesh):
        raise NotImplementedError

    def run(self, mesh, inputs):
        """One op; returns the output arrays that the digest covers."""
        raise NotImplementedError

    def warm_up(self, mesh, rng):
        """Set-up's first use of a mesh: builds every arena the op needs."""
        try:
            self.run(mesh, self.draw(rng, mesh))
        except Exception:   # failing ops are measured in the window
            pass

    def unknowns(self, mesh):
        return mesh.model.num_dofs

    def checks(self, meshes, ops, seed):
        """Untimed correctness checks after the measured window."""
        return []


class Design(Workload):
    name = "design"
    why = ("one optimize/continuation step on the 16/32/64 strip ladder: "
           "dual-scalar assembly and the linear solve dominate, and every op "
           "moves the coordinates")
    sizes = (16, 32, 64)

    def draw(self, rng, mesh):
        return {"deflection": rng.uniform(-0.3, 0.3),
                "PadSigma0": rng.uniform(20.0, 50.0)}

    def _solve(self, mesh, deflection, sigma):
        mesh.model.library.set_value("PadSigma0", sigma)
        return analysis.shape_objective_gradient(mesh.model, [deflection],
                                                 mesh.newton)

    def run(self, mesh, inputs):
        g, grad, result = self._solve(mesh, inputs["deflection"],
                                      inputs["PadSigma0"])
        return (np.array([g]), grad, result.x)

    def checks(self, meshes, ops, seed):
        """dg/dp against a central difference of g, once per mesh that had a
        successful op, at a design away from the kink of max T at p = 0."""
        out = []
        for m, mesh in enumerate(meshes):
            if not any(op.ok and op.mesh == m for op in ops):
                continue
            rng = rng_for(seed, CHECK_STREAM, m)
            p = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3)
            sigma = rng.uniform(20.0, 50.0)
            _, grad, _ = self._solve(mesh, p, sigma)
            g_plus = self._solve(mesh, p + GRADIENT_STEP, sigma)[0]
            g_minus = self._solve(mesh, p - GRADIENT_STEP, sigma)[0]
            fd = (g_plus - g_minus) / (2.0 * GRADIENT_STEP)
            err = float(abs(grad[0] - fd) / max(abs(fd), 1e-12))
            out.append(CheckResult(f"design dg/dp vs central difference, "
                                   f"{mesh.label}", bool(err <= GRADIENT_TOL),
                                   err, GRADIENT_TOL))
        return out


class Spectral(Workload):
    name = "spectral"
    why = ("intrusive SG Newton with a degree-3 basis on 16x16 and 32x32: "
           "chaos and nested scalars, the SGJacobian and the block GMRES do "
           "nearly all the work")
    sizes = (16, 32)
    uq = True

    def draw(self, rng, mesh):
        coeffs = np.zeros(mesh.model.sg_basis.size)
        coeffs[0] = rng.uniform(30.0, 40.0)
        coeffs[1] = rng.uniform(5.0, 15.0)
        return {"PadSigma0": coeffs}

    def run(self, mesh, inputs):
        result = analysis.sg_newton_solve(mesh.model, inputs, mesh.newton)
        return (result.coefficients,)

    def unknowns(self, mesh):
        return mesh.model.num_dofs * mesh.model.sg_basis.size

    def checks(self, meshes, ops, seed):
        """SG against the non-intrusive projection on the 16x16 mesh."""
        mesh = meshes[0]
        expansion = self.draw(rng_for(seed, CHECK_STREAM, 0), mesh)
        _, _, rel, _ = verification.sg_vs_nisp(mesh.model, expansion,
                                                NISP_ORDER, mesh.newton)
        worst = float(np.max(rel))
        return [CheckResult(f"spectral SG vs NISP max-T coefficients, "
                            f"{mesh.label}", bool(worst <= SG_NISP_TOL), worst,
                            SG_NISP_TOL)]


class FdVerify(Workload):
    name = "fd-verify"
    why = ("embedded Jacobian against the column-by-column FD oracle on "
           "16x16: plain Residual assemblies, no solve, fixed coordinates")
    sizes = (16,)

    def draw(self, rng, mesh):
        model = mesh.model
        return {"x": model.initial_guess() + 0.3 * rng.normal(size=model.num_dofs)}

    def run(self, mesh, inputs):
        err = verification.jacobian_fd_error(mesh.model, inputs["x"])
        if not err <= FD_TOL:
            raise ToleranceExceeded(f"Jacobian FD error {err!r} > {FD_TOL}")
        return (np.array([err]),)

    def warm_up(self, mesh, rng):
        """One Jacobian and one Residual assembly build every arena the op
        uses; a whole op would only add 1,155 more identical residuals."""
        x = self.draw(rng, mesh)["x"]
        mesh.model.jacobian(x)
        mesh.model.residual(x)

    def checks(self, meshes, ops, seed):
        """Every op's error within tolerance; a miss failed its op."""
        missed = sum(op.error == "ToleranceExceeded" for op in ops)
        return [CheckResult("fd-verify ops with Jacobian FD error above "
                            "tolerance", missed == 0, float(missed), 0.0)]


WORKLOADS = {w.name: w for w in (Design(), Spectral(), FdVerify())}
