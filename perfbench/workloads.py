"""The benchmark's four workloads.

Each workload makes one op's inputs from the run seed and the op index,
runs the op through the library's public modules, and checks the op's
output.  Library calls go through module attributes (``D.apply_A`` style) so
the traced pass sees them; a ``span`` callable marks the calls the benchmark
makes itself and is a no-op outside the traced pass.

``WHY`` gives the reason for each workload; ``BENCHMARK.json`` repeats it for
the workloads it lists.  ``recover`` is left out of that list: at this size a
solve takes 1 to 7 s depending on the instance, so the median of the few ops
a timed run of a few dozen seconds holds moves by more than its bound from
one seed to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cdplift import certify as C
from cdplift import diffraction as D
from cdplift import hermitian as H
from cdplift import solver as S

DIST = D.ternary_mask_distribution()
ERROR_TARGET = 1e-3  # phase-aligned recovery error that counts as success
CONSTRUCTIONS = 3  # golfing constructions a certify op tries before it fails
ODD_TOL = 1e-12  # largest exact-enumeration deviation allowed at odd d
EVEN_MIN = 1e-6  # smallest deviation expected at even d, where the design fails


@dataclass
class Outcome:
    """What one op produced, reduced to its exact counts and its verdict."""

    failure: str | None = None  # None when the op passed its output check
    sweeps: int = 0
    converged: bool = False
    golfing_attempts: int = 0
    golfing_accepted: int = 0
    masks_used: int = 0
    traceback: str | None = None  # set when the op raised

    def counts(self) -> tuple:
        """Exact counts the traced pass must reproduce."""
        return (self.sweeps, self.golfing_attempts, self.masks_used, self.failure is not None)


@dataclass(frozen=True)
class SignalInputs:
    x: np.ndarray
    seed: int  # handed to the library's samplers (masks, probes)


def _signal_inputs(run_seed: int, index: int, d: int) -> SignalInputs:
    rng = np.random.default_rng([run_seed, index])
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return SignalInputs(x=x / np.linalg.norm(x), seed=int(rng.integers(2**62)))


@dataclass(frozen=True)
class Recovery:
    """One PhaseLift solve from fresh masks, then signal extraction."""

    name: str
    mode: str
    d: int
    L: int
    max_iterations: int = 800

    def inputs(self, run_seed: int, index: int) -> SignalInputs:
        return _signal_inputs(run_seed, index, self.d)

    def run(self, inp: SignalInputs, span):
        masks = D.sample_masks(DIST, self.d, self.L, inp.seed)
        with span("diffraction.MeasurementFrame"):
            frame = D.MeasurementFrame(masks)
        y = D.measure(inp.x, masks)
        cfg = S.SolverConfig(
            mode=self.mode,
            max_iterations=self.max_iterations,
            trace_target=y.y0 if self.mode == "feasibility" else None,
        )
        result = S.solve_phaselift(frame, y, cfg)
        x_hat, _ = S.extract_signal(result.X_hat)
        return frame, y, result, x_hat

    def check(self, inp: SignalInputs, produced) -> Outcome:
        frame, y, result, x_hat = produced
        out = Outcome(sweeps=result.iterations_used, converged=result.converged)
        err = H.phase_aligned_distance(inp.x, x_hat)
        report = S.verify_feasibility(frame, y, result.X_hat, y0=y.y0)
        values = (report.max_violation, report.relative_violation,
                  report.min_eigenvalue, report.trace_deviation)
        if not err <= ERROR_TARGET:
            out.failure = f"phase-aligned error {err:.3e} > {ERROR_TARGET:g}"
        elif not all(v is not None and math.isfinite(v) for v in values):
            out.failure = f"non-finite feasibility report {values}"
        return out


@dataclass(frozen=True)
class Certification:
    """Golfing certificate, its re-verification, injectivity, the verdict.

    Golfing is a randomized construction that now and then fails (about one
    construction in a hundred at d = 15); like a user, the op then reruns it
    on fresh masks, at most ``CONSTRUCTIONS`` times in all.  The reruns show
    in the golfing attempt counts.
    """

    name: str = "certify"
    d: int = 15
    probes: int = 20

    def inputs(self, run_seed: int, index: int) -> SignalInputs:
        return _signal_inputs(run_seed, index, self.d)

    def run(self, inp: SignalInputs, span):
        failures = []
        for attempt in range(CONSTRUCTIONS):
            cert = C.golfing_construct(inp.x, DIST, C.GolfingParams(), seed=inp.seed + attempt)
            if isinstance(cert, C.DualCertificate):
                break
            failures.append(cert)
        else:
            return failures, None, None, None
        with span("diffraction.MeasurementFrame"):
            frame = D.MeasurementFrame(cert.masks)
        check = C.verify_certificate(cert, inp.x, frame)
        inj = C.injectivity_spectrum(frame, inp.x, seed=inp.seed, probes=self.probes)
        verdict = C.certify_optimality(inp.x, frame, cert, inj)
        return failures + [cert], check, inj, verdict

    def check(self, inp: SignalInputs, produced) -> Outcome:
        constructions, check, inj, verdict = produced
        logs = [r for c in constructions for r in c.construction_log]
        out = Outcome(golfing_attempts=len(logs), golfing_accepted=sum(r.xi for r in logs))
        cert = constructions[-1]
        if not isinstance(cert, C.DualCertificate):
            out.failure = f"golfing failed {len(constructions)} times, last: {cert.reason}"
            return out
        out.masks_used = cert.masks.L
        if not check.passed:
            out.failure = "certificate fails its bounds when rebuilt from the witness"
        elif not verdict.certified:
            out.failure = "not certified: " + "; ".join(verdict.failing_hypotheses)
        return out


@dataclass(frozen=True)
class Audit:
    """Exact near-isotropy and 2-design enumeration, as isotropy-audit runs it."""

    name: str = "audit"
    dims: tuple[int, ...] = (3, 4, 5, 7)

    def inputs(self, run_seed: int, index: int) -> tuple[int, ...]:
        return self.dims  # exact enumeration has no random input

    def run(self, dims, span):
        return {d: (C.check_near_isotropy_exact(DIST, d), C.check_two_design_exact(DIST, d))
                for d in dims}

    def check(self, dims, produced) -> Outcome:
        for d, devs in produced.items():
            if d % 2 and not max(devs) <= ODD_TOL:
                return Outcome(failure=f"d={d} deviates by {max(devs):.3e} > {ODD_TOL:g}")
            if d % 2 == 0 and not min(devs) > EVEN_MIN:
                return Outcome(failure=f"even d={d} deviates by only {min(devs):.3e}")
        return Outcome()

    def enum_passes(self) -> int:
        """Kernel passes of one near-isotropy op: d^2 basis matrices x 3^d masks."""
        return sum(d * d * len(DIST.support) ** d for d in self.dims)


WHY = {
    "recover": "POCS feasibility solve at d=15, L=10 (dL < d^2): hundreds of sweeps, "
               "each a PCG affine projection; thousands of small-frame A and A* calls",
    "trace_min": "solver layer without PCG: 800-iteration proximal trace minimization at "
                 "d=15, L=30, every op to the cap; the control for changes that only touch PCG",
    "certify": "no solver: golfing certificate, its re-verification and injectivity on the "
               "~2800-mask union frame at d=15; few calls on large frames",
    "audit": "exact near-isotropy and 2-design enumeration for d in 3,4,5,7: huge batches "
             "of tiny masks through the diffraction kernels",
}

WORKLOADS = {
    w.name: w
    for w in (
        Recovery("recover", "feasibility", d=15, L=10),
        Recovery("trace_min", "trace_min", d=15, L=30),
        Certification(),
        Audit(),
    )
}
