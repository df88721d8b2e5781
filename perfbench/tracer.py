"""Span tracer for the decolab benchmark.

The tracer wraps the public functions of each decolab module from outside the
package; nothing under ``src/`` is edited.  Installing it replaces every
reference to a wrapped function in every loaded ``decolab`` module, so calls
made through ``from .x import f`` bindings are recorded too.  Each call
records one span (name, layer, parent, start, end) in memory; ``uninstall``
restores the originals.  The per-layer metrics of one pass are derived from
its spans and from counters that a few hooks read off the call arguments and
results.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  Its busy time is the summed duration
of its entry spans: spans with no enclosing span of the same layer.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from decolab import (bath, cli, constants, diffusion, feedforward, fitting, growth, noise,
                     sequences)

#: module -> layer name.  The SVG writer (plotsvg) is only called from cli, so
#: its time is cli self time without spans of its own.
LAYER_OF_MODULE = {
    bath: "bath", sequences: "sequences", noise: "noise", feedforward: "feedforward",
    diffusion: "diffusion", fitting: "fitting", growth: "growth", cli: "cli",
}

#: traced methods of classes (public functions are found automatically)
TRACED_METHODS = {
    diffusion.SinkSolver: ("__init__", "pdf", "survival", "counts", "counts_factorized"),
}

#: bath cases by (species, concentration)
BATH_CASES = {
    ("carbon13", 1.3e-5): "chi1.3e-5",
    ("carbon13", 4.42e-4): "chi4.42e-4",
    ("carbon13", 1.949e-3): "chi1.949e-3",
    ("carbon13", 1.0937e-2): "chi1.0937e-2",
    ("electron", 21e-9): "e21ppb",
}

#: bytes per spin of one sampler batch in the reference implementation:
#: two float32 draws plus two float64 temporaries
BATCH_BYTES_PER_SPIN = 2 * 4 + 2 * 8
BATCH_SPIN_CAP = 4e7
BATCH_BATHS_CAP = 2048


def analytic_half_normal_scale(species: str, concentration: float) -> float:
    """Infinite-volume half-normal T2* scale (s): 4 / (p kappa chi).

    p is the dipolar prefactor mu0/(4 pi) hbar gamma_1 gamma_2 and
    kappa = n_d (4 pi / 3) sqrt(pi) E|3 cos^2 theta - 1|, with
    E|3 cos^2 theta - 1| = 4 / (3 sqrt 3).
    """
    c = constants.CONSTANTS
    gamma_pair = c.gamma_c if species == "carbon13" else c.gamma_e
    p = c.mu0_over_4pi * c.hbar * gamma_pair * c.gamma_e
    kappa = c.n_d * (4.0 * math.pi / 3.0) * math.sqrt(math.pi) * 4.0 / (3.0 * math.sqrt(3.0))
    return 4.0 / (p * kappa * concentration)


def bath_case(cfg) -> str | None:
    for (species, chi), name in BATH_CASES.items():
        if cfg.species == species and math.isclose(cfg.concentration, chi, rel_tol=1e-9):
            return name
    return None


class Tracer:
    """In-memory span recorder; install() patches decolab, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, parent, start, end, entry]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                   self._open[layer] == 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self._open[layer] += 1
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
                self._open[layer] -= 1
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                result = hook(self, rec, bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.spans.clear()
        self.counters.clear()
        replaced = {}
        for module, layer in LAYER_OF_MODULE.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                target = _counting_least_squares(self, fn) if fn is fitting.least_squares else fn
                hook = HOOKS.get(f"{layer}.{attr}")
                replaced[id(fn)] = self._wrap(f"{layer}.{attr}", layer, target, hook)
        loaded = [m for n, m in sys.modules.items() if n == "decolab" or n.startswith("decolab.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._patch(module, attr, replaced[id(value)])
        for cls, methods in TRACED_METHODS.items():
            layer = LAYER_OF_MODULE[sys.modules[cls.__module__]]
            for attr in methods:
                name = f"{layer}.{cls.__name__}.{attr}"
                self._patch(cls, attr, self._wrap(name, layer, vars(cls)[attr], HOOKS.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since install()."""
        self_s: dict[str, float] = defaultdict(float)
        busy_s: dict[str, float] = defaultdict(float)
        entries: dict[str, int] = defaultdict(int)
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_s = [0.0] * len(self.spans)
        for name, layer, parent, start, end, entry in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, layer, parent, start, end, entry) in enumerate(self.spans):
            duration = end - start
            self_s[layer] += duration - child_s[i]
            by_name[name] += duration
            calls[name] += 1
            if entry:
                busy_s[layer] += duration
                entries[layer] += 1
        c = self.counters

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0.0 else 0.0

        m: dict[str, float] = {"bath.busy_s": busy_s["bath"]}
        for case in BATH_CASES.values():
            seconds = c[f"bath.seconds.{case}"]
            m[f"bath.spins_per_s.{case}"] = rate(c[f"bath.spins.{case}"], seconds)
            m[f"bath.baths_per_s.{case}"] = rate(c[f"bath.baths.{case}"], seconds)
        m["bath.filtered.baths_per_s"] = rate(c["bath.baths.filtered"],
                                              c["bath.seconds.filtered"])
        m["bath.batch_bytes_computed"] = c["bath.batch_bytes_computed"]
        for case in BATH_CASES.values():
            m[f"bath.scale_z.{case}"] = c[f"bath.scale_z.{case}"]
        m["sequences.busy_s"] = busy_s["sequences"]
        m["sequences.calls"] = float(entries["sequences"])
        m["sequences.phase_evals_computed"] = c["sequences.phase_evals"]
        m["sequences.phase_evals_per_s"] = rate(c["sequences.phase_evals"], busy_s["sequences"])
        m["noise.traj_samples_per_s"] = rate(c["noise.traj_samples"],
                                             by_name["noise.sample_amplitude_trajectory"])
        m["feedforward.self_s"] = self_s["feedforward"]
        m["feedforward.shots_per_s"] = rate(c["feedforward.shots"], busy_s["feedforward"])
        m["diffusion.solver_init_s"] = by_name["diffusion.SinkSolver.__init__"]
        m["diffusion.solver_inits"] = float(calls["diffusion.SinkSolver.__init__"])
        m["diffusion.counts_per_s"] = rate(calls["diffusion.SinkSolver.counts"],
                                           by_name["diffusion.SinkSolver.counts"])
        m["diffusion.factorized_build_s"] = by_name["diffusion.SinkSolver.counts_factorized"]
        m["diffusion.counts_of_s_calls"] = float(calls["diffusion.counts_of_s"])
        m["diffusion.voigt_evals_per_s"] = rate(c["diffusion.voigt_evals"],
                                                by_name["diffusion.voigt_density"])
        m["diffusion.survival_residual"] = c["diffusion.survival_residual"]
        m["fitting.self_s"] = self_s["fitting"]
        m["fitting.lm_iters"] = c["fitting.lm_iters"]
        m["fitting.model_evals"] = c["fitting.model_evals"]
        fits = c["fitting.fits"]
        m["fitting.converged_frac"] = c["fitting.converged"] / fits if fits else 1.0
        m["growth.busy_s"] = busy_s["growth"]
        m["cli.self_s"] = self_s["cli"]
        m["cli.bytes_written"] = c["cli.bytes_written"]
        m["cli.nonzero_exits"] = c["cli.nonzero_exits"]
        m["trace.self_sum_s"] = sum(self_s.values())
        return m

    def dump(self) -> list[dict]:
        return [{"name": n, "layer": l, "parent": p, "start": s, "end": e}
                for n, l, p, s, e, _ in self.spans]


# ---------------------------------------------------------------------------
# hooks: read work counts off call arguments and results
# ---------------------------------------------------------------------------

def _counting_least_squares(tracer: Tracer, fn):
    """least_squares with its model function wrapped to count evaluations."""

    @functools.wraps(fn)
    def counted(model_fn, *args, **kwargs):
        def model(x, params):
            tracer.counters["fitting.model_evals"] += 1
            return model_fn(x, params)

        return fn(model, *args, **kwargs)

    return counted


def _least_squares(tracer, rec, a, result):
    tracer.counters["fitting.fits"] += 1
    tracer.counters["fitting.converged"] += bool(result.converged)
    tracer.counters["fitting.lm_iters"] += result.n_iter
    return result


def _t2star_distribution(tracer, rec, a, result):
    cfg, n_baths = a["cfg"], a["n_baths"]
    c = tracer.counters
    seconds = rec[4] - rec[3]
    if cfg.exclude_above_hz is not None:
        c["bath.baths.filtered"] += n_baths
        c["bath.seconds.filtered"] += seconds
        return result
    mean = cfg.mean_spin_count(a["constants"])
    per_batch = max(1, min(a["batch_size"], BATCH_BATHS_CAP, int(BATCH_SPIN_CAP / max(mean, 1.0))))
    batch_bytes = min(per_batch, n_baths) * mean * BATCH_BYTES_PER_SPIN
    c["bath.batch_bytes_computed"] = max(c["bath.batch_bytes_computed"], batch_bytes)
    case = bath_case(cfg)
    if case is not None:
        c[f"bath.spins.{case}"] += mean * n_baths
        c[f"bath.baths.{case}"] += n_baths
        c[f"bath.seconds.{case}"] += seconds
        ref = analytic_half_normal_scale(cfg.species, cfg.concentration)
        z = abs(result.half_normal_scale - ref) / (ref / math.sqrt(2.0 * n_baths))
        c[f"bath.scale_z.{case}"] = max(c[f"bath.scale_z.{case}"], z)
    return result


def _phase_evals(tracer, rec, a, result):
    """components x tau x t0 x a for calls entering the sequences layer."""
    if rec[5]:
        n = len(a["model"].components)
        if "times" in a:  # ramsey_envelope
            n *= np.size(a["times"]) * a["n_t0"] * a["n_a"]
        elif "n_t0" in a:  # expectation_unsynchronized
            n *= a["n_t0"]
        elif "t0" in a:  # phase_* and respond
            n *= np.size(a["t0"])
        tracer.counters["sequences.phase_evals"] += n
    return result


def _trajectory(tracer, rec, a, result):
    tracer.counters["noise.traj_samples"] += np.size(a["times"])
    return result


def _run_feedforward(tracer, rec, a, result):
    shots = np.size(a["taus"]) * a["n_repetitions"] * 3 * a["cfg"].n_shots
    tracer.counters["feedforward.shots"] += shots
    return result


def _voigt(tracer, rec, a, result):
    tracer.counters["diffusion.voigt_evals"] += np.size(a["x"])
    return result


def _survival(tracer, rec, a, result):
    if a["strength_s"] == 0.0:
        c = tracer.counters
        c["diffusion.survival_residual"] = max(c["diffusion.survival_residual"],
                                               abs(1.0 - result))
    return result


def _counts_factorized(tracer, rec, a, result):
    return tracer._wrap("diffusion.counts_of_s", "diffusion", result)


HOOKS = {
    "fitting.least_squares": _least_squares,
    "bath.t2star_distribution": _t2star_distribution,
    "sequences.expectation_unsynchronized": _phase_evals,
    "sequences.ramsey_envelope": _phase_evals,
    "sequences.phase_cpmg": _phase_evals,
    "sequences.phase_ramsey": _phase_evals,
    "sequences.phase_echo": _phase_evals,
    "sequences.phase_of": _phase_evals,
    "sequences.respond": _phase_evals,
    "noise.sample_amplitude_trajectory": _trajectory,
    "feedforward.run_feedforward": _run_feedforward,
    "diffusion.voigt_density": _voigt,
    "diffusion.SinkSolver.survival": _survival,
    "diffusion.SinkSolver.counts_factorized": _counts_factorized,
}
