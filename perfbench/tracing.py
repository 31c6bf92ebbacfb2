"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary:
``Tracer.install`` replaces the public entry points listed in
``ENTRY_POINTS`` with timing wrappers, in every loaded ``resodec``
module and benchmark module that binds them, and ``Tracer.uninstall``
puts the originals back.  Nothing inside ``src/resodec`` is modified.

Each span is (id, name, layer, parent id, run id, start, end, attrs).
Spans stay in memory until ``dump_spans`` writes them out at the end of a
run.  A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("config", "model", "reservoir", "resonances", "dynamics",
          "register", "oracle", "cli")

#: Entry points wrapped per layer.  Functions that run inside
#: quadrature integrands or per-matrix-element loops (``xi``,
#: ``thermal_spectral_density``, ``ReservoirTransforms.wplus``,
#: ``hamming_and_e0``, ...) are left alone: a span there would cost
#: more than the work it times.
ENTRY_POINTS = {
    "config": ("load_config", "system_from_config",
               "register_from_config", "form_factor_from_config"),
    "model": ("build_system", "register_to_system", "gibbs_state"),
    "reservoir": ("half_line_transform", "pv_energy_shift",
                  "mean_inverse_frequency", "xi_lorentzian_check"),
    "resonances": ("bohr_spectrum", "level_shift_operator",
                   "resonance_energies", "check_nonoverlap"),
    "dynamics": ("propagator_blocks", "resonance_evolution",
                 "free_evolution", "ergodic_mean"),
    "register": ("generic_field_check", "decoherence_rates",
                 "scaling_study"),
    "oracle": ("discretize_bath", "exact_evolve", "dephasing_envelope",
               "fit_decay", "verify"),
    "cli": ("run",),
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    run: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._originals: dict[str, object] = {}

    # ----------------------------------------------------------------
    # installation
    # ----------------------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap the entry points in every resodec module and in the
        ``callers`` modules (the benchmark's own) that bind them."""
        homes = {layer: importlib.import_module(f"resodec.{layer}")
                 for layer in ENTRY_POINTS}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "resodec"
                                         or name.startswith("resodec."))]
        modules += list(callers)
        for layer, names in ENTRY_POINTS.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name)
                self._originals[f"{layer}.{name}"] = original
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        observe = _OBSERVERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            span = Span(sid, span_name, layer, parent, self.run, 0.0, 0.0)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result

        return traced

    def original(self, name: str):
        """The unwrapped function behind a traced entry point."""
        return self._originals[name]


def dump_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([asdict(s) for s in spans], handle)


def load_spans(path) -> list[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(**record) for record in json.load(handle)]


def self_times(spans) -> dict:
    """Per-layer self time: span durations minus their children's."""
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] += s.duration - covered.get(s.id, 0.0)
    return out


# =====================================================================
# Counts recorded at the same boundaries as the spans
# =====================================================================

def _resonance_stats(tracer, span, args, kwargs, result):
    """Group count, largest group and non-overlap margin of one
    ``resonance_energies`` result, measured after the span ends."""
    span.attrs["groups"] = len(result)
    span.attrs["group_size_max"] = max((len(r.pairs) for r in result),
                                       default=0)
    report = tracer.original("resonances.check_nonoverlap")(
        args[0], resonances=result)
    if math.isfinite(report.margin):
        span.attrs["margin"] = report.margin


def _sector_stats(tracer, span, args, kwargs, result):
    """Dimension of the evolved state space, computed from the mode
    count and the excitation cap with the engine's own selection rule
    (the engine does not report it)."""
    from resodec import oracle

    spec, bath = args[0], args[1]
    baths = [bath] * len(spec.couplings) \
        if isinstance(bath, oracle.TruncatedBath) else list(bath)
    active = [b for t, b in zip(spec.couplings, baths)
              if t.strength != 0.0 and not t.form_factor.is_zero]
    if not active:
        return
    modes = sum(b.n_modes for b in active)
    product = spec.dim
    for b in active:
        product *= (b.fock_cutoff + 1) ** b.n_modes
        if product > 10 * oracle.STATE_SPACE_LIMIT:
            break
    method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
    if method == "dense" or (method == "auto"
                             and product <= oracle.DENSE_AUTO_LIMIT):
        span.attrs["state_dim"] = product
        return
    for cap in range(min(b.fock_cutoff for b in active), 1, -1):
        dim = spec.dim * sum(math.comb(modes + j - 1, j)
                             for j in range(cap + 1))
        if dim <= oracle.STATE_SPACE_LIMIT:
            span.attrs["state_dim"] = dim
            span.attrs["cap"] = cap
            return


_OBSERVERS = {
    "resonances.resonance_energies": _resonance_stats,
    "oracle.exact_evolve": _sector_stats,
}
