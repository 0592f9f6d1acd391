"""In-process span tracer for singularflow, installed by rebinding names.

The tracer never edits the package.  `Tracer.install()` replaces public
functions (and the integrator entry points as each module imported them)
with wrappers that open a span on entry and close it on exit; `uninstall()`
puts the originals back.  A span records its name, layer, parent, start and
end, plus counters that are too hot to be spans of their own:

* right-hand-side calls made by an integrator span, with their time;
* `sphere_map` calls of a counting field, with their time;
* accepted steps of the Dormand-Prince stepper.

Layer self time is a span's duration minus its child spans.  Inside an
integrator span, time spent in the caller's right-hand-side closure is
charged to the caller's layer (renorm, attractors, regularize or
continuation), and time inside `sphere_map` is charged to `fields`, so the
`integrators` layer keeps only the stepper's own arithmetic.  Spans stay in
memory and are written out once, by `dump`.
"""

from __future__ import annotations

import dataclasses
import json
import time

LAYERS = (
    "fields",
    "integrators",
    "renorm",
    "attractors",
    "regularize",
    "continuation",
    "cli",
)

# (module, name, layer) for each function that gets a span.  A name that a
# module no longer defines is skipped, so the tracer outlives refactors.
SPANNED = (
    ("integrators", "integrate", "integrators"),
    ("integrators", "_integrate_to_crossing", "integrators"),
    ("renorm", "classify_blowup", "renorm"),
    ("renorm", "renorm_integrate", "renorm"),
    ("renorm", "radial_averages", "renorm"),
    ("attractors", "catalog_attractors", "attractors"),
    ("attractors", "find_fixed_points", "attractors"),
    ("attractors", "find_limit_cycle", "attractors"),
    ("attractors", "rescaled_escape", "attractors"),
    ("attractors", "_outside_excursion", "attractors"),
    ("regularize", "integrate_regularized", "regularize"),
    ("continuation", "inviscid_sweep", "continuation"),
    ("continuation", "build_cycle_family", "continuation"),
    ("continuation", "estimate_phase", "continuation"),
    ("cli", "main", "cli"),
)

# Functions whose first argument is a right-hand side to count and time.
RHS_TAKERS = ("integrate", "_integrate_to_crossing")

# Modules searched for imported copies of the spanned functions.
MODULES = ("integrators", "renorm", "attractors", "regularize", "continuation", "cli")


class Span:
    __slots__ = (
        "name", "layer", "parent", "start", "end", "error",
        "steps", "rhs_calls", "rhs_s", "rhs_fields_s", "fields_s", "child_s",
    )

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = None
        self.error = None
        self.steps = 0
        self.rhs_calls = 0
        self.rhs_s = 0.0
        self.rhs_fields_s = 0.0
        self.fields_s = 0.0
        self.child_s = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, package_modules):
        self.mods = package_modules  # short name -> module object
        self.spans = []
        self.stack = []
        self.sphere_map_calls = 0
        self.fields_total_s = 0.0
        self.family_evals = 0
        self.classify = []  # (stages, steps integrated, steps returned, s_end)
        self.catalogs = []  # limit cycles kept per catalog
        self.revisits = 0
        self._saved = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span, error=None):
        span.end = time.perf_counter()
        span.error = error
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def _owner_layer(self, span):
        """Layer of the nearest non-integrator ancestor: who wrote the RHS."""
        s = span
        while s is not None and s.layer == "integrators":
            s = s.parent
        return s.layer if s is not None else "integrators"

    def _spanned(self, fn, name, layer):
        tracer = self
        takes_rhs = fn.__name__ in RHS_TAKERS
        hook = {
            "classify_blowup": self._after_classify,
            "catalog_attractors": self._after_catalog,
            "rescaled_escape": self._after_escape,
        }.get(fn.__name__)

        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            if takes_rhs and args:
                args = (tracer._timed_rhs(args[0], span),) + args[1:]
            first_child = len(tracer.spans)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, type(exc).__name__)
                raise
            tracer._close(span)
            if hook is not None:
                hook(first_child, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_rhs(self, rhs, span):
        tracer = self
        clock = time.perf_counter

        def timed(t, x):
            f0 = tracer.fields_total_s
            t0 = clock()
            out = rhs(t, x)
            span.rhs_s += clock() - t0
            span.rhs_fields_s += tracer.fields_total_s - f0
            span.rhs_calls += 1
            return out

        return timed

    # -- per-call hooks for ratios measured where the work happens ---------

    def _after_classify(self, first_child, verdict):
        inner = self.spans[first_child:]
        stages = sum(1 for s in inner if s.name == "renorm.renorm_integrate")
        steps = sum(s.steps for s in inner)
        renorm = getattr(verdict, "renorm", None)
        returned = len(renorm.s) - 1 if renorm is not None else 0
        s_end = float(renorm.s_end) if renorm is not None else 0.0
        self.classify.append((stages, steps, returned, s_end))

    def _after_catalog(self, first_child, catalog):
        self.catalogs.append(sum(1 for a in catalog if a.kind == "limit_cycle"))

    def _after_escape(self, first_child, result):
        self.revisits += int(getattr(result, "revisits", 0))

    # -- installation -------------------------------------------------------

    def counting_field(self, field):
        """The same field with a sphere_map that counts and times its calls."""
        tracer = self
        smap = field.sphere_map
        clock = time.perf_counter

        def counted(y):
            t0 = clock()
            out = smap(y)
            dt = clock() - t0
            tracer.sphere_map_calls += 1
            tracer.fields_total_s += dt
            if tracer.stack:
                tracer.stack[-1].fields_s += dt
            return out

        return dataclasses.replace(field, sphere_map=counted)

    def _rebind(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        mods = self.mods
        for mod_name, name, layer in SPANNED:
            fn = getattr(mods[mod_name], name, None)
            if fn is None:
                continue
            wrapped = self._spanned(fn, f"{mod_name}.{name.lstrip('_')}", layer)
            for other in MODULES:
                for attr, value in list(vars(mods[other]).items()):
                    if value is fn:
                        self._rebind(mods[other], attr, wrapped)

        stepper = getattr(mods["integrators"], "_stepper", None)
        if stepper is not None:
            tracer = self

            def counted_stepper(*args, **kwargs):
                span = tracer.stack[-1] if tracer.stack else None
                for step in stepper(*args, **kwargs):
                    if span is not None:
                        span.steps += 1
                    yield step

            self._rebind(mods["integrators"], "_stepper", counted_stepper)

        builtin = getattr(mods["cli"], "builtin_field", None)
        if builtin is not None:
            self._rebind(mods["cli"], "builtin_field",
                         lambda *a, **k: self.counting_field(builtin(*a, **k)))

        family = getattr(mods["continuation"], "ContinuationFamily", None)
        if family is not None:
            evaluate = family.eval

            def counted_eval(fam, *args, **kwargs):
                self.family_evals += 1
                return evaluate(fam, *args, **kwargs)

            self._rebind(family, "eval", counted_eval)

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Seconds of self time per layer; they sum to the top-level spans."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            outside_rhs_fields = s.fields_s - s.rhs_fields_s
            own = s.duration - s.child_s - s.rhs_s - outside_rhs_fields
            out[s.layer] += own
            if s.rhs_calls:
                out[self._owner_layer(s)] += s.rhs_s - s.rhs_fields_s
            out["fields"] += s.fields_s
        return out

    def _named(self, name):
        return [s for s in self.spans if s.name == name]

    def layer_metrics(self):
        """Counts and ratios per layer, measured at the span boundaries."""
        spans = self.spans
        steps = sum(s.steps for s in spans)
        rhs_calls = sum(s.rhs_calls for s in spans)
        events = self._named("integrators.integrate_to_crossing")
        flc = self._named("attractors.find_limit_cycle")
        reg = self._named("regularize.integrate_regularized")
        reg_children = [s for s in spans if s.parent is not None
                        and s.parent.name == "regularize.integrate_regularized"]
        reg_rhs = sum(s.rhs_calls for s in reg_children)
        rerun_rhs = sum(s.rhs_calls for s in reg_children if s.name == "integrators.integrate")
        crossings = sum(1 for s in reg_children
                        if s.name == "integrators.integrate_to_crossing" and s.error is None)
        phase = self._named("continuation.estimate_phase")
        n_classify = len(self.classify)
        integrated = sum(c[1] for c in self.classify)
        catalog_flc = sum(1 for s in flc if s.parent is not None
                          and s.parent.name == "attractors.catalog_attractors")

        def total(name):
            return sum(s.duration for s in self._named(name))

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "fields.sphere_map_calls": (self.sphere_map_calls, "count"),
            "integrators.accepted_steps": (steps, "count"),
            "integrators.rhs_calls_per_step": (ratio(rhs_calls, steps), "ratio"),
            "integrators.event_search_calls": (len(events), "count"),
            "integrators.event_search_s": (sum(s.duration for s in events), "s"),
            "renorm.stages_per_classify": (
                ratio(sum(c[0] for c in self.classify), n_classify), "count"),
            "renorm.s_reached_mean": (
                ratio(sum(c[3] for c in self.classify), n_classify), "s_renorm"),
            "renorm.useful_step_ratio": (
                ratio(sum(c[2] for c in self.classify), integrated), "ratio"),
            "attractors.find_limit_cycle_calls": (len(flc), "count"),
            "attractors.cycle_found_ratio": (ratio(sum(self.catalogs), catalog_flc), "ratio"),
            "attractors.catalog_s": (total("attractors.catalog_attractors"), "s"),
            "attractors.find_fixed_points_s": (total("attractors.find_fixed_points"), "s"),
            "attractors.rescaled_escape_s": (total("attractors.rescaled_escape"), "s"),
            "attractors.escape_revisits": (self.revisits, "count"),
            "regularize.runs": (len(reg), "count"),
            "regularize.ms_per_run": (
                1e3 * ratio(sum(s.duration for s in reg), len(reg)), "ms"),
            "regularize.ball_crossings": (crossings, "count"),
            "regularize.rerun_rhs_frac": (ratio(rerun_rhs, reg_rhs), "ratio"),
            "continuation.estimate_phase_calls": (len(phase), "count"),
            "continuation.estimate_phase_ms": (
                1e3 * ratio(sum(s.duration for s in phase), len(phase)), "ms"),
            "continuation.family_evals": (self.family_evals, "count"),
            "continuation.build_cycle_family_s": (total("continuation.build_cycle_family"), "s"),
        }

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "layer": s.layer,
                "parent": index[id(s.parent)] if s.parent is not None else None,
                "start": s.start,
                "end": s.end,
                "error": s.error,
                "steps": s.steps,
                "rhs_calls": s.rhs_calls,
                "rhs_s": s.rhs_s,
                "fields_s": s.fields_s,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
