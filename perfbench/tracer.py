"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the twistss modules from
outside: the program itself is not changed.  Modules import each other's
functions by name (``from .linalg import kernel``), so a function is replaced
at every module binding that holds it, not only in the module that defines
it; ``selftest.CRITERIA`` holds its criterion functions in a list, so those
entries are replaced too.  ``uninstall`` puts every original back.

Each wrapped call is a span.  Spans are aggregated in memory as they close
rather than stored, because the hot spans (``CdgaModel.wedge``, ``rref``)
close hundreds of thousands of times in one run.  For each span key the
tracer keeps the number of calls and their time; a call nested inside a call
with the same key is neither counted nor timed again, so ``load_model``
calling ``loads_model`` is one load.  A module's self time is the time during
which the innermost open span belongs to that module: its span time minus
the time of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

MODULES = ("cdga", "linalg", "twist", "spectral", "massey", "indet", "report", "selftest", "modelgen", "cli")

# (defining module, attribute, span key).  An attribute "Class.method" wraps a
# method on the class; a plain name wraps a module-level function at every
# binding.
TARGETS = [
    ("cdga", "load_model", "cdga.load"),
    ("cdga", "loads_model", "cdga.load"),
    ("cdga", "model_from_dict", "cdga.load"),
    ("cdga", "CdgaModel.__init__", "cdga.construct"),
    ("cdga", "CdgaModel.wedge", "cdga.wedge"),
    ("cdga", "CdgaModel.de_rham", "cdga.de_rham"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "solve_particular", "linalg.solve"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "image", "linalg.image"),
    ("linalg", "Mat.__matmul__", "linalg.matmul"),
    ("twist", "DOperator.__init__", "twist.doperator"),
    ("twist", "DOperator.matrix", "twist.matrix"),
    ("twist", "twisted_cohomology", "twist.cohomology"),
    ("spectral", "SpectralSequence.__init__", "spectral.sequence"),
    ("spectral", "SpectralSequence.precompute", "spectral.precompute"),
    ("spectral", "SpectralSequence.cell", "spectral.cell"),
    ("spectral", "SpectralSequence.lift_zigzag", "spectral.lift"),
    ("spectral", "SpectralSequence.differential_matrix", "spectral.dmat"),
    ("massey", "verify_main_theorems", "massey.verify"),
    ("massey", "banded_defining_system", "massey.system"),
    ("massey", "diagonal_defining_system", "massey.system"),
    ("massey", "perturbed_banded_system", "massey.system"),
    ("massey", "validate_defining_system", "massey.validate"),
    ("massey", "triple_product", "massey.triple"),
    ("indet", "indeterminacy_subgroup", "indet.subgroup"),
    ("indet", "RelativeComplex.__init__", "indet.relcomplex"),
    ("indet", "page_agreement", "indet.page_agreement"),
    ("report", "run_analysis", "report.analysis"),
    ("modelgen", "random_model", "modelgen.model"),
    ("modelgen", "random_twist", "modelgen.twist"),
    ("cli", "main", "cli.main"),
]
CRITERIA_COUNT = 12


def _metric_table() -> list[tuple[str, str, str, str]]:
    """(metric name, unit, better, source) for every per-layer metric.

    ``source`` is ``calls:<key>``, ``time:<key>``, ``self:<module>``,
    ``distinct:<key>`` or the name of a counter the tracer keeps itself.
    """
    t = [
        ("cdga.load_s", "s", "lower", "time:cdga.load"),
        ("cdga.load_calls", "count", "lower", "calls:cdga.load"),
        ("cdga.construct_s", "s", "lower", "time:cdga.construct"),
        ("cdga.wedge_calls", "count", "lower", "calls:cdga.wedge"),
        ("cdga.wedge_s", "s", "lower", "time:cdga.wedge"),
        ("cdga.de_rham_s", "s", "lower", "time:cdga.de_rham"),
        ("linalg.rref_calls", "count", "lower", "calls:linalg.rref"),
        ("linalg.rref_s", "s", "lower", "time:linalg.rref"),
        ("linalg.rref_cells", "count", "lower", "rref_cells"),
        ("linalg.rref_max_cols", "count", "lower", "rref_max_cols"),
        ("linalg.solve_calls", "count", "lower", "calls:linalg.solve"),
        ("linalg.kernel_calls", "count", "lower", "calls:linalg.kernel"),
        ("linalg.image_calls", "count", "lower", "calls:linalg.image"),
        ("linalg.matmul_s", "s", "lower", "time:linalg.matmul"),
        ("linalg.fraction_new", "count", "lower", "fraction_new"),
        ("twist.doperator_builds", "count", "lower", "calls:twist.doperator"),
        ("twist.doperator_s", "s", "lower", "time:twist.doperator"),
        ("twist.matrix_calls", "count", "lower", "calls:twist.matrix"),
        ("twist.matrix_s", "s", "lower", "time:twist.matrix"),
        ("twist.cohomology_s", "s", "lower", "time:twist.cohomology"),
        ("spectral.sequence_builds", "count", "lower", "calls:spectral.sequence"),
        ("spectral.precompute_s", "s", "lower", "time:spectral.precompute"),
        ("spectral.cell_calls", "count", "lower", "calls:spectral.cell"),
        ("spectral.cell_distinct_ratio", "ratio", "higher", "distinct:spectral.cell"),
        ("spectral.lift_calls", "count", "lower", "calls:spectral.lift"),
        ("spectral.lift_s", "s", "lower", "time:spectral.lift"),
        ("spectral.dmat_s", "s", "lower", "time:spectral.dmat"),
        ("massey.verify_s", "s", "lower", "time:massey.verify"),
        ("massey.classes_checked", "count", "higher", "classes_checked"),
        ("massey.system_s", "s", "lower", "time:massey.system"),
        ("massey.validate_s", "s", "lower", "time:massey.validate"),
        ("massey.triple_s", "s", "lower", "time:massey.triple"),
        ("indet.subgroup_calls", "count", "lower", "calls:indet.subgroup"),
        ("indet.subgroup_distinct_ratio", "ratio", "higher", "distinct:indet.subgroup"),
        ("indet.subgroup_s", "s", "lower", "time:indet.subgroup"),
        ("indet.relcomplex_builds", "count", "lower", "calls:indet.relcomplex"),
        ("indet.page_agreement_s", "s", "lower", "time:indet.page_agreement"),
        ("report.analysis_s", "s", "lower", "time:report.analysis"),
    ]
    t += [
        (f"selftest.crit{i:02d}_s", "s", "lower", f"time:selftest.crit{i:02d}")
        for i in range(1, CRITERIA_COUNT + 1)
    ]
    t += [
        ("modelgen.model_s", "s", "lower", "time:modelgen.model"),
        ("modelgen.twist_s", "s", "lower", "time:modelgen.twist"),
        ("cli.main_s", "s", "lower", "time:cli.main"),
    ]
    t += [(f"{m}.self_s", "s", "lower", f"self:{m}") for m in MODULES]
    return t


METRICS = _metric_table()


class Tracer:
    """Wraps the twistss layers in place and aggregates their spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.time: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list] = []  # [module, child time] per open span
        self._keys: defaultdict = defaultdict(set)
        self._content: dict[int, tuple] = {}  # id -> (object, content key)
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, key: str, before=None, after=None):
        module = key.split(".", 1)[0]
        calls, times, self_time, depth, stack = (
            self.calls, self.time, self.self_time, self._depth, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = depth[key] == 0
            if outer:
                calls[key] += 1
                if before is not None:
                    before(args, kwargs)
            depth[key] += 1
            frame = [module, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[key] -= 1
                self_time[module] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if outer:
                    times[key] += dt
            if outer and after is not None:
                after(result)
            return result

        return traced

    def _content_key(self, obj, make) -> tuple:
        """A content key for a model or twist, computed once per object.

        The object is kept alive so its id cannot be reused by another one.
        """
        hit = self._content.get(id(obj))
        if hit is None:
            hit = self._content[id(obj)] = (obj, make(obj))
        return hit[1]

    def _model_key(self, model) -> tuple:
        return self._content_key(model, lambda m: (m.name, m.dims))

    def _twist_key(self, H) -> tuple:
        # The components themselves: formatting them would construct Fractions
        # and so change the fraction_new count.
        return self._content_key(H, lambda h: tuple(h.components.items()))

    # -- hooks that count work ----------------------------------------------

    def _before_rref(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        self.counters["rref_cells"] += m.rows * m.cols
        if m.cols > self.counters["rref_max_cols"]:
            self.counters["rref_max_cols"] = m.cols

    def _before_cell(self, args, kwargs):
        ss, r, p = args[0], args[1], args[2]
        q = args[3] if len(args) > 3 else kwargs.get("q", 0)
        self._keys["spectral.cell"].add(
            (self._model_key(ss.model), self._twist_key(ss.H), r, p, q)
        )

    def _before_subgroup(self, args, kwargs):
        model, H, *rest = args
        self._keys["indet.subgroup"].add(
            (self._model_key(model), self._twist_key(H), tuple(rest), tuple(sorted(kwargs.items())))
        )

    def _after_verify(self, result):
        self.counters["classes_checked"] += len(result.checks)

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "twistss" or name.startswith("twistss.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        hooks = {
            "linalg.rref": (self._before_rref, None),
            "spectral.cell": (self._before_cell, None),
            "indet.subgroup": (self._before_subgroup, None),
            "massey.verify": (None, self._after_verify),
        }
        for mod_name, attr, key in TARGETS:
            mod = sys.modules[f"twistss.{mod_name}"]
            before, after = hooks.get(key, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, key, before, after))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._wrap(original, key, before, after))

        selftest = sys.modules["twistss.selftest"]
        criteria = selftest.CRITERIA
        if len(criteria) != CRITERIA_COUNT:
            raise RuntimeError(f"selftest has {len(criteria)} criteria, the tracer expects {CRITERIA_COUNT}")
        saved = list(criteria)
        criteria[:] = [
            (desc, self._wrap(fn, f"selftest.crit{i:02d}")) for i, (desc, fn) in enumerate(saved, start=1)
        ]
        self._undo.append((criteria, slice(None), saved))

        original_new = Fraction.__dict__["__new__"]
        plain_new = original_new.__func__
        counters = self.counters

        def counting_new(cls, *args, **kwargs):
            counters["fraction_new"] += 1
            return plain_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._undo.append((Fraction, "__new__", original_new))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if isinstance(attr, slice):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, unit, _better, source in METRICS:
            kind, _, key = source.partition(":")
            if kind == "calls":
                value = self.calls[key]
            elif kind == "time":
                value = self.time[key]
            elif kind == "self":
                value = self.self_time[key]
            elif kind == "distinct":
                value = len(self._keys[key]) / self.calls[key] if self.calls[key] else 0.0
            else:
                value = self.counters[source]
            out[name] = {"value": value, "unit": unit}
        return out
