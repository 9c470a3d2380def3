"""Span tracing for the benchmark's traced run, installed from outside ppmod.

Every call listed in TARGETS becomes a span: its name, its start and end
on ``time.perf_counter`` and its parent (the innermost open span).  Spans
are folded into per-name totals as they close, so memory stays constant
however many calls a run makes (the mesh suite alone makes ~664k
``normalize_path`` calls).  Self time is a span's duration minus the time
covered by its direct child spans.

Installing rewires ppmod in place:
  - a method is replaced on its class;
  - a module-level function is rebound under every name that holds it in
    every loaded ``ppmod`` / ``ppmod.*`` module namespace, because modules
    such as ``suites`` import ``hom_space`` and ``iso_test`` by name.
Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (layer, attribute, split self time by field)
TARGETS = (
    ("linalg", "Matrix.rref", True),
    ("linalg", "Matrix.__mul__", True),
    ("linalg", "Matrix.__add__", True),
    ("linalg", "Matrix.solve_right", False),
    ("linalg", "right_kernel_packed_f2", False),
    ("linalg", "Subspace.contains_vector", True),
    ("linalg", "subspace_sum", False),
    ("linalg", "subspace_leq", False),
    ("modules", "hom_space", False),
    ("modules", "iso_test", False),
    ("modules", "presentation_of", False),
    ("modules", "k_dual", False),
    ("decompose", "decompose", False),
    ("decompose", "radical_subspace", False),
    ("decompose", "RadicalCalculus.rad_power", False),
    ("ppformula", "PpFormula.evaluate", False),
    ("ppformula", "PpFormula.implies", False),
    ("ppformula", "dual", False),
    ("ppformula", "pp_sum", False),
    ("ppformula", "pp_meet", False),
    ("ppformula", "pp_type_generator_of_element", False),
    ("oracles", "brute_eval_f2", False),
    ("probes", "interval_probe", False),
    ("probes", "probe_embedding", False),
    ("tower", "build_tower", False),
    ("tower", "classify", False),
    ("tower", "verify_hom_bounds", False),
    ("tube", "normalize_path", False),
    ("tube", "all_paths_from", False),
    ("tube", "hom_dimension", False),
    ("realize", "realize_in_tower", False),
    ("ziegler", "closure", False),
    ("cli", "execute", False),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
FIELD_KINDS = ("gf2", "gfp", "qq")
ISO_TEST = "modules.iso_test"


def span_name(layer: str, attr: str) -> str:
    short = attr.rsplit(".", 1)[-1].strip("_")
    return f"{layer}.{short}"


def _field_kind(field) -> str:
    if field.p is None:
        return "qq"
    return "gf2" if field.p == 2 else "gfp"


def _matrix_field(args):
    return args[0].field


class Tracer:
    """Per-span-name call counts and self time; spans nest on one stack."""

    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.none_results = 0
        self._stack: list[list[float]] = []

    def _bucket(self, key: str) -> None:
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)

    def wrap(self, fn, key: str, field_of=None, count_none=False):
        """A span-recording stand-in for fn; key may gain a field suffix."""
        clock = time.perf_counter
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        if field_of is not None:
            for kind in FIELD_KINDS:
                self._bucket(f"{key}.{kind}")
        else:
            self._bucket(key)

        if inspect.isgeneratorfunction(fn):
            # time each resumption, so a consumer's own work between two
            # items is not charged to the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.enabled:
                    yield from fn(*args, **kwargs)
                    return
                calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - t0
                        stack.pop()
                        self_s[key] += dur - frame[0]
                        if stack:
                            stack[-1][0] += dur
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = key if field_of is None else \
                f"{key}.{_field_kind(field_of(args))}"
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if count_none and out is None:
                self.none_results += 1
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every target in the loaded ppmod package."""
        importlib.import_module("ppmod")
        for layer, attr, split in TARGETS:
            module = importlib.import_module(f"ppmod.{layer}")
            key = span_name(layer, attr)
            field_of = _matrix_field if split else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], key,
                                             field_of))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(orig, key, field_of,
                                count_none=(key == ISO_TEST))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ppmod" or
                                       mod_name.startswith("ppmod.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)

    def metrics(self) -> dict[str, float]:
        """<span>.calls, <span>.self_s (and .self_s.gf2/.gfp/.qq for split
        spans), modules.iso_test.none_frac and <layer>.self_s."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, attr, split in TARGETS:
            span = span_name(layer, attr)
            if split:
                keys = [f"{span}.{kind}" for kind in FIELD_KINDS]
            else:
                keys = [span]
            calls = sum(self.calls[k] for k in keys)
            total = sum(self.self_s[k] for k in keys)
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = total
            if split:
                for kind, k in zip(FIELD_KINDS, keys):
                    out[f"{span}.self_s.{kind}"] = self.self_s[k]
            if span == ISO_TEST:
                out[f"{span}.none_frac"] = \
                    self.none_results / calls if calls else 0.0
            layer_self[layer] += total
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total
        return out
