"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps each public library function listed in ``WRAPPED`` exactly
once.  The single wrapper is bound in the defining module and at every other
``cdplift`` module that imported the same function object (for example
``apply_A`` in ``cdplift.diffraction``, ``cdplift.solver`` and
``cdplift.certify``), so a call is recorded once whichever name reached it.
Rebinding per import site by wrapping whatever a site currently holds would
wrap a wrapper and count nested calls twice; finding sites by identity with
the original avoids that, and ``install`` refuses a function that is already
wrapped.

Spans are ``(op, parent, name, start, end)`` tuples kept in a list until the
pass ends; a span's id is its index, so a parent always precedes its children.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

#: (defining module, attribute) of every wrapped function, by layer.
WRAPPED = (
    ("cdplift.diffraction", "sample_masks"),
    ("cdplift.diffraction", "measure"),
    ("cdplift.diffraction", "apply_A"),
    ("cdplift.diffraction", "apply_A_adjoint"),
    ("cdplift.diffraction", "apply_R"),
    ("cdplift.hermitian", "psd_project"),
    ("cdplift.hermitian", "TangentSpace.project"),
    ("cdplift.solver", "solve_phaselift"),
    ("cdplift.solver", "extract_signal"),
    ("cdplift.certify", "golfing_construct"),
    ("cdplift.certify", "verify_certificate"),
    ("cdplift.certify", "injectivity_spectrum"),
    ("cdplift.certify", "certify_optimality"),
    ("cdplift.certify", "check_near_isotropy_exact"),
    ("cdplift.certify", "check_two_design_exact"),
)

_MARK = "__perfbench_span__"


def span_name(module: str, attr: str) -> str:
    """``cdplift.diffraction`` + ``apply_A`` -> ``diffraction.apply_A``."""
    return module.rsplit(".", 1)[-1] + "." + attr


def _owner_and_leaf(module: str, attr: str):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, leaf = attr.split(".")
        return getattr(mod, cls_name), leaf
    return mod, attr


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cdplift" or name.startswith("cdplift."))]


def wrapped_bindings() -> list[str]:
    """Every library binding that currently holds a tracer wrapper."""
    found = []
    for module, attr in WRAPPED:
        owner, leaf = _owner_and_leaf(module, attr)
        is_method = owner is not importlib.import_module(module)
        for site in [owner] if is_method else _library_modules():
            if hasattr(vars(site).get(leaf), _MARK):
                found.append(f"{site.__module__ if is_method else site.__name__}.{attr}")
    return found


class Tracer:
    """Collects spans; ``installed()`` routes library calls through it."""

    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._bindings: list = []  # (site, leaf, original)

    @contextmanager
    def span(self, name: str):
        """Span for a call the benchmark makes itself."""
        spans, stack = self.spans, self._stack
        sid = len(spans)
        parent = stack[-1] if stack else None
        spans.append(None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[sid] = (self.op, parent, name, start, end)

    def _wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (tracer.op, parent, name, start, end)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _library_modules()
        try:
            for module, attr in WRAPPED:
                owner, leaf = _owner_and_leaf(module, attr)
                original = vars(owner)[leaf]
                if hasattr(original, _MARK):
                    raise RuntimeError(f"{module}.{attr} is already wrapped")
                if owner is importlib.import_module(module):
                    sites = [m for m in modules if vars(m).get(leaf) is original]
                else:  # a method: the class object is shared by every importer
                    sites = [owner]
                wrapper = self._wrap(span_name(module, attr), original)
                for site in sites:
                    setattr(site, leaf, wrapper)
                    self._bindings.append((site, leaf, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original this tracer replaced."""
        while self._bindings:
            site, leaf, original = self._bindings.pop()
            setattr(site, leaf, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def summarize(spans, ops) -> dict:
    """Per-name call counts, inclusive and self seconds, over the given ops.

    Only spans under an ``op`` root count, so output checks the benchmark
    runs after an op do not add to the op's layers.  ``from`` maps each name
    to the call count per parent name, which separates, say, the ``apply_A``
    calls the solver makes itself from those made through ``apply_R``.
    """
    ops = set(ops)
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for sid, (op, parent, name, start, end) in enumerate(spans):
        root[sid] = sid if parent is None else root[parent]
        if parent is not None:
            child_time[parent] += end - start
    out: dict = {}
    for sid, (op, parent, name, start, end) in enumerate(spans):
        if op not in ops or spans[root[sid]][2] != "op":
            continue
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "from": {}})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[sid]
        caller = spans[parent][2] if parent is not None else None
        row["from"][caller] = row["from"].get(caller, 0) + 1
    return out


def nested_self_calls(spans) -> list[str]:
    """Names with a span whose direct parent has the same name.

    No wrapped function is recursive, so any such pair means one call was
    recorded twice, which is what wrapping a wrapper produces.
    """
    return sorted({name for op, parent, name, start, end in spans
                   if parent is not None and spans[parent][2] == name})
