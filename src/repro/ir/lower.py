"""Lowering: a kernel's stencil IR, compiled to C and run natively.

The paper's claim is that the high-level kernel body *is* the code that
runs. :func:`lower` makes that true here: the scalar body the JIT traces
is traced once more with its scalar launch arguments as parameters
(``$Du``, ``$seed``, ...), promoted by :func:`~repro.ir.core.from_trace`,
cleaned by ``rle``/``cse``/``dse``, and emitted in op order as one C
function over the iteration box its guards give. ``cc`` compiles it at
the first launch, once per process and source, and ``ctypes`` calls it
without the GIL. :func:`run` is the only way a launch executes: a launch
that cannot lower raises :class:`~repro.util.errors.IrError`, one whose
arrays do not fit its lowering raises
:class:`~repro.util.errors.LaunchError`, and a host without a working C
compiler raises :class:`~repro.util.errors.NativeToolchainError`. See
``docs/IR.md``, "Lowering", for the rules.
"""

from __future__ import annotations

import inspect
import math
import shutil
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.gpu import jitcache
from repro.gpu.jit import (
    COMPARE,
    PARAM_PREFIX,
    Affine,
    TracedArray,
    TracedFloat,
    TracedInt,
    TraceError,
    Tracer,
    trace_memo,
)
from repro.gpu.kernel import KernelContext
from repro.ir.core import ArithOp, LoadOp, RandOp, StencilFunc, StoreOp, from_trace
from repro.ir.passes import PassManager
from repro.observe import trace as observe
from repro.util.errors import IrError, LaunchError, NativeToolchainError

#: launch axes; a launch symbol's box is indexed by its position here
AXES = ("x", "y", "z")
PASSES = ("rle", "cse", "dse")
#: the C element type of each array dtype that lowers
_CTYPES = {"float32": "float", "float64": "double"}
_COPS = {"fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/"}
#: the compile command after ``cc``; contraction off keeps a*b+c two roundings
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: seconds a compile may take before the compiler is killed
COMPILE_TIMEOUT = 120.0
_U64 = (1 << 64) - 1
#: splitmix64 as :func:`repro.gpu.rand.counter_hash` computes it
_PRELUDE = """#include <stdint.h>

static inline uint64_t mix(uint64_t h, uint64_t key)
{
    uint64_t z = (h ^ key) + UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

"""


def _arguments(kernel, raw) -> list[tuple[str, str, object]]:
    """(kind, name, value) per argument: array, float, int or const."""
    names = list(inspect.signature(kernel.body).parameters)[1:]
    if len(names) != len(raw):
        raise IrError("the body does not name one parameter per argument")
    out = []
    for name, arg in zip(names, raw):
        if isinstance(arg, np.ndarray):
            if arg.ndim != 3 or not arg.flags.f_contiguous:
                raise IrError(f"array {name} is not a 3-D Fortran-ordered array")
            if arg.dtype.name not in _CTYPES or not arg.dtype.isnative:
                raise IrError(f"array {name} of dtype {arg.dtype.name} ({arg.dtype.str}) "
                              "does not lower")
            out.append(("array", name, arg))
        elif isinstance(arg, tuple):  # keyed by value in the memo signature
            out.append(("const", name, arg))
        elif isinstance(arg, float):  # np.float64 included
            out.append(("float", PARAM_PREFIX + name, arg))
        elif isinstance(arg, (int, np.integer)) and not isinstance(arg, bool):
            out.append(("int", PARAM_PREFIX + name, arg))
        else:
            raise IrError(f"argument {name} of type {type(arg).__name__}")
    return out


class _LaunchPoint(KernelContext):
    """The traced workitem: a global index and no workgroup, so a body
    that reads workgroup or workitem ids does not lower."""

    def __init__(self, index) -> None:
        object.__setattr__(self, "index", index)

    def global_idx(self):
        return self.index

    def __getattr__(self, name):
        raise TraceError(f"the body reads ctx.{name}, which depends on the workgroup")


def _trace(kernel, arguments, point) -> Tracer:
    """Trace ``kernel.body`` once at launch point ``point``."""
    params = tuple(n for kind, n, _ in arguments if kind in ("float", "int"))
    tracer = Tracer(kernel.name, params=params)
    args = []
    for kind, name, value in arguments:
        if kind == "array":
            tracer.trace.array_dtypes[name] = value.dtype.name
            tracer.trace.array_shapes[name] = tuple(value.shape)
            stand_in = as_strided(np.zeros(1), value.shape, (0,) * value.ndim)
            args.append(TracedArray(tracer, name, stand_in))  # one cell, no copy
        elif kind == "float":
            args.append(TracedFloat(tracer, float(value), name))
        elif kind == "int":
            args.append(TracedInt(tracer, int(value), Affine.symbol(name)))
        else:
            args.append(value)
    index = tuple(TracedInt(tracer, p, Affine.symbol(a)) for p, a in zip(point, AXES))
    try:
        kernel.body(_LaunchPoint(index), *args)
    except TraceError as exc:
        raise IrError(f"cannot trace {kernel.name}: {exc}") from exc
    return tracer


def _axis_guard(guard, extent):
    """``(axis, mask)`` of a guard on one launch axis, the mask marking the
    cells where it decides as it did; None for a guard on no symbol. Any
    other guard does not lower."""
    diff, op, result = guard
    if not diff.linear_part:
        return None
    if len(diff.linear_part) != 1 or diff.linear_part[0][0] not in AXES:
        raise IrError(f"guard on {diff} is not a per-axis bound")
    ((sym, coeff),) = diff.linear_part
    a = AXES.index(sym)
    return a, COMPARE[op](np.arange(extent[a]) * coeff + diff.const, 0) == result


def _interior(kernel, arguments, extent):
    """A trace that reaches the kernel body, and its launch point.

    The first probe is ``(2, 2, 2)``, clamped to the extent. A probe that
    returns early has recorded, last, the guard that sent it out; the
    next probe moves along that guard's axis to the nearest coordinate
    that flips it, so each axis finds its own way into the box.
    """
    point = [min(2, e - 1) for e in extent]
    for _ in range(64):
        tracer = _trace(kernel, arguments, point)
        if tracer.trace.ops:
            return tracer, tuple(point)
        found = _axis_guard(tracer.guards[-1], extent) if tracer.guards else None
        if found is None or found[1].all():
            break
        a, same = found
        flips = np.flatnonzero(~same)
        point[a] = int(flips[np.abs(flips - point[a]).argmin()])
    raise IrError("no traced workitem reaches the kernel body")


def _trace_box(kernel, arguments, extent):
    """The interior trace and its launch box ``[(lo, hi)]`` per axis.

    A workitem outside the box makes some guard decide differently from
    the interior; the first such guard is the one it flips. So each guard
    is probed at the nearest coordinate on each side that flips it, and
    the probe must record the interior's guards up to that one, then
    nothing: no op and no further comparison.
    """
    tracer, point = _interior(kernel, arguments, extent)
    guards = tracer.guards
    inside = [np.ones(e, bool) for e in extent]
    for j, (diff, op, result) in enumerate(guards):
        found = _axis_guard((diff, op, result), extent)
        if found is None:
            continue
        a, same = found
        inside[a] &= same
        flips = np.flatnonzero(~same)
        for probe in (flips[flips < point[a]][-1:], flips[flips > point[a]][:1]):
            if probe.size:
                at = list(point)
                at[a] = int(probe[0])
                seen = _trace(kernel, arguments, at)
                if seen.trace.ops or seen.guards != [*guards[:j], (diff, op, not result)]:
                    raise IrError(f"workitem {tuple(at)} outside the guarded box runs "
                                  "ops or takes another branch")
    box = []
    for a, mask in enumerate(inside):
        cells = np.flatnonzero(mask)
        if cells[-1] - cells[0] + 1 != cells.size:
            raise IrError(f"a guard excludes cells inside the box on axis {AXES[a]}")
        box.append((int(cells[0]), int(cells[-1]) + 1))
    return tracer.trace, box


@dataclass(frozen=True)
class LaunchPlan:
    """One launch signature for an emitter; the box is per array axis."""

    func: StencilFunc
    arguments: list
    pos: dict
    shape: tuple
    axis_sym: tuple
    lo: tuple
    hi: tuple
    stores: tuple


def plan(kernel, raw, config, passes=PASSES) -> LaunchPlan:
    """Trace, box and clean one launch; raises :class:`IrError` if it
    cannot lower. ``raw`` are the launch arguments with device arrays
    unwrapped; ``passes`` is the per-func pipeline."""
    arguments = _arguments(kernel, raw)
    trace, box = _trace_box(kernel, arguments, config.global_extent)
    func, _ = PassManager(passes).run_func(from_trace(trace))
    if func.type_escapes:
        raise IrError(f"type escape: {func.type_escapes[0][1]}")
    pos = {name: p for p, (_, name, _) in enumerate(arguments)}
    shapes = {value.shape for kind, _, value in arguments if kind == "array"}
    if len(shapes) != 1:
        raise IrError("the array arguments differ in shape")
    (shape,) = shapes
    stores = [op.array for op in func.ops if isinstance(op, StoreOp)]
    if {op.array for op in func.ops if isinstance(op, LoadOp)} & set(stores) or len(
        set(stores)
    ) != len(stores):
        raise IrError("an array is stored twice, or stored and loaded")

    # every access indexes array axis a by one launch symbol, axis_sym[a]
    axis_sym: list[str | None] = [None, None, None]
    for op in func.ops:
        if isinstance(op, (LoadOp, StoreOp)):
            for a, expr in enumerate(op.exprs):
                terms = expr.linear_part
                if len(terms) != 1 or terms[0][1] != 1 or terms[0][0] not in AXES or (
                    axis_sym[a] not in (None, terms[0][0])
                ):
                    raise IrError(f"{op.access} is not axis + const on a fixed axis")
                axis_sym[a] = terms[0][0]
    if sorted(map(str, axis_sym)) != sorted(AXES):
        raise IrError("the launch axes do not map one to one onto array axes")
    lo, hi = zip(*(box[AXES.index(s)] for s in axis_sym))
    for op in func.ops:
        if isinstance(op, (LoadOp, StoreOp)) and any(
            l + e.const < 0 or h + e.const > n
            for l, h, e, n in zip(lo, hi, op.exprs, shape)
        ):
            raise IrError(f"{op.access} leaves the array")
    return LaunchPlan(func, arguments, pos, shape, tuple(axis_sym), lo, hi,
                      tuple(pos[a] for a in stores))


def _axes(launch: LaunchPlan, key) -> set[int]:
    """The loop indices a rand key reads."""
    if not isinstance(key, Affine):
        return set()
    return {launch.axis_sym.index(s) for s, _ in key.linear_part if s in launch.axis_sym}


def _prefix(launch: LaunchPlan, op: RandOp) -> tuple[int, bool]:
    """How many of a rand op's keys precede the first that reads ``i2``,
    and whether those read a loop index (a row table) or not (a scalar)."""
    split = next((n for n, k in enumerate(op.keys) if 2 in _axes(launch, k)), len(op.keys))
    return split, any(_axes(launch, k) for k in op.keys[:split])


def emit_c(launch: LaunchPlan) -> str:
    """The C source of a planned launch: ``void lowered(n0, n1, lo0, hi0,
    lo1, hi1, lo2, hi2, t, <one parameter per launch argument>)``, after
    a comment naming the compile command, so the source's hash covers it.

    The loops run ``i1`` outermost, then ``i2``, then ``i0``. A rand op's
    keys before the first one that reads ``i2`` are hashed once per call
    if they read no loop index, else once per ``(i0, i1)`` column, before
    the ``i2`` loop, into its row of the caller's scratch table ``t``
    (``hi0 - lo0`` entries per tabulated rand op). Each cell mixes in
    only the keys from there on.
    """
    params = ["int64_t n0", "int64_t n1"] + [
        f"int64_t lo{a}, int64_t hi{a}" for a in range(3)] + ["uint64_t *restrict t"]
    for p, (kind, _, value) in enumerate(launch.arguments):
        if kind == "array":
            params.append(f"{_CTYPES[value.dtype.name]} *restrict a{p}")
        elif kind != "const":
            params.append(f"{'double' if kind == 'float' else 'int64_t'} a{p}")
    scalar: set[str] = set()  # SSA values computed once per call
    head: list[str] = []
    row: list[str] = []  # once per (i0, i1) column, into the row tables
    body: list[str] = []

    def operand(name: str) -> str:
        if name.startswith("%"):
            return f"v{name[1:]}"
        if name.startswith(PARAM_PREFIX):
            p = launch.pos[name]
            return f"a{p}" if launch.arguments[p][0] == "float" else f"(double)a{p}"
        if not math.isfinite(float(name)):
            raise IrError(f"literal {name} is not finite")
        return f"({float(name).hex()})"

    def cell(op) -> str:
        offset = "".join(
            f" {'+-'[e.const < 0]} " + (f"{abs(e.const)}" if a == 0 else f"{abs(e.const)} * s{a}")
            for a, e in enumerate(op.exprs) if e.const)
        return f"a{launch.pos[op.array]}[c{offset}]"

    def key(k) -> str:
        if not isinstance(k, Affine):
            return f"UINT64_C({int(k) & _U64})"
        terms = [f"(uint64_t)INT64_C({k.const})"] if k.const or not k.linear_part else []
        for sym, coeff in k.linear_part:
            if sym in launch.axis_sym:
                value = f"(uint64_t)i{launch.axis_sym.index(sym)}"
            elif sym in launch.pos and launch.arguments[launch.pos[sym]][0] == "int":
                value = f"(uint64_t)a{launch.pos[sym]}"
            else:
                raise IrError(f"rand key {k} reads {sym}")
            terms.append(value if coeff == 1 else f"(uint64_t)INT64_C({coeff}) * {value}")
        return " + ".join(terms)

    def chain(h: str, keys) -> str:
        for k in keys:
            h = f"mix({h}, {key(k)})"
        return h

    for op in launch.func.ops:
        if isinstance(op, LoadOp):
            body.append(f"const double v{op.result[1:]} = {cell(op)};")
        elif isinstance(op, ArithOp):
            line = (f"const double v{op.result[1:]} = "
                    f"{operand(op.lhs)} {_COPS[op.op]} {operand(op.rhs)};")
            if all(not n.startswith("%") or n in scalar for n in (op.lhs, op.rhs)):
                scalar.add(op.result)
                head.append(line)
            else:
                body.append(line)
        elif isinstance(op, RandOp):
            split, tabulated = _prefix(launch, op)
            h, n = chain("UINT64_C(0)", op.keys[:split]), op.result[1:]
            if tabulated:
                head.append(f"uint64_t *const t{n} = t + {len(row)} * (hi0 - lo0);")
                row.append(f"t{n}[i0 - lo0] = {h};")
                h = f"t{n}[i0 - lo0]"
            elif split:
                head.append(f"const uint64_t h{n} = {h};")
                h = f"h{n}"
            body.append(f"const double v{n} = (double)(int64_t)"
                        f"({chain(h, op.keys[split:])} >> 11) * 0x1p-52 - 1.0;")
        else:
            dtype = launch.arguments[launch.pos[op.array]][2].dtype.name
            body.append(f"{cell(op)} = ({_CTYPES[dtype]}){operand(op.value)};")
    lines = [
        f"void lowered({', '.join(params)})", "{",
        "    const int64_t s1 = n0, s2 = n0 * n1;",
        *(f"    {line}" for line in head),
        "    for (int64_t i1 = lo1; i1 < hi1; i1++) {",
    ]
    if row:
        lines += ["        for (int64_t i0 = lo0; i0 < hi0; i0++) {",
                  *(f"            {line}" for line in row), "        }"]
    lines += [
        "        for (int64_t i2 = lo2; i2 < hi2; i2++)",
        "            for (int64_t i0 = lo0; i0 < hi0; i0++) {",
        "                const int64_t c = i0 + i1 * s1 + i2 * s2;",
        *(f"                {line}" for line in body),
        "            }", "    }", "}",
    ]
    return f"/* cc {' '.join(CFLAGS)} */\n" + _PRELUDE + "\n".join(lines) + "\n"


def native_function(source: str, argtypes: list, kernel_name: str):
    """The ``lowered`` function of ``source``, loaded through
    :func:`repro.gpu.jitcache.load`, which compiles it at most once per
    process and keeps the object in a configured cache directory."""
    import ctypes

    lib = jitcache.load(source, lambda tmp: _compile(source, tmp, kernel_name))
    fn = lib["lowered"]  # a fresh function object: argtypes are its own
    fn.argtypes, fn.restype = [ctypes.c_int64] * 8 + [ctypes.c_void_p] + argtypes, None
    return fn


def _compile(source: str, tmp: Path, kernel_name: str) -> Path:
    """``cc`` ``source`` into a shared object under ``tmp``."""
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise NativeToolchainError(
            "no C compiler: `cc` is not on PATH, and kernels run as compiled C")
    src, out = tmp / "kernel.c", tmp / "kernel.so"
    src.write_text(source)
    tracer = observe.active()
    span = nullcontext() if tracer is None else tracer.span(
        "gpu.jit.compile", cat="gpu", process="jit",
        thread=threading.current_thread().name, args={"kernel": kernel_name})
    try:
        with span:
            done = subprocess.run([cc, *CFLAGS, "-o", str(out), str(src)],
                                  capture_output=True, text=True,
                                  timeout=COMPILE_TIMEOUT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise NativeToolchainError(
            f"{cc} did not compile {kernel_name} within {COMPILE_TIMEOUT:g} s") from None
    except OSError as exc:
        raise NativeToolchainError(f"cannot run {cc}: {exc}") from None
    if done.returncode != 0:
        detail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise NativeToolchainError(
            f"{cc} failed to compile {kernel_name} (exit {done.returncode}): {detail}")
    return out


class LoweredKernel:
    """One launch signature's compiled function and its box."""

    def __init__(self, plan: LaunchPlan, source: str, fn) -> None:
        self.func, self.source, self._fn = plan.func, source, fn
        self.box = tuple(zip(plan.lo, plan.hi))
        self._bounds = (plan.shape[0], plan.shape[1], *(b for lh in self.box for b in lh))
        self._kinds = tuple(kind for kind, _, _ in plan.arguments)
        self._arrays = tuple((p, n, v.shape, v.dtype) for p, (k, n, v)
                             in enumerate(plan.arguments) if k == "array")
        self._stored = plan.stores
        #: entries of the scratch table of rand-key prefixes, one row per
        #: tabulated rand op (see :func:`emit_c`)
        self._table = (plan.hi[0] - plan.lo[0]) * sum(
            isinstance(op, RandOp) and _prefix(plan, op)[1] for op in plan.func.ops)

    def __call__(self, raw) -> None:
        """Run over raw launch args. Raises :class:`LaunchError`, having
        written nothing, when an array differs in shape or dtype from the
        plan, is not Fortran-ordered and aligned, or is stored while
        read-only or overlapping another. The scratch table is allocated
        per call: rank threads share one lowered kernel."""
        for p, name, shape, dtype in self._arrays:
            a = raw[p]
            if a.shape != shape or a.dtype != dtype:
                fault = f"is {a.dtype} {a.shape}, lowered for {dtype} {shape}"
            elif not (a.flags.f_contiguous and a.flags.aligned):
                fault = "is not a Fortran-ordered aligned array"
            elif p in self._stored and not a.flags.writeable:
                fault = "is stored but read-only"
            elif any(s != p and np.may_share_memory(raw[s], a) for s in self._stored):
                fault = "overlaps a stored array"
            else:
                continue
            raise LaunchError(f"{self.func.name}: array {name} {fault}")
        table = np.empty(self._table, np.uint64)
        self._fn(*self._bounds, table.ctypes.data, *(
            v.ctypes.data if k == "array" else v
            for k, v in zip(self._kinds, raw) if k != "const"))


def lower(kernel, raw, config, passes=PASSES) -> LoweredKernel:
    """Lower one launch of ``kernel`` to a loaded native function; raises
    :class:`IrError` if it cannot lower, :class:`NativeToolchainError`
    if it cannot be compiled."""
    import ctypes

    launch = plan(kernel, raw, config, passes)
    source = emit_c(launch)
    argtypes = [{"array": ctypes.c_void_p, "float": ctypes.c_double,
                 "int": ctypes.c_int64}[kind]
                for kind, _, _ in launch.arguments if kind != "const"]
    return LoweredKernel(launch, source, native_function(source, argtypes, kernel.name))


def lowered_kernel(kernel, config, raw, key) -> LoweredKernel:
    """The lowering of a launch, cached in the trace memo's entry of its
    signature ``key``. A launch that cannot lower raises :class:`IrError`
    and a missing or failing compiler :class:`NativeToolchainError`;
    neither is cached, so the next launch of ``key`` tries again."""
    entry = trace_memo().entry(key)
    with entry.lock:
        if entry.lowered is None:
            entry.lowered = lower(kernel, raw, config)
        return entry.lowered


def run(kernel, config, raw, key) -> None:
    """Execute one launch (device arrays unwrapped in ``raw``, signature
    ``key``) through its lowered function."""
    lowered_kernel(kernel, config, raw, key)(raw)
