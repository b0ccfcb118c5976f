"""Lowering: a kernel's stencil IR, compiled to C and run natively.

The paper's claim is that the high-level kernel body *is* the code that
runs. :func:`lower` makes that true here: the scalar body the JIT traces
is traced once more with its scalar launch arguments as parameters
(``$Du``, ``$seed``, ...), promoted by :func:`~repro.ir.core.from_trace`,
cleaned by ``rle``/``cse``/``dse``, and emitted in op order as one C
function over the iteration box its guards give. ``cc`` compiles it at
the first launch, once per process and source, and ``ctypes`` calls it
without the GIL. :func:`run` returns False when a launch cannot lower
and the caller interprets it per workitem; a host without a working C
compiler raises :class:`~repro.util.errors.NativeToolchainError`. See
``docs/IR.md``, "Lowering", for the rules.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import shutil
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.gpu.jit import (
    COMPARE,
    PARAM_PREFIX,
    PENDING,
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
from repro.util.errors import IrError, NativeToolchainError

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
                              "runs interpreted")
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


def _trace_box(kernel, arguments, extent):
    """The interior trace and its launch box ``[(lo, hi)]`` per axis.

    A workitem outside the box makes some guard decide differently from
    the interior; the first such guard is the one it flips. So each guard
    is probed at the nearest coordinate on each side that flips it, and
    the probe must record the interior's guards up to that one, then
    nothing: no op and no further comparison.
    """
    for c in (2, 1, 0):
        point = tuple(min(c, e - 1) for e in extent)
        tracer = _trace(kernel, arguments, point)
        if tracer.trace.ops:
            break
    else:
        raise IrError("no traced workitem reaches the kernel body")
    guards = tracer.guards
    inside = [np.ones(e, bool) for e in extent]
    for j, (diff, op, result) in enumerate(guards):
        if not diff.linear_part:
            continue
        if len(diff.linear_part) != 1 or diff.linear_part[0][0] not in AXES:
            raise IrError(f"guard on {diff} is not a per-axis bound")
        (sym, coeff), a = diff.linear_part[0], AXES.index(diff.linear_part[0][0])
        same = COMPARE[op](np.arange(extent[a]) * coeff + diff.const, 0) == result
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


def emit_c(launch: LaunchPlan) -> str:
    """The C source of a planned launch: ``void lowered(n0, n1, lo0, hi0,
    lo1, hi1, lo2, hi2, <one parameter per launch argument>)``."""
    params = ["int64_t n0", "int64_t n1"] + [
        f"int64_t lo{a}, int64_t hi{a}" for a in range(3)]
    for p, (kind, _, value) in enumerate(launch.arguments):
        if kind == "array":
            params.append(f"{_CTYPES[value.dtype.name]} *restrict a{p}")
        elif kind != "const":
            params.append(f"{'double' if kind == 'float' else 'int64_t'} a{p}")
    scalar: set[str] = set()  # SSA values computed once per call
    head: list[str] = []
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
            h = "UINT64_C(0)"
            for k in op.keys:
                h = f"mix({h}, {key(k)})"
            body.append(f"const double v{op.result[1:]} = "
                        f"(double)(int64_t)({h} >> 11) * 0x1p-52 - 1.0;")
        else:
            dtype = launch.arguments[launch.pos[op.array]][2].dtype.name
            body.append(f"{cell(op)} = ({_CTYPES[dtype]}){operand(op.value)};")
    lines = [
        f"void lowered({', '.join(params)})", "{",
        "    const int64_t s1 = n0, s2 = n0 * n1;",
        *(f"    {line}" for line in head),
        "    for (int64_t i2 = lo2; i2 < hi2; i2++)",
        "        for (int64_t i1 = lo1; i1 < hi1; i1++)",
        "            for (int64_t i0 = lo0; i0 < hi0; i0++) {",
        "                const int64_t c = i0 + i1 * s1 + i2 * s2;",
        *(f"                {line}" for line in body),
        "            }", "}",
    ]
    return _PRELUDE + "\n".join(lines) + "\n"


#: sha256 of a C source -> its loaded ``lowered`` function, per process
_NATIVE: dict[str, object] = {}
_NATIVE_LOCK = threading.Lock()


def native_function(source: str, argtypes: list, kernel_name: str):
    """The loaded ``lowered`` of ``source``, compiled under one lock on
    first use; a configured :class:`~repro.gpu.jitcache.JitDiskCache`
    keeps the object beside its plans for later processes."""
    import ctypes

    digest = hashlib.sha256(source.encode()).hexdigest()
    with _NATIVE_LOCK:
        fn = _NATIVE.get(digest)
        if fn is None:
            disk = trace_memo().disk
            if disk is None:
                with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
                    lib = ctypes.CDLL(str(_compile(source, Path(tmp), kernel_name)))
            else:
                target = disk.path / f"{digest[:32]}.so"
                try:
                    lib = ctypes.CDLL(str(target))
                except OSError:  # absent, or not a loadable object
                    with tempfile.TemporaryDirectory(dir=disk.path) as tmp:
                        os.replace(_compile(source, Path(tmp), kernel_name), target)
                    lib = ctypes.CDLL(str(target))
            fn = lib.lowered
            fn.argtypes, fn.restype = [ctypes.c_int64] * 8 + argtypes, None
            _NATIVE[digest] = fn
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
        self._arrays = tuple((p, v.shape, v.dtype) for p, (k, _, v) in enumerate(plan.arguments)
                             if k == "array")
        self._stored = plan.stores

    def __call__(self, raw) -> bool:
        """Run over raw launch args; False (nothing written) when an array
        differs in shape or dtype from the plan, is not Fortran-ordered and
        aligned, or is stored while read-only or overlapping another."""
        for p, shape, dtype in self._arrays:
            a = raw[p]
            if a.shape != shape or a.dtype != dtype or not (
                    a.flags.f_contiguous and a.flags.aligned):
                return False
            for s in self._stored:
                if s != p and np.may_share_memory(raw[s], a):
                    return False
        if not all(raw[s].flags.writeable for s in self._stored):
            return False
        self._fn(*self._bounds, *(
            v.ctypes.data if k == "array" else v
            for k, v in zip(self._kinds, raw) if k != "const"))
        return True


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


def lowered_kernel(kernel, config, raw, key) -> LoweredKernel | None:
    """The lowering of a launch, cached in the trace memo's entry of its
    signature ``key``; None (cached too) when the launch cannot be
    lowered or ``key`` is None (an unkeyable launch). A missing or
    failing compiler is raised, never cached or interpreted around."""
    if key is None:
        return None
    entry = trace_memo().entry(key, kernel)
    with entry.lock:
        if entry.lowered is PENDING:
            try:
                entry.lowered = lower(kernel, raw, config)
            except NativeToolchainError:
                raise
            except Exception as exc:  # the body runs interpreted, which reports its own errors
                entry.lowered = None
                tracer = observe.active()
                if tracer is not None:
                    tracer.metrics.counter(
                        "ir.lower.refused", kernel=kernel.name, reason=type(exc).__name__
                    ).inc()
        return entry.lowered


def run(kernel, config, raw, key) -> bool:
    """Execute one launch (device arrays unwrapped in ``raw``, signature
    ``key``) through its lowered function, if it has one."""
    lowered = lowered_kernel(kernel, config, raw, key)
    return lowered is not None and lowered(raw)
