"""Lowering: a kernel's stencil IR, executed as fused whole-array NumPy.

The paper's claim is that the high-level kernel body *is* the code that
runs. :func:`lower` makes that true here: the scalar body the JIT traces
for analysis is traced once more with its scalar launch arguments as
parameters (``$Du``, ``$seed``, ...), promoted by
:func:`~repro.ir.core.from_trace`, cleaned by ``rle``/``cse``/``dse``, and
emitted in op order as one Python function of ufunc calls. Loads are
contiguous slices of the flattened arrays, offset by their affine
subscripts; arith ops write ``out=`` scratch buffers assigned by SSA
liveness; a rand op is :func:`repro.gpu.rand.uniform_into`; a store is
the ``out=`` of the op defining its value. The iteration box comes from
the guard comparisons the trace records, and cells outside it that a
store window spans are saved and put back. The function sweeps the box
in chunks of whole planes that fit in cache, with per-thread buffers.
Only launches over 3-D Fortran-ordered arrays of one shape lower. See
``docs/IR.md``, "Lowering", for the full rules.

:func:`run` is how :meth:`repro.gpu.kernel.Kernel.execute` executes a
launch; it returns False when the launch cannot be lowered and the
caller interprets the body per workitem.
"""

from __future__ import annotations

import inspect
import threading

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
from repro.gpu.rand import axis_keys, uniform_into
from repro.ir.core import ArithOp, LoadOp, RandOp, StoreOp, from_trace
from repro.ir.passes import PassManager
from repro.observe import trace as observe
from repro.util.errors import IrError

#: launch axes; a launch symbol's box is indexed by its position here
AXES = ("x", "y", "z")
PASSES = ("rle", "cse", "dse")
#: target cells per chunk: its buffers stay in cache, and each chunk
#: costs a few dozen ufunc calls (64x64x32 per rank: 3 chunks)
CHUNK = 1 << 16
_UFUNCS = {"fadd": "add", "fsub": "subtract", "fmul": "multiply", "fdiv": "divide"}
_PYOPS = {"fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/"}


def _arguments(kernel, raw) -> list[tuple[str, str, object]]:
    """(kind, name, value) per argument: array, float, int or const."""
    names = list(inspect.signature(kernel.body).parameters)[1:]
    if len(names) != len(raw):
        raise IrError("the body does not name one parameter per argument")
    out = []
    for name, arg in zip(names, raw):
        if isinstance(arg, np.ndarray):
            if arg.ndim != 3 or not arg.flags.f_contiguous or arg.dtype.name not in (
                "float16", "float32", "float64"
            ):
                raise IrError(f"array {name} is not a 3-D Fortran-ordered float array")
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


class LoweredKernel:
    """One launch signature's lowered function and its per-thread buffers."""

    def __init__(self, func, source, namespace, nbuf, size, arrays, stored):
        self.func, self.source, self.nbuf, self.size = func, source, nbuf, size
        self._arrays, self._stored = arrays, stored
        self._local = threading.local()
        namespace["scratch"] = self.scratch
        exec(compile(source, f"<lowered {func.name}>", "exec"), namespace)
        self._fn = namespace["lowered"]

    def scratch(self) -> list[np.ndarray]:
        """This thread's float64 chunk buffers."""
        bufs = getattr(self._local, "bufs", None)
        if bufs is None:
            bufs = self._local.bufs = [np.empty(self.size) for _ in range(self.nbuf)]
        return bufs

    def __call__(self, raw) -> bool:
        """Run over raw launch args; False (nothing written) when an array
        is not Fortran-ordered or a stored array overlaps another."""
        for p in self._arrays:
            if not raw[p].flags.f_contiguous:
                return False
            for s in self._stored:
                if s != p and np.may_share_memory(raw[s], raw[p]):
                    return False
        self._fn(*raw)
        return True


def lower(kernel, raw, config, passes=PASSES) -> LoweredKernel:
    """Lower one launch of ``kernel``; raises :class:`IrError` if it cannot.

    ``raw`` are the launch arguments with device arrays unwrapped;
    ``passes`` is the per-func pipeline run before emission.
    """
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
    namespace: dict = {"axis_keys": axis_keys, "uniform_into": uniform_into,
                       "copyto": np.copyto, "f8": np.float64}
    namespace.update((name, getattr(np, name)) for name in _UFUNCS.values())

    # the box is the flat range [f_lo, f_hi) of the Fortran-ordered arrays,
    # less the ghost cells between its rows; it is swept in chunks of whole
    # planes of the last axis, and buffer slice w maps flat c0 to 0 in its plane
    strides = (1, shape[0], shape[0] * shape[1])
    f_lo = sum(l * e for l, e in zip(lo, strides))
    f_hi = sum((h - 1) * e for h, e in zip(hi, strides)) + 1
    plane, depth = strides[2], hi[2] - lo[2]
    planes = -(-depth // -(-depth // max(1, CHUNK // plane)))  # balanced chunks
    inside = np.zeros(shape, bool, order="F")
    inside[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    ghosts = np.flatnonzero(~inside.ravel("F")[f_lo:f_hi]) + f_lo
    chunks = namespace["chunks"] = []
    for q in range(lo[2], hi[2], planes):
        c0, c1 = max(f_lo, q * plane), min(f_hi, (q + planes) * plane)
        k = min(planes, hi[2] - q)
        chunks.append((c0, c1, q, k, slice(c0 - q * plane, c1 - q * plane)))
    head: list[str] = []  # once per call, before the sweep
    body: list[str] = []  # once per chunk
    tail: list[str] = []  # once per call, after the sweep

    def window(op) -> str:
        if any(l + e.const < 0 or h + e.const > n
               for l, h, e, n in zip(lo, hi, op.exprs, shape)):
            raise IrError(f"{op.access} leaves the array")
        d = sum(e.const * s for e, s in zip(op.exprs, strides))
        return f"f{pos[op.array]}[c0 + {d}:c1 + {d}]"

    def store(op) -> str:
        # the window spans ghost cells between box rows: keep them
        p, d = pos[op.array], sum(e.const * s for e, s in zip(op.exprs, strides))
        namespace[f"g{p}"] = ghosts + d
        head.append(f"saved{p} = f{p}[g{p}]")
        tail.append(f"f{p}[g{p}] = saved{p}")
        return window(op)

    def key_code(key) -> str:
        # the chunk's rand field is laid out (planes, rows, columns): the
        # Fortran memory order, so array axis a is field axis 2 - a
        if not isinstance(key, Affine):
            return str(int(key))
        axes = [s for s, _ in key.linear_part if not s.startswith(PARAM_PREFIX)]
        code = " + ".join([str(key.const)] + [
            f"{c}*a{pos[s]}" for s, c in key.linear_part if s not in axes])
        if not axes:
            return code
        if len(axes) != 1 or key.coefficient(axes[0]) != 1:
            raise IrError(f"rand key {key} is not axis + const")
        a = axis_sym.index(axes[0])
        if a == 2:
            return f"axis_keys({code} + q, k, 0, 3)"
        head.append(f"h{len(head)} = axis_keys({code}, {shape[a]}, {2 - a}, 3)")
        return f"h{len(head) - 1}"

    last: dict[str, int] = {}  # operand -> index of the op that uses it last
    uses: dict[str, int] = {}
    for i, op in enumerate(func.ops):
        for name in (op.lhs, op.rhs) if isinstance(op, ArithOp) else (
                (op.value,) if isinstance(op, StoreOp) else ()):
            uses[name], last[name] = uses.get(name, 0) + 1, i
    direct = {op.value: op for op in func.ops
              if isinstance(op, StoreOp) and uses[op.value] == 1}
    values: dict[str, tuple[str, str]] = {}  # ssa -> (kind, source)
    free: list[int] = []
    nbuf = 0

    def take() -> int:
        nonlocal nbuf
        if free:
            return free.pop(free.index(min(free)))
        nbuf += 1
        return nbuf - 1

    def operand(name: str) -> tuple[str, str]:
        if name.startswith("%"):
            return values[name]
        if name.startswith(PARAM_PREFIX):
            return "scalar", f"a{pos[name]}"
        namespace[f"k{len(namespace)}"] = float(name)
        return "scalar", f"k{len(namespace) - 1}"

    def release(names, i: int) -> None:
        for name in set(names):
            kind, source = values.get(name, ("", ""))
            if kind == "buf" and last[name] == i:
                free.append(int(source[1:source.index("[")]))

    for i, op in enumerate(func.ops):
        if isinstance(op, LoadOp):
            narrow = raw[pos[op.array]].dtype != np.float64
            values[op.result] = ("narrow" if narrow else "view", window(op))
        elif isinstance(op, ArithOp):
            (lk, lhs), (rk, rhs) = operand(op.lhs), operand(op.rhs)
            if lk == rk == "scalar":  # parameter-only math, once per call
                values[op.result] = ("scalar", f"s{op.result[1:]}")
                head.append(f"s{op.result[1:]} = {lhs} {_PYOPS[op.op]} {rhs}")
                continue
            extra = ", dtype=f8" if "narrow" in (lk, rk) else ""
            release((op.lhs, op.rhs), i)
            if op.result in direct:
                out = store(direct.pop(op.result))
                values[op.result] = ("stored", "")
            else:
                out = f"b{take()}[w]"
                values[op.result] = ("buf", out)
            body.append(f"{_UFUNCS[op.op]}({lhs}, {rhs}, out={out}{extra})")
        elif isinstance(op, RandOp):
            keys = ", ".join(key_code(key) for key in op.keys)
            out, tmp = take(), take()
            free.append(tmp)
            body.append(f"uniform_into(({keys},), b{out}[:k * {plane}].reshape(k, "
                        f"{shape[1]}, {shape[0]}), b{tmp}[:k * {plane}].reshape(k, "
                        f"{shape[1]}, {shape[0]}))")
            values[op.result] = ("buf", f"b{out}[w]")
        elif values.get(op.value, ("",))[0] != "stored":
            body.append(f"copyto({store(op)}, {operand(op.value)[1]})")
            release((op.value,), i)

    params = ", ".join(f"a{p}" for p in range(len(arguments)))
    lines = [f"def lowered({params}):"]
    if nbuf:
        lines.append(f"    {', '.join(f'b{b}' for b in range(nbuf))}, = scratch()")
    lines += [f"    f{pos[name]} = a{pos[name]}.ravel('F')"
              for kind, name, _ in arguments if kind == "array"]
    lines += [f"    {line}" for line in head]
    lines.append("    for c0, c1, q, k, w in chunks:")
    lines += [f"        {line}" for line in body]
    lines += [f"    {line}" for line in tail]
    arrays = tuple(p for p, (kind, _, _) in enumerate(arguments) if kind == "array")
    return LoweredKernel(func, "\n".join(lines) + "\n", namespace, nbuf, planes * plane,
                         arrays, tuple(pos[a] for a in stores))


def lowered_kernel(kernel, config, raw, key) -> LoweredKernel | None:
    """The lowering of a launch, cached in the trace memo's entry of its
    signature ``key``; None (cached too) when the launch cannot be
    lowered or ``key`` is None (an unkeyable launch)."""
    if key is None:
        return None
    entry = trace_memo().entry(key, kernel)
    with entry.lock:
        if entry.lowered is PENDING:
            try:
                entry.lowered = lower(kernel, raw, config)
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
