"""The NumPy emitter: a launch plan run as fused whole-array ufunc calls.

Production lowers a launch to C (:func:`repro.ir.lower.emit_c`). This is
the emitter it replaced, kept as its bitwise reference: the same
:class:`~repro.ir.lower.LaunchPlan`, emitted in op order as one Python
function. Loads are contiguous slices of the flattened arrays, offset by
their affine subscripts; arith ops write ``out=`` scratch buffers
assigned by SSA liveness; a rand op is :func:`tests.oracles.rand.
uniform_into`; a store is the ``out=`` of the op defining its value. A
flat window spans the ghost cells between box rows, so each stored
array's cells there are saved and put back. The box is swept in chunks
of whole planes of the last axis that fit in cache.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.jit import PARAM_PREFIX, Affine
from repro.ir.core import ArithOp, LoadOp, RandOp, StoreOp
from repro.ir.lower import PASSES, plan
from tests.oracles.rand import axis_keys, uniform_into

#: target cells per chunk: its buffers stay in cache
CHUNK = 1 << 16
_UFUNCS = {"fadd": "add", "fsub": "subtract", "fmul": "multiply", "fdiv": "divide"}
_PYOPS = {"fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/"}


class NumpyLowered:
    """One launch's emitted Python function and its float64 buffers."""

    def __init__(self, func, source, namespace, nbuf, size):
        self.func, self.source, self.nbuf, self.size = func, source, nbuf, size
        self._bufs = [np.empty(size) for _ in range(nbuf)]
        namespace["scratch"] = lambda: self._bufs
        exec(compile(source, f"<numpy-lowered {func.name}>", "exec"), namespace)
        self._fn = namespace["lowered"]

    def __call__(self, raw) -> None:
        self._fn(*raw)


def lower_numpy(kernel, raw, config, passes=PASSES) -> NumpyLowered:
    """Emit the NumPy function of one launch (raises ``IrError`` like
    :func:`repro.ir.lower.lower` for a launch that cannot lower)."""
    launch = plan(kernel, raw, config, passes)
    func, pos, shape, axis_sym = launch.func, launch.pos, launch.shape, launch.axis_sym
    lo, hi = launch.lo, launch.hi
    namespace: dict = {"axis_keys": axis_keys, "uniform_into": uniform_into,
                       "copyto": np.copyto, "f8": np.float64}
    namespace.update((name, getattr(np, name)) for name in _UFUNCS.values())

    # the box is the flat range [f_lo, f_hi) of the Fortran-ordered arrays,
    # less the ghost cells between its rows; it is swept in chunks of whole
    # planes of the last axis, and buffer slice w maps flat c0 to 0 in its plane
    strides = (1, shape[0], shape[0] * shape[1])
    f_lo = sum(lo_ * e for lo_, e in zip(lo, strides))
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
        assert len(axes) == 1 and key.coefficient(axes[0]) == 1, key
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

    params = ", ".join(f"a{p}" for p in range(len(launch.arguments)))
    lines = [f"def lowered({params}):"]
    if nbuf:
        lines.append(f"    {', '.join(f'b{b}' for b in range(nbuf))}, = scratch()")
    lines += [f"    f{pos[name]} = a{pos[name]}.ravel('F')"
              for kind, name, _ in launch.arguments if kind == "array"]
    lines += [f"    {line}" for line in head]
    lines.append("    for c0, c1, q, k, w in chunks:")
    lines += [f"        {line}" for line in body]
    lines += [f"    {line}" for line in tail]
    return NumpyLowered(func, "\n".join(lines) + "\n", namespace, nbuf, planes * plane)
