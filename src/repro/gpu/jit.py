"""A tracing JIT: lowers scalar kernel bodies to an LLVM-like IR.

The paper inspects the LLVM-IR Julia generates for the Gray-Scott
kernel (Listing 4) and observes "14 unique memory loads and 2 stores" —
consistent with the algorithm (7-point stencil x 2 variables), i.e. the
high-level language added no hidden memory traffic. We reproduce that
analysis mechanically: the kernel's scalar body is executed once with
*traced* operands; every array load/store, arithmetic op, and RNG call
is recorded; repeated loads of the same address are CSE'd exactly as
LLVM would; and the result is

- an IR listing (:meth:`KernelTrace.render_ir`) whose load/store lines
  can be compared against Listing 4, and
- the per-array stencil **offset sets** that feed the TCC cache model
  (:mod:`repro.gpu.cache`) — the JIT is how the performance layer
  learns a kernel's memory access pattern without being told.

Tracing strategy: index variables are :class:`TracedInt` carrying both
a concrete value (so data-dependent guards evaluate normally — we trace
an interior workitem) and an affine symbolic expression (so array
subscripts reveal their constant stencil offsets).
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache, partialmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.observe import trace as observe
from repro.util.errors import GpuError, LaunchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.backends import BackendProfile
    from repro.gpu.kernel import Kernel
    from repro.ir.lower import LoweredKernel


class TraceError(GpuError):
    """The kernel body did something the tracer cannot follow."""


# ---------------------------------------------------------------------------
# affine index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """``sum(coeff * symbol) + const`` over launch-axis symbols.

    Instances are canonical regardless of how they were built:
    duplicate symbols merge, zero coefficients drop, and terms sort —
    so ``==`` and ``hash`` agree for semantically equal expressions
    (e.g. ``Affine((("x", 0),))`` equals ``Affine()``).
    """

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    def __post_init__(self) -> None:
        coeffs: dict[str, int] = {}
        for sym, c in self.terms:
            coeffs[sym] = coeffs.get(sym, 0) + int(c)
        canonical = tuple(sorted((s, c) for s, c in coeffs.items() if c != 0))
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "const", int(self.const))

    @classmethod
    def symbol(cls, name: str) -> "Affine":
        return cls(terms=((name, 1),), const=0)

    @classmethod
    def constant(cls, value: int) -> "Affine":
        return cls(terms=(), const=value)

    def _combine(self, other: "Affine", sign: int) -> "Affine":
        coeffs = dict(self.terms)
        for sym, c in other.terms:
            coeffs[sym] = coeffs.get(sym, 0) + sign * c
        return Affine(
            terms=tuple(coeffs.items()), const=self.const + sign * other.const
        )

    def __add__(self, other: "Affine") -> "Affine":
        return self._combine(other, +1)

    def __sub__(self, other: "Affine") -> "Affine":
        return self._combine(other, -1)

    def scaled(self, factor: int) -> "Affine":
        factor = int(factor)
        return Affine(
            terms=tuple((s, c * factor) for s, c in self.terms),
            const=self.const * factor,
        )

    def coefficient(self, symbol: str) -> int:
        """The coefficient of ``symbol`` (0 when absent)."""
        for sym, c in self.terms:
            if sym == symbol:
                return c
        return 0

    def evaluate(self, values: dict[str, int]) -> int:
        """Concrete value at a symbol assignment (missing symbols = 0)."""
        return self.const + sum(
            c * values.get(sym, 0) for sym, c in self.terms
        )

    @property
    def linear_part(self) -> tuple[tuple[str, int], ...]:
        return self.terms

    def __str__(self) -> str:
        parts = [
            (sym if c == 1 else f"{c}*{sym}") for sym, c in self.terms
        ]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


#: symbol prefix of scalar launch parameters (seed, step, Du, ...) in
#: parametric traces; launch axes are the bare symbols x, y, z
PARAM_PREFIX = "$"


# ---------------------------------------------------------------------------
# traced values
# ---------------------------------------------------------------------------


class TracedInt:
    """An integer with a concrete value and an affine symbolic form."""

    __slots__ = ("tracer", "value", "expr")

    def __init__(self, tracer: "Tracer", value: int, expr: Affine):
        self.tracer = tracer
        self.value = int(value)
        self.expr = expr

    def __int__(self) -> int:
        if self.tracer.params is not None and self.expr.linear_part:
            raise TraceError(f"traced index {self.expr} used as a concrete int")
        return self.value

    __index__ = __int__

    @staticmethod
    def _coerce(tracer: "Tracer", other) -> "TracedInt":
        if isinstance(other, TracedInt):
            return other
        if isinstance(other, (int, np.integer)):
            return TracedInt(tracer, int(other), Affine.constant(int(other)))
        raise TraceError(f"cannot mix traced index with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(self.tracer, other)
        return TracedInt(self.tracer, self.value + o.value, self.expr + o.expr)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(self.tracer, other)
        return TracedInt(self.tracer, self.value - o.value, self.expr - o.expr)

    def __rsub__(self, other):
        o = self._coerce(self.tracer, other)
        return TracedInt(self.tracer, o.value - self.value, o.expr - self.expr)

    def __mul__(self, other):
        if isinstance(other, TracedInt):
            if other.expr.linear_part and self.expr.linear_part:
                raise TraceError("non-affine index expression (symbol * symbol)")
            if other.expr.linear_part:
                return other.__mul__(self)
            other = other.value
        if not isinstance(other, (int, np.integer)):
            raise TraceError(f"index multiplied by {type(other).__name__}")
        return TracedInt(self.tracer, self.value * int(other), self.expr.scaled(int(other)))

    __rmul__ = __mul__

    # comparisons drive guards; they evaluate on the concrete value and
    # are noted on the tracer, which is how lowering recovers the box
    def _compare(self, op: str, other):
        if isinstance(other, TracedInt):
            value, expr = other.value, other.expr
        else:
            try:
                value = int(other)
            except (TypeError, ValueError):
                return NotImplemented
            expr = Affine.constant(value)
        diff = self.expr - expr
        if any(sym.startswith(PARAM_PREFIX) for sym, _ in diff.linear_part):
            raise TraceError(f"launch parameter decides control flow ({diff})")
        result = COMPARE[op](self.value, value)
        self.tracer.guards.append((diff, op, result))
        return result

    __eq__ = partialmethod(_compare, "==")
    __ne__ = partialmethod(_compare, "!=")
    __lt__ = partialmethod(_compare, "<")
    __le__ = partialmethod(_compare, "<=")
    __gt__ = partialmethod(_compare, ">")
    __ge__ = partialmethod(_compare, ">=")
    __bool__ = partialmethod(_compare, "!=", 0)

    def __hash__(self) -> int:
        # consistent with __eq__, which compares concrete values: a
        # TracedInt hashes (and compares) like its plain int, so traced
        # indices work in sets/dicts keyed by int.
        return hash(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedInt({self.value}, {self.expr})"


COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}

_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b,
}


class TracedFloat:
    """A floating value flowing through the traced kernel body."""

    __slots__ = ("tracer", "value", "ssa")

    def __init__(self, tracer: "Tracer", value: float, ssa: str | None = None):
        self.tracer = tracer
        self.value = float(value)
        self.ssa = ssa if ssa is not None else tracer.fresh_ssa()

    def _binop(self, op: str, other, reverse: bool = False):
        if isinstance(other, TracedFloat):
            o_val, o_ssa = other.value, other.ssa
        elif isinstance(other, (int, float, np.floating, np.integer)):
            o_val, o_ssa = float(other), repr(float(other))
        elif isinstance(other, TracedInt):
            # a traced index promoted into float dataflow: LLVM would
            # emit a sitofp here — record it for the type-stability lint
            self.tracer.record_type_escape(
                "sitofp", f"index {other.expr} enters {op}"
            )
            o_val, o_ssa = float(other.value), repr(float(other.value))
        else:
            return NotImplemented
        a, b = (o_val, self.value) if reverse else (self.value, o_val)
        a_ssa, b_ssa = (o_ssa, self.ssa) if reverse else (self.ssa, o_ssa)
        result = TracedFloat(self.tracer, _BINOPS[op](a, b))
        self.tracer.record_arith(op, result.ssa, a_ssa, b_ssa)
        return result

    def __add__(self, other):
        return self._binop("fadd", other)

    def __radd__(self, other):
        return self._binop("fadd", other, reverse=True)

    def __sub__(self, other):
        return self._binop("fsub", other)

    def __rsub__(self, other):
        return self._binop("fsub", other, reverse=True)

    def __mul__(self, other):
        return self._binop("fmul", other)

    def __rmul__(self, other):
        return self._binop("fmul", other, reverse=True)

    def __truediv__(self, other):
        return self._binop("fdiv", other)

    def __rtruediv__(self, other):
        return self._binop("fdiv", other, reverse=True)

    def __neg__(self):
        return self._binop("fmul", -1.0)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)) or exponent < 1:
            raise TraceError("traced pow supports positive integer exponents only")
        result = self
        for _ in range(int(exponent) - 1):
            result = result * self
        return result

    def __float__(self) -> float:
        if self.tracer.params is not None:
            raise TraceError("a traced float leaves the traced dataflow")
        return self.value

    def __bool__(self) -> bool:
        if self.tracer.params is not None:
            raise TraceError("a traced float decides control flow")
        return True  # an object's default truth, as before

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedFloat({self.value}, {self.ssa})"


class TracedArray:
    """Array stand-in: subscripts record loads/stores with affine offsets.

    Loads read the caller's ``data``, which is never written: a store
    goes to ``stored``, which later loads of the same cell read first.
    """

    __slots__ = ("tracer", "name", "data", "stored")

    def __init__(self, tracer: "Tracer", name: str, data: np.ndarray):
        self.tracer = tracer
        self.name = name
        self.data = data
        self.stored: dict[tuple[int, ...], float] = {}

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _exprs(self, idx) -> tuple[tuple[Affine, ...], tuple[int, ...]]:
        if not isinstance(idx, tuple):
            idx = (idx,)
        exprs, values = [], []
        for component in idx:
            traced = TracedInt._coerce(self.tracer, component)
            exprs.append(traced.expr)
            values.append(traced.value)
        return tuple(exprs), tuple(values)

    def __getitem__(self, idx) -> TracedFloat:
        exprs, values = self._exprs(idx)
        concrete = self.stored.get(values)
        if concrete is None:
            concrete = float(self.data[values])
        ssa = self.tracer.record_load(self.name, exprs)
        return TracedFloat(self.tracer, concrete, ssa)

    def __setitem__(self, idx, value) -> None:
        exprs, values = self._exprs(idx)
        if isinstance(value, TracedFloat):
            ssa, concrete = value.ssa, value.value
        else:
            if isinstance(value, TracedInt):
                self.tracer.record_type_escape(
                    "int-store",
                    f"index {value.expr} stored into float array {self.name}",
                )
                value = value.value
            ssa, concrete = repr(float(value)), float(value)
        self.tracer.record_store(self.name, exprs, ssa)
        self.stored[values] = concrete


# ---------------------------------------------------------------------------
# the trace itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryAccess:
    """One load or store: array name + per-axis affine index expressions."""

    array: str
    exprs: tuple[Affine, ...]

    def stencil_offset(self) -> tuple[int, ...] | None:
        """Constant offsets when every axis is affine in >= 0 symbols.

        Returns None for accesses whose linear part differs between two
        accesses of the same array (handled conservatively by traffic
        models).
        """
        return tuple(e.const for e in self.exprs)

    def linear_signature(self) -> tuple:
        return tuple(e.linear_part for e in self.exprs)

    def __str__(self) -> str:
        return f"{self.array}[{', '.join(str(e) for e in self.exprs)}]"


@dataclass
class KernelTrace:
    """Everything the tracer observed in one kernel body execution."""

    kernel_name: str
    loads: list[MemoryAccess] = field(default_factory=list)
    stores: list[MemoryAccess] = field(default_factory=list)
    arith_ops: dict[str, int] = field(default_factory=dict)
    rand_calls: int = 0
    ir_lines: list[str] = field(default_factory=list)
    #: which argument positions were arrays, and the trace-time name
    #: used for them in IR/offset records
    array_names_by_position: dict[int, str] = field(default_factory=dict)
    #: trace-time array name -> numpy dtype name (the type-mix lint input)
    array_dtypes: dict[str, str] = field(default_factory=dict)
    #: trace-time array name -> shape (the absolute-bounds lint input)
    array_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: (kind, detail) records of integer values escaping into float
    #: dataflow ("sitofp", "int-store") — @code_warntype-style evidence
    type_escapes: list[tuple[str, str]] = field(default_factory=list)
    #: structured op records mirroring ``ir_lines`` — the input for
    #: :func:`repro.ir.from_trace`. One tuple per emitted IR line:
    #: ("load", ssa, array, exprs) / ("arith", ssa, op, a_ssa, b_ssa) /
    #: ("rand", ssa, keys) / ("store", array, exprs, value_ssa).
    #: Loads are CSE'd exactly like ``ir_lines``: a repeated load of the
    #: same address re-uses the first record's SSA and adds no op, unless
    #: the body stored to that array since.
    ops: list[tuple] = field(default_factory=list)
    _load_ssa: dict[tuple, str] = field(default_factory=dict)

    @property
    def unique_loads(self) -> list[MemoryAccess]:
        seen, out = set(), []
        for acc in self.loads:
            key = (acc.array, acc.linear_signature(), acc.stencil_offset())
            if key not in seen:
                seen.add(key)
                out.append(acc)
        return out

    @property
    def unique_stores(self) -> list[MemoryAccess]:
        seen, out = set(), []
        for acc in self.stores:
            key = (acc.array, acc.linear_signature(), acc.stencil_offset())
            if key not in seen:
                seen.add(key)
                out.append(acc)
        return out

    @property
    def flops(self) -> int:
        return sum(self.arith_ops.values())

    def offsets_by_array(self) -> dict[str, set[tuple[int, ...]]]:
        """Per-array unique stencil load offsets — the cache model input."""
        result: dict[str, set[tuple[int, ...]]] = {}
        for acc in self.unique_loads:
            offset = acc.stencil_offset()
            if offset is not None:
                result.setdefault(acc.array, set()).add(offset)
        return result

    def stores_by_array(self) -> dict[str, set[tuple[int, ...]]]:
        result: dict[str, set[tuple[int, ...]]] = {}
        for acc in self.unique_stores:
            offset = acc.stencil_offset()
            if offset is not None:
                result.setdefault(acc.array, set()).add(offset)
        return result

    def render_ir(self) -> str:
        """The LLVM-like listing (compare with the paper's Listing 4)."""
        header = (
            f"; kernel {self.kernel_name}: "
            f"{len(self.unique_loads)} unique loads, "
            f"{len(self.unique_stores)} stores, "
            f"{self.flops} fp ops, {self.rand_calls} rand calls"
        )
        return "\n".join([header, *self.ir_lines])


class Tracer:
    """Records one symbolic execution of a kernel body.

    ``params`` names the scalar launch arguments traced as symbols
    (``$name``) rather than literals. It is set (possibly empty) only by
    :mod:`repro.ir.lower`, whose parametric traces refuse any traced
    value that leaves the dataflow: a float or index made concrete, or a
    float deciding a branch. ``guards`` collects every index comparison
    as ``(lhs - rhs, op, result)``.
    """

    def __init__(self, kernel_name: str, params: tuple[str, ...] | None = None):
        self.trace = KernelTrace(kernel_name)
        self._ssa_counter = 0
        self.params = params
        self.guards: list[tuple[Affine, str, bool]] = []

    def fresh_ssa(self) -> str:
        self._ssa_counter += 1
        return f"%{self._ssa_counter}"

    def record_load(self, array: str, exprs: tuple[Affine, ...]) -> str:
        access = MemoryAccess(array, exprs)
        key = (array, access.linear_signature(), access.stencil_offset())
        self.trace.loads.append(access)
        if key in self.trace._load_ssa:  # CSE: LLVM folds repeated loads
            return self.trace._load_ssa[key]
        ssa = self.fresh_ssa()
        self.trace._load_ssa[key] = ssa
        self.trace.ops.append(("load", ssa, array, exprs))
        self.trace.ir_lines.append(
            f"{ssa} = load double, double addrspace(1)* %{array}.ptr, align 8"
            f"  ; {access}"
        )
        return ssa

    def record_store(self, array: str, exprs: tuple[Affine, ...], value_ssa: str) -> None:
        access = MemoryAccess(array, exprs)
        self.trace.stores.append(access)
        # a later load of this array reads what the body stored: no CSE across it
        for key in [key for key in self.trace._load_ssa if key[0] == array]:
            del self.trace._load_ssa[key]
        self.trace.ops.append(("store", array, exprs, value_ssa))
        self.trace.ir_lines.append(
            f"store double {value_ssa}, double addrspace(1)* %{array}.ptr, align 8"
            f"  ; {access}"
        )

    def record_arith(self, op: str, result_ssa: str, a_ssa: str, b_ssa: str) -> None:
        self.trace.arith_ops[op] = self.trace.arith_ops.get(op, 0) + 1
        self.trace.ops.append(("arith", result_ssa, op, a_ssa, b_ssa))
        self.trace.ir_lines.append(
            f"{result_ssa} = {op} double {a_ssa}, {b_ssa}"
        )

    def record_rand(self, keys: tuple = ()) -> str:
        """Record a device RNG call; ``keys`` are Affine exprs or ints.

        Returns the SSA name of the sample so the caller can thread it
        into the value dataflow (the rand result is a first-class SSA
        value, not a side effect).
        """
        self.trace.rand_calls += 1
        ssa = self.fresh_ssa()
        self.trace.ops.append(("rand", ssa, tuple(keys)))
        self.trace.ir_lines.append(
            f"{ssa} = call double @device_uniform()  ; rand(Uniform(-1,1))"
        )
        return ssa

    def record_type_escape(self, kind: str, detail: str) -> None:
        self.trace.type_escapes.append((kind, detail))


def trace_kernel(kernel: "Kernel", args) -> KernelTrace:
    """Trace one interior workitem of ``kernel`` over ``args``.

    Array arguments (``DeviceArray`` or ``numpy.ndarray``) become traced
    arrays; every array must be at least 4 cells wide per axis so the
    canonical interior workitem (global index 2 on each axis) passes
    boundary guards.
    """
    from repro.gpu.kernel import KernelContext
    from repro.gpu.memory import DeviceArray

    tracer = Tracer(kernel.name)
    traced_args = []
    for position, arg in enumerate(args):
        data = arg.data if isinstance(arg, DeviceArray) else arg
        if isinstance(data, np.ndarray) and data.ndim >= 1:
            if any(s < 4 for s in data.shape):
                raise TraceError(
                    f"array argument {position} too small to trace an interior "
                    f"workitem (shape {data.shape}; need >= 4 per axis)"
                )
            name = getattr(arg, "name", None) or f"arg{position}"
            if name in tracer.trace.array_names_by_position.values():
                name = f"{name}@{position}"
            tracer.trace.array_names_by_position[position] = name
            tracer.trace.array_dtypes[name] = data.dtype.name
            tracer.trace.array_shapes[name] = tuple(data.shape)
            traced_args.append(TracedArray(tracer, name, data))
        else:
            traced_args.append(arg)

    symbols = [
        TracedInt(tracer, 2, Affine.symbol(axis)) for axis in ("x", "y", "z")
    ]
    ctx = KernelContext(
        workgroup_idx=(0, 0, 0),
        workgroup_dim=(1, 1, 1),
        workitem_idx=tuple(symbols),
    )
    kernel.body(ctx, *traced_args)
    return tracer.trace


# ---------------------------------------------------------------------------
# the launch-trace memo cache
# ---------------------------------------------------------------------------


#: ``dtype.name`` memoized per dtype (NumPy computes it in Python on each read)
_dtype_name = lru_cache(maxsize=None)(operator.attrgetter("name"))


@dataclass
class MemoEntry:
    """One launch signature's trace and :class:`repro.ir.lower.LoweredKernel`
    (None until first needed). Both are filled under ``lock``, so rank
    threads that miss at once trace and lower once."""

    trace: KernelTrace | None = None
    lowered: LoweredKernel | None = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class TraceMemo:
    """Launch-trace memo: repeated launches skip re-tracing entirely.

    The memo is keyed the way a real JIT specializes methods — on types
    and shapes, not values: (kernel identity, per-argument signature,
    launch config). The kernel contributes its name, body function,
    ``uses_rand`` and ``flops_per_workitem``, so fresh kernel objects
    over one body share entries. Arrays contribute (position, trace
    name, dtype, shape); tuple arguments keep their values (they carry
    extents that drive boundary guards, e.g. Listing 2's ``sizes``);
    every other scalar contributes only its Python type, so per-launch
    values like ``seed``/``step`` still hit the cache. That is what
    makes a 20-step fig5/fig6 run O(1) in trace cost and is exactly the
    paper's Fig. 7 first-launch-vs-optimized JIT split: the trace is
    computed once per (kernel, dtype, shape-class, config) and replayed
    thereafter.

    Each answer comes from one tier, counted on the memo and mirrored
    into the active :mod:`repro.observe` metrics registry as
    ``gpu.jit.tier`` counters:

    1. **trace** — a miss traces once into the memo;
    2. **memo** — a hit replays the trace in O(1).

    A launch that cannot be keyed (an unhashable argument) is refused
    with :class:`~repro.util.errors.LaunchError`.

    The compiled kernel objects persist across processes instead
    (:mod:`repro.gpu.jitcache`). The differential property tests assert
    that a memo hit returns a trace bit-identical to a freshly computed
    one.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = int(maxsize)
        #: launch signature -> its :class:`MemoEntry` (trace and lowering)
        self._entries: OrderedDict[tuple, MemoEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def signature(kernel: "Kernel", args, config=None) -> tuple:
        """The (kernel, dtype, shape-class, launch config) memo key;
        raises :class:`LaunchError` naming an argument that cannot be
        keyed (unhashable)."""
        from repro.gpu.memory import DeviceArray

        parts: list = [(kernel.name, kernel.body, bool(kernel.uses_rand),
                        int(kernel.flops_per_workitem or 0))]
        for position, arg in enumerate(args):
            data = arg.data if isinstance(arg, DeviceArray) else arg
            if isinstance(data, np.ndarray) and data.ndim >= 1:
                name = getattr(arg, "name", None) or f"arg{position}"
                parts.append(
                    ("array", position, name, _dtype_name(data.dtype), tuple(data.shape))
                )
            elif isinstance(arg, tuple):
                try:
                    hash(arg)
                except TypeError:
                    raise LaunchError(f"{kernel.name}: argument {position} {arg!r} is "
                                      "unhashable, so the launch cannot be keyed") from None
                parts.append(("tuple", position, arg))
            else:
                parts.append((type(arg).__name__, position))
        if config is not None:
            parts.append(("config", config.grid, config.workgroup))
        return tuple(parts)

    def trace(self, kernel: "Kernel", args, config=None, key=None) -> KernelTrace:
        """Memoized :func:`trace_kernel` (the launch fast path): a memo
        hit or a fresh trace kept in the memo. ``key`` is the launch's
        :meth:`signature` when the caller already has it.
        """
        if key is None:
            key = self.signature(kernel, args, config)
        entry = self.entry(key)
        with entry.lock:
            if entry.trace is not None:
                self.hits += 1
                self._count_tier("memo")
                return entry.trace
            self.misses += 1
            self._count_tier("trace")
            entry.trace = trace_kernel(kernel, args)
            return entry.trace

    def entry(self, key: tuple) -> "MemoEntry":
        """The entry of launch signature ``key`` (made if missing), moved
        to the LRU end; inserts evict beyond ``maxsize``."""
        entry = self._entries.get(key)
        if entry is None:  # setdefault: rank threads missing at once share one
            entry = self._entries.setdefault(key, MemoEntry())
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    @staticmethod
    def _count_tier(tier: str) -> None:
        tracer = observe.active()
        if tracer is not None:
            tracer.metrics.counter("gpu.jit.tier", tier=tier).inc()

    def clear(self) -> None:
        self._entries.clear()

    @property
    def tiers(self) -> dict:
        """Per-tier answer counts (trace/memo)."""
        return {"trace": self.misses, "memo": self.hits}

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


#: process-wide memo shared by every Device's JIT and the kernel lint —
#: the trace is a pure function of the memo key, so sharing is safe
_TRACE_MEMO = TraceMemo()


def trace_memo() -> TraceMemo:
    """The process-wide launch-trace memo cache."""
    return _TRACE_MEMO


def memoized_trace(kernel: "Kernel", args, config=None) -> KernelTrace:
    """Memo-backed :func:`trace_kernel`; identical output, O(1) repeats."""
    return _TRACE_MEMO.trace(kernel, args, config)


# ---------------------------------------------------------------------------
# compiled kernels & the JIT cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel after tracing + backend 'codegen'."""

    kernel: "Kernel"
    trace: KernelTrace

    @property
    def name(self) -> str:
        return self.kernel.name


class JitCompiler:
    """Per-device JIT cache: first compile of each kernel costs time.

    The paper measures the first JIT-compiled run at ~8% of the
    optimized bandwidth over a 20-step window, i.e. a one-time cost of
    roughly 12.5x the steady window (Figure 7); the backend profile
    turns that into seconds.
    """

    def __init__(self, backend: "BackendProfile"):
        self.backend = backend
        self._cache: dict[tuple, CompiledKernel] = {}

    def compile(
        self, kernel: "Kernel", args, config=None, key=None
    ) -> tuple[CompiledKernel, float]:
        """Return (compiled, compile_seconds); seconds is 0 on cache hit.

        The cache key is the trace-memo signature — kernel identity plus
        per-argument dtypes/shapes and launch config — so a dtype or
        shape change recompiles. The modeled compile *seconds* are
        charged per compiler (each device JITs for itself), but the
        trace work itself is shared through the process-wide memo.
        ``key`` is the launch's :meth:`TraceMemo.signature` when the
        caller already has it.
        """
        if key is None:
            key = _TRACE_MEMO.signature(kernel, args, config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached, 0.0
        trace = _TRACE_MEMO.trace(kernel, args, config, key)
        compiled = CompiledKernel(kernel=kernel, trace=trace)
        self._cache[key] = compiled
        return compiled, self.backend.compile_seconds(trace)
