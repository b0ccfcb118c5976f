"""The stencil IR: an SSA op list per kernel, a module per workflow.

The tracing JIT (:mod:`repro.gpu.jit`) already recovers the facts the
paper reads off Julia's LLVM-IR in Listing 4 — affine load/store
addresses, CSE'd load SSA values, fp op counts, device RNG calls. This
module promotes that flat trace into a small IR the analysis and
rewrite passes share:

- a :class:`StencilFunc` is one kernel body over the guarded interior
  region: a straight-line SSA op list (``stencil.load`` /
  ``arith.<op>`` / ``stencil.rand`` / ``stencil.store``) whose array
  subscripts are :class:`~repro.gpu.jit.Affine` expressions in the
  launch symbols, plus region metadata (halo depth, array dtypes and
  shapes, an optional tile);
- a :class:`Module` is the sequence of funcs a workflow launches per
  step — the unit stencil fusion rewrites.

:func:`from_trace` builds a func from a :class:`~repro.gpu.jit.
KernelTrace`; :meth:`StencilFunc.verify` checks SSA well-formedness so
every rewrite pass can assert it preserved the invariants. The text
rendering is MLIR-flavored on purpose: the xdsl-style pass pipeline in
:mod:`repro.ir.passes` is the counterfactual engine behind
``grayscott ir`` ("what would fusion buy at 1024^3?").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.gpu.jit import PARAM_PREFIX, Affine, MemoryAccess
from repro.util.errors import IrError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.jit import KernelTrace


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadOp:
    """``%r = stencil.load array[exprs]`` — one CSE'd global load."""

    result: str
    array: str
    exprs: tuple[Affine, ...]

    @property
    def access(self) -> MemoryAccess:
        return MemoryAccess(self.array, self.exprs)


@dataclass(frozen=True)
class ArithOp:
    """``%r = arith.<op> lhs, rhs`` — fadd/fsub/fmul/fdiv on doubles.

    Operands are SSA names (``%n``) or float literals (``repr`` form).
    """

    result: str
    op: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class RandOp:
    """``%r = stencil.rand(keys)`` — one counter-RNG draw.

    Keys are :class:`Affine` cell coordinates or plain ints (seed,
    step); the sample is a pure function of the keys, so two RandOps
    with equal keys are the same value (CSE-legal).
    """

    result: str
    keys: tuple


@dataclass(frozen=True)
class StoreOp:
    """``stencil.store array[exprs], value`` — one global store."""

    array: str
    exprs: tuple[Affine, ...]
    value: str

    @property
    def access(self) -> MemoryAccess:
        return MemoryAccess(self.array, self.exprs)


Op = Union[LoadOp, ArithOp, RandOp, StoreOp]


def _access_key(acc: MemoryAccess) -> tuple:
    return (acc.array, acc.linear_signature(), acc.stencil_offset())


# ---------------------------------------------------------------------------
# funcs and modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StencilFunc:
    """One stencil kernel as a region: SSA ops + halo/array metadata."""

    name: str
    ops: tuple[Op, ...]
    symbols: tuple[str, ...]
    ghost: int = 1
    array_dtypes: dict[str, str] = field(default_factory=dict)
    array_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    type_escapes: tuple[tuple[str, str], ...] = ()
    #: workgroup tile extents set by the tiling pass (None = untiled)
    tile: tuple[int, ...] | None = None
    #: source kernel names (more than one after fusion)
    provenance: tuple[str, ...] = ()
    #: scalar launch parameters (``$name``) of a parametric trace; they
    #: appear as arith operands and as symbols of rand keys
    params: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.provenance:
            object.__setattr__(self, "provenance", (self.name,))

    # -- access views (the KernelTrace-compatible interface) ------------

    @property
    def loads(self) -> list[MemoryAccess]:
        return [op.access for op in self.ops if isinstance(op, LoadOp)]

    @property
    def stores(self) -> list[MemoryAccess]:
        return [op.access for op in self.ops if isinstance(op, StoreOp)]

    @property
    def unique_loads(self) -> list[MemoryAccess]:
        seen, out = set(), []
        for acc in self.loads:
            key = _access_key(acc)
            if key not in seen:
                seen.add(key)
                out.append(acc)
        return out

    @property
    def unique_stores(self) -> list[MemoryAccess]:
        seen, out = set(), []
        for acc in self.stores:
            key = _access_key(acc)
            if key not in seen:
                seen.add(key)
                out.append(acc)
        return out

    @property
    def arith_ops(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            if isinstance(op, ArithOp):
                counts[op.op] = counts.get(op.op, 0) + 1
        return counts

    @property
    def flops(self) -> int:
        return sum(self.arith_ops.values())

    @property
    def rand_calls(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, RandOp))

    @property
    def itemsize(self) -> int:
        """Widest array element size (the traffic-model default)."""
        sizes = [np.dtype(d).itemsize for d in self.array_dtypes.values()]
        return max(sizes) if sizes else 8

    def loads_by_array(self) -> dict[str, set[tuple[int, ...]]]:
        """Per-array unique stencil load offsets — the cache-model input."""
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

    def op_counts(self) -> dict[str, int]:
        """Dimensionless op census: the pass-report numerator."""
        return {
            "load": sum(1 for op in self.ops if isinstance(op, LoadOp)),
            "arith": sum(1 for op in self.ops if isinstance(op, ArithOp)),
            "rand": sum(1 for op in self.ops if isinstance(op, RandOp)),
            "store": sum(1 for op in self.ops if isinstance(op, StoreOp)),
        }

    def with_ops(self, ops) -> "StencilFunc":
        return replace(self, ops=tuple(ops))

    # -- verification ----------------------------------------------------

    def verify(self) -> list[str]:
        """SSA well-formedness problems (empty list = valid).

        Checks: unique result names; every ``%`` operand defined before
        use and every literal operand parseable; access arity matching
        the declared array shapes; index symbols drawn from the func's
        symbol set; a well-formed tile.
        """
        problems: list[str] = []
        defined: set[str] = set()
        symbols = set(self.symbols) | set(self.params)

        def check_operand(operand: str, where: str) -> None:
            if operand.startswith("%"):
                if operand not in defined:
                    problems.append(f"{where}: use of undefined value {operand}")
                return
            if operand.startswith(PARAM_PREFIX):
                if operand not in self.params:
                    problems.append(f"{where}: undeclared parameter {operand}")
                return
            try:
                float(operand)
            except ValueError:
                problems.append(f"{where}: malformed literal {operand!r}")

        def check_exprs(array: str, exprs, where: str) -> None:
            shape = self.array_shapes.get(array)
            if shape is not None and len(exprs) != len(shape):
                problems.append(
                    f"{where}: {len(exprs)} subscripts into {array} of rank "
                    f"{len(shape)}"
                )
            for expr in exprs:
                for sym, _ in expr.linear_part:
                    if sym not in symbols:
                        problems.append(
                            f"{where}: unknown launch symbol {sym!r}"
                        )

        for index, op in enumerate(self.ops):
            where = f"op {index}"
            if isinstance(op, (LoadOp, ArithOp, RandOp)):
                if op.result in defined:
                    problems.append(f"{where}: redefinition of {op.result}")
            if isinstance(op, LoadOp):
                check_exprs(op.array, op.exprs, where)
            elif isinstance(op, ArithOp):
                if op.op not in ("fadd", "fsub", "fmul", "fdiv"):
                    problems.append(f"{where}: unknown arith op {op.op!r}")
                check_operand(op.lhs, where)
                check_operand(op.rhs, where)
            elif isinstance(op, RandOp):
                for key in op.keys:
                    if isinstance(key, Affine):
                        for sym, _ in key.linear_part:
                            if sym not in symbols:
                                problems.append(
                                    f"{where}: unknown launch symbol {sym!r}"
                                )
                    elif not isinstance(key, (int, np.integer)):
                        problems.append(
                            f"{where}: rand key {key!r} is neither Affine nor int"
                        )
            elif isinstance(op, StoreOp):
                check_exprs(op.array, op.exprs, where)
                check_operand(op.value, where)
            else:
                problems.append(f"{where}: unknown op {type(op).__name__}")
            if isinstance(op, (LoadOp, ArithOp, RandOp)):
                defined.add(op.result)

        if self.tile is not None:
            if len(self.tile) != 3 or any(
                not isinstance(t, (int, np.integer)) or t < 1 for t in self.tile
            ):
                problems.append(f"tile {self.tile!r} is not 3 positive extents")
        if self.ghost < 0:
            problems.append(f"negative halo depth {self.ghost}")
        return problems

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """MLIR-flavored text form (stable: the golden-test surface)."""
        params = ", ".join(
            f"{name}: {dtype}[{' x '.join(str(s) for s in self.array_shapes.get(name, ()))}]"
            for name, dtype in self.array_dtypes.items()
        )
        head = f"stencil.func @{self.name}({params}) halo<{self.ghost}>"
        if self.params:
            head += f" params<{', '.join(self.params)}>"
        if self.tile is not None:
            head += f" tile<{' x '.join(str(t) for t in self.tile)}>"
        lines = [head + " {"]
        for op in self.ops:
            if isinstance(op, LoadOp):
                subs = ", ".join(str(e) for e in op.exprs)
                lines.append(f"  {op.result} = stencil.load {op.array}[{subs}]")
            elif isinstance(op, ArithOp):
                lines.append(f"  {op.result} = arith.{op.op} {op.lhs}, {op.rhs}")
            elif isinstance(op, RandOp):
                keys = ", ".join(
                    str(k) for k in op.keys
                )
                lines.append(f"  {op.result} = stencil.rand({keys})")
            elif isinstance(op, StoreOp):
                subs = ", ".join(str(e) for e in op.exprs)
                lines.append(f"  stencil.store {op.array}[{subs}], {op.value}")
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        def expr_json(expr: Affine) -> dict:
            return {
                "terms": [[sym, c] for sym, c in expr.linear_part],
                "const": expr.const,
                "repr": str(expr),
            }

        ops_json: list[dict] = []
        for op in self.ops:
            if isinstance(op, LoadOp):
                ops_json.append({
                    "op": "load", "result": op.result, "array": op.array,
                    "exprs": [expr_json(e) for e in op.exprs],
                })
            elif isinstance(op, ArithOp):
                ops_json.append({
                    "op": op.op, "result": op.result,
                    "lhs": op.lhs, "rhs": op.rhs,
                })
            elif isinstance(op, RandOp):
                ops_json.append({
                    "op": "rand", "result": op.result,
                    "keys": [
                        expr_json(k) if isinstance(k, Affine) else int(k)
                        for k in op.keys
                    ],
                })
            elif isinstance(op, StoreOp):
                ops_json.append({
                    "op": "store", "array": op.array, "value": op.value,
                    "exprs": [expr_json(e) for e in op.exprs],
                })
        return {
            "name": self.name,
            "symbols": list(self.symbols),
            "ghost": self.ghost,
            "tile": list(self.tile) if self.tile is not None else None,
            "provenance": list(self.provenance),
            "arrays": {
                name: {
                    "dtype": dtype,
                    "shape": list(self.array_shapes.get(name, ())),
                }
                for name, dtype in self.array_dtypes.items()
            },
            "op_counts": self.op_counts(),
            "ops": ops_json,
        }


@dataclass(frozen=True)
class Module:
    """The funcs one workflow step launches, in launch order."""

    name: str
    funcs: tuple[StencilFunc, ...]

    def func(self, name: str) -> StencilFunc:
        for f in self.funcs:
            if f.name == name:
                return f
        raise IrError(f"module {self.name!r} has no func {name!r}")

    def with_funcs(self, funcs) -> "Module":
        return replace(self, funcs=tuple(funcs))

    def verify(self) -> list[str]:
        problems: list[str] = []
        for f in self.funcs:
            problems.extend(f"@{f.name}: {p}" for p in f.verify())
        # launch-order metadata consistency: a buffer shared between
        # funcs must agree on dtype and shape
        dtypes: dict[str, tuple[str, str]] = {}
        shapes: dict[str, tuple[str, tuple[int, ...]]] = {}
        for f in self.funcs:
            for array, dtype in f.array_dtypes.items():
                prior = dtypes.setdefault(array, (f.name, dtype))
                if prior[1] != dtype:
                    problems.append(
                        f"array {array!r} is {prior[1]} in @{prior[0]} but "
                        f"{dtype} in @{f.name}"
                    )
            for array, shape in f.array_shapes.items():
                prior_s = shapes.setdefault(array, (f.name, shape))
                if prior_s[1] != shape:
                    problems.append(
                        f"array {array!r} has shape {prior_s[1]} in "
                        f"@{prior_s[0]} but {shape} in @{f.name}"
                    )
        return problems

    def render(self) -> str:
        header = f"// module {self.name}: {len(self.funcs)} func(s)"
        return "\n\n".join([header, *(f.render() for f in self.funcs)])

    def to_json(self) -> dict:
        return {
            "module": self.name,
            "funcs": [f.to_json() for f in self.funcs],
        }

    def op_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for f in self.funcs:
            for kind, n in f.op_counts().items():
                totals[kind] = totals.get(kind, 0) + n
        return totals


# ---------------------------------------------------------------------------
# construction from a JIT trace
# ---------------------------------------------------------------------------


def _ops_from_accesses(trace: "KernelTrace") -> list[Op]:
    """Synthesize an op list from a trace's bare access lists.

    Hand-built traces (tests, external tooling) may carry only
    ``loads``/``stores`` without structured ``ops`` records. Mirror the
    tracer: CSE repeated loads of one address into one SSA value, then
    store a literal (the stored *value* is unknown, but every
    access-level analysis — halo, races, strides — only reads the
    affine subscripts).
    """
    ops: list[Op] = []
    counter = 0
    seen: dict[tuple, str] = {}
    for acc in trace.loads:
        key = _access_key(acc)
        if key in seen:
            continue
        counter += 1
        seen[key] = f"%{counter}"
        ops.append(LoadOp(f"%{counter}", acc.array, tuple(acc.exprs)))
    for acc in trace.stores:
        ops.append(StoreOp(acc.array, tuple(acc.exprs), "0.0"))
    return ops


def from_trace(
    trace: "KernelTrace", *, ghost: int = 1, name: str | None = None
) -> StencilFunc:
    """Promote one :class:`KernelTrace` into a verified stencil func.

    The trace's structured op records are converted 1:1 (loads arrive
    already CSE'd — the tracer folds repeated loads of one address into
    one SSA value, exactly like the LLVM listing the paper inspects).
    Traces with bare access lists and no op records fall back to
    :func:`_ops_from_accesses`.
    """
    ops: list[Op] = []
    symbols: set[str] = set()
    params: set[str] = set()

    def note_exprs(exprs) -> None:
        for expr in exprs:
            for sym, _ in expr.linear_part:
                (params if sym.startswith(PARAM_PREFIX) else symbols).add(sym)

    for record in trace.ops:
        kind = record[0]
        if kind == "load":
            _, ssa, array, exprs = record
            note_exprs(exprs)
            ops.append(LoadOp(ssa, array, tuple(exprs)))
        elif kind == "arith":
            _, ssa, op_name, lhs, rhs = record
            params.update(o for o in (lhs, rhs) if o.startswith(PARAM_PREFIX))
            ops.append(ArithOp(ssa, op_name, lhs, rhs))
        elif kind == "rand":
            _, ssa, keys = record
            note_exprs(k for k in keys if isinstance(k, Affine))
            ops.append(RandOp(ssa, tuple(keys)))
        elif kind == "store":
            _, array, exprs, value = record
            note_exprs(exprs)
            ops.append(StoreOp(array, tuple(exprs), value))
        else:  # pragma: no cover - tracer and IR grow in lockstep
            raise IrError(f"unknown trace op record {kind!r}")

    if not ops and (trace.loads or trace.stores):
        ops = _ops_from_accesses(trace)
        for acc in [*trace.loads, *trace.stores]:
            note_exprs(acc.exprs)

    func = StencilFunc(
        name=name if name is not None else trace.kernel_name,
        ops=tuple(ops),
        symbols=tuple(sorted(symbols)),
        ghost=int(ghost),
        array_dtypes=dict(trace.array_dtypes),
        array_shapes=dict(trace.array_shapes),
        type_escapes=tuple(trace.type_escapes),
        params=tuple(sorted(params)),
    )
    problems = func.verify()
    if problems:
        raise IrError(
            f"trace of {trace.kernel_name!r} lowered to invalid IR: "
            + "; ".join(problems)
        )
    return func
