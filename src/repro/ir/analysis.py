"""Dataflow analyses over the stencil IR.

Each analysis is a pure function of one :class:`~repro.ir.core.
StencilFunc` (or a func pair, for cross-launch dependences) returning
plain result records. :class:`AnalysisContext` memoizes them so the
lint rules and the rewrite passes share one computation instead of
each re-walking the ops — the unification this layer exists for.

Analyses:

- :func:`reaching_definitions` — SSA def/use chains plus store
  liveness: a store overwritten (must-alias) before any may-alias load
  is dead.
- :func:`halo_analysis` — halo-bounds inference: stencil offsets
  vs. ghost depth, halo stores, absolute out-of-bounds subscripts.
- :func:`race_analysis` — write-write races by affine address-equality
  solving over a sample grid of workitems (the lint KRN-RACE engine).
- :func:`stride_analysis` — coalescing of the contiguous (Fortran
  leading) axis.
- :func:`redundant_loads` — loads of one address not folded into one
  SSA value, with the store-interference legality scan RLE needs.
- :func:`cse_candidates` — value numbering over arith + rand ops.
- :func:`cross_dependences` — flow/anti/output dependences between two
  funcs, the fusion legality input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.gpu.jit import MemoryAccess
from repro.ir.core import ArithOp, LoadOp, RandOp, StencilFunc, StoreOp

#: how many workitems per symbol the race solver enumerates; affine
#: collisions over a box are visible within any window this wide that
#: covers coefficient differences up to +/- RACE_SAMPLE - 1
RACE_SAMPLE = 4

_COMMUTATIVE = {"fadd", "fmul"}


def _symbols_of(acc: MemoryAccess) -> set[str]:
    return {sym for expr in acc.exprs for sym, _ in expr.linear_part}


def _access_key(acc: MemoryAccess) -> tuple:
    return (acc.array, acc.linear_signature(), acc.stencil_offset())


def may_alias(a: MemoryAccess, b: MemoryAccess) -> bool:
    """Whether two accesses can touch the same cell *within one workitem*.

    Same array with equal linear signatures aliases iff the constant
    offsets are equal; differing linear signatures are conservatively
    assumed to alias.
    """
    if a.array != b.array:
        return False
    if a.linear_signature() != b.linear_signature():
        return True
    return a.stencil_offset() == b.stencil_offset()


def must_alias(a: MemoryAccess, b: MemoryAccess) -> bool:
    """Provably the same cell for every workitem."""
    return (
        a.array == b.array
        and a.linear_signature() == b.linear_signature()
        and a.stencil_offset() == b.stencil_offset()
    )


class AnalysisContext:
    """Memoized analyses over one func (shared by lint + passes)."""

    def __init__(self, func: StencilFunc):
        self.func = func
        self._results: dict[str, object] = {}

    def cached(self, name: str, compute):
        if name not in self._results:
            self._results[name] = compute(self.func)
        return self._results[name]

    @property
    def reaching(self) -> "ReachingDefs":
        return self.cached("reaching", reaching_definitions)

    @property
    def halo(self) -> list["HaloFinding"]:
        return self.cached("halo", halo_analysis)

    @property
    def races(self) -> list["RaceFinding"]:
        return self.cached("races", race_analysis)

    @property
    def strides(self) -> list["StrideFinding"]:
        return self.cached("strides", stride_analysis)

    @property
    def redundant(self) -> list["RedundantLoad"]:
        return self.cached("redundant", redundant_loads)

    @property
    def cse(self) -> list["CseGroup"]:
        return self.cached("cse", cse_candidates)


# ---------------------------------------------------------------------------
# reaching definitions / store liveness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadStore:
    """A store whose value is overwritten before any possible read."""

    index: int
    store: StoreOp
    overwritten_by: int


@dataclass(frozen=True)
class ReachingDefs:
    """SSA def/use indices plus store liveness over one func."""

    defs: dict[str, int]
    uses: dict[str, tuple[int, ...]]
    dead_stores: tuple[DeadStore, ...]


def reaching_definitions(func: StencilFunc) -> ReachingDefs:
    defs: dict[str, int] = {}
    uses: dict[str, list[int]] = {}

    def note_use(operand: str, index: int) -> None:
        if operand.startswith("%"):
            uses.setdefault(operand, []).append(index)

    for index, op in enumerate(func.ops):
        if isinstance(op, (LoadOp, ArithOp, RandOp)):
            defs.setdefault(op.result, index)
            uses.setdefault(op.result, [])
        if isinstance(op, ArithOp):
            note_use(op.lhs, index)
            note_use(op.rhs, index)
        elif isinstance(op, StoreOp):
            note_use(op.value, index)

    dead: list[DeadStore] = []
    ops = func.ops
    for index, op in enumerate(ops):
        if not isinstance(op, StoreOp):
            continue
        access = op.access
        for later in range(index + 1, len(ops)):
            other = ops[later]
            if isinstance(other, LoadOp) and may_alias(access, other.access):
                break  # a possible reader: the store is live
            if isinstance(other, StoreOp):
                if must_alias(access, other.access):
                    dead.append(DeadStore(index, op, later))
                    break
                if may_alias(access, other.access):
                    break  # partial overwrite: conservatively live
        # stores surviving to the end of the func are externally visible
    return ReachingDefs(
        defs=defs,
        uses={name: tuple(ix) for name, ix in uses.items()},
        dead_stores=tuple(dead),
    )


# ---------------------------------------------------------------------------
# halo-bounds inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaloFinding:
    """One bounds problem: a stencil overrun, halo store, or OOB index."""

    category: str  # "stencil-overrun" | "halo-store" | "absolute-oob"
    kind: str  # "load" | "store"
    access: MemoryAccess
    axis: int
    offset: int
    extent: int  # halo depth, or axis extent for absolute-oob


def halo_analysis(func: StencilFunc) -> list[HaloFinding]:
    """Compare every access's per-axis offsets against the halo depth.

    A symbolic axis's constant is a stencil offset relative to the
    guarded interior workitem (which roams the whole interior), so
    ``|offset| <= ghost`` is the containment condition; a symbol-free
    axis is an absolute subscript checked against the array extent.
    """
    ghost = func.ghost
    findings: list[HaloFinding] = []
    for kind, accesses in (
        ("load", func.unique_loads), ("store", func.unique_stores)
    ):
        for acc in accesses:
            shape = func.array_shapes.get(acc.array, ())
            for axis, expr in enumerate(acc.exprs):
                off = expr.const
                if expr.linear_part:
                    if abs(off) > ghost:
                        findings.append(HaloFinding(
                            "stencil-overrun", kind, acc, axis, off, ghost
                        ))
                    elif kind == "store" and off != 0:
                        findings.append(HaloFinding(
                            "halo-store", kind, acc, axis, off, ghost
                        ))
                elif axis < len(shape) and not 0 <= off < shape[axis]:
                    findings.append(HaloFinding(
                        "absolute-oob", kind, acc, axis, off, shape[axis]
                    ))
    return findings


# ---------------------------------------------------------------------------
# write-write races
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceFinding:
    """Two distinct workitems writing one cell of one array."""

    array: str
    address: tuple[int, ...]
    point_a: tuple[int, ...]
    point_b: tuple[int, ...]
    access_a: MemoryAccess
    access_b: MemoryAccess
    symbols: tuple[str, ...]


def race_analysis(func: StencilFunc) -> list[RaceFinding]:
    """Solve affine address equality between distinct workitems.

    All stores to one array are evaluated at every workitem of a small
    sample grid; two *distinct* workitems producing the same concrete
    address is a write-write race. Affine addresses collide within a
    window of ``RACE_SAMPLE`` per symbol whenever they collide at all
    (for the coefficient magnitudes kernels actually use), so the
    enumeration is a sound, cheap stand-in for an ILP solve.
    """
    by_array: dict[str, list[MemoryAccess]] = {}
    for acc in func.unique_stores:
        by_array.setdefault(acc.array, []).append(acc)

    # the launch footprint is inferred from *every* symbol the accesses
    # observe (loads included): a store that ignores one of them is
    # written by all workitems along that symbol — the classic race
    symbols = sorted(
        {sym for acc in [*func.unique_loads, *func.unique_stores]
         for sym in _symbols_of(acc)}
    )
    grid = list(product(range(RACE_SAMPLE), repeat=len(symbols)))
    findings: list[RaceFinding] = []
    for array, accesses in by_array.items():
        seen: dict[tuple, tuple] = {}  # address -> (workitem, access)
        reported = set()
        for acc in accesses:
            for point in grid:
                assignment = dict(zip(symbols, point))
                address = tuple(e.evaluate(assignment) for e in acc.exprs)
                prior = seen.get(address)
                if prior is None:
                    seen[address] = (point, acc)
                    continue
                prior_point, prior_acc = prior
                if prior_point == point:
                    continue
                key = (prior_acc.linear_signature(), acc.linear_signature(),
                       prior_acc.stencil_offset(), acc.stencil_offset())
                if key in reported:
                    continue
                reported.add(key)
                findings.append(RaceFinding(
                    array=array,
                    address=address,
                    point_a=prior_point,
                    point_b=point,
                    access_a=prior_acc,
                    access_b=acc,
                    symbols=tuple(symbols),
                ))
    return findings


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrideFinding:
    """A non-unit-stride (or constant) contiguous-axis access pattern."""

    category: str  # "strided" | "constant-leading"
    access: MemoryAccess
    stride: int  # max |coeff| on the leading axis (0 when symbol-free)


def stride_analysis(func: StencilFunc) -> list[StrideFinding]:
    """The contiguous axis (Fortran axis 0) should be unit-stride.

    Any launch symbol with coefficient +/-1 on the leading axis counts
    as coalesced; a strided coefficient or a symbol-free leading axis
    on a multi-symbol access does not.
    """
    flagged = set()
    findings: list[StrideFinding] = []
    for acc in [*func.unique_loads, *func.unique_stores]:
        if not acc.exprs or not _symbols_of(acc):
            continue
        key = (acc.array, acc.linear_signature())
        if key in flagged:
            continue
        leading = acc.exprs[0]
        coeffs = [c for _, c in leading.linear_part]
        if any(abs(c) > 1 for c in coeffs):
            flagged.add(key)
            findings.append(StrideFinding(
                "strided", acc, max(abs(c) for c in coeffs)
            ))
        elif not coeffs and len(acc.exprs) > 1:
            flagged.add(key)
            findings.append(StrideFinding("constant-leading", acc, 0))
    return findings


# ---------------------------------------------------------------------------
# redundant loads (the RLE analysis)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedundantLoad:
    """Later loads of an address already live in an SSA value.

    ``duplicates`` are op indices whose load can be replaced by
    ``canonical``'s result — already legality-checked: no may-alias
    store intervenes between the canonical load and the duplicate.
    """

    canonical: int
    duplicates: tuple[int, ...]


def redundant_loads(func: StencilFunc) -> list[RedundantLoad]:
    available: dict[tuple, int] = {}  # access key -> canonical op index
    groups: dict[int, list[int]] = {}
    order: list[int] = []
    for index, op in enumerate(func.ops):
        if isinstance(op, StoreOp):
            store_acc = op.access
            for key in list(available):
                canonical = func.ops[available[key]]
                assert isinstance(canonical, LoadOp)
                if may_alias(store_acc, canonical.access):
                    del available[key]  # the stored value may differ
            continue
        if not isinstance(op, LoadOp):
            continue
        key = _access_key(op.access)
        if key in available:
            canonical = available[key]
            if canonical not in groups:
                groups[canonical] = []
                order.append(canonical)
            groups[canonical].append(index)
        else:
            available[key] = index
    return [
        RedundantLoad(canonical, tuple(groups[canonical]))
        for canonical in order
    ]


# ---------------------------------------------------------------------------
# common subexpressions (value numbering)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CseGroup:
    """Ops computing one value: a canonical def plus duplicate defs."""

    canonical: int
    duplicates: tuple[int, ...]


def cse_candidates(func: StencilFunc) -> list[CseGroup]:
    """Value numbering over arith and rand ops.

    Both are pure: arith over SSA values, rand over its coordinate keys
    (the counter RNG makes equal keys produce equal samples). fadd and
    fmul keys are commutative-canonicalized.
    """
    value_of: dict[str, tuple] = {}  # ssa name -> value number (a key)
    first_def: dict[tuple, int] = {}
    groups: dict[int, list[int]] = {}
    order: list[int] = []

    def operand_value(operand: str) -> tuple:
        if operand.startswith("%"):
            return value_of.get(operand, ("opaque", operand))
        return ("const", operand)

    for index, op in enumerate(func.ops):
        if isinstance(op, ArithOp):
            lhs, rhs = operand_value(op.lhs), operand_value(op.rhs)
            if op.op in _COMMUTATIVE:
                lhs, rhs = sorted((lhs, rhs))
            key = ("arith", op.op, lhs, rhs)
        elif isinstance(op, RandOp):
            key = ("rand", op.keys)
        elif isinstance(op, LoadOp):
            # loads get an opaque value number (RLE owns load merging)
            value_of[op.result] = ("load", index)
            continue
        else:
            continue
        if key in first_def:
            canonical = first_def[key]
            if canonical not in groups:
                groups[canonical] = []
                order.append(canonical)
            groups[canonical].append(index)
            value_of[op.result] = key
        else:
            first_def[key] = index
            value_of[op.result] = key
    return [CseGroup(c, tuple(groups[c])) for c in order]


# ---------------------------------------------------------------------------
# cross-launch dependences (the fusion legality input)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dependence:
    """One producer/consumer edge between two funcs on one array."""

    array: str
    producer: MemoryAccess
    consumer: MemoryAccess
    exact: bool  # same linear signature and offset (cell-local)


@dataclass(frozen=True)
class CrossDeps:
    """Flow/anti/output dependences from func ``a`` to func ``b``."""

    flow: tuple[Dependence, ...]  # a stores X, b loads X
    anti: tuple[Dependence, ...]  # a loads X, b stores X
    output: tuple[Dependence, ...]  # both store X


def cross_dependences(a: StencilFunc, b: StencilFunc) -> CrossDeps:
    """Dependences assuming equal array names alias the same buffer."""
    flow: list[Dependence] = []
    anti: list[Dependence] = []
    output: list[Dependence] = []
    for sa in a.unique_stores:
        for lb in b.unique_loads:
            if sa.array == lb.array:
                flow.append(Dependence(sa.array, sa, lb, must_alias(sa, lb)))
        for sb in b.unique_stores:
            if sa.array == sb.array:
                output.append(Dependence(sa.array, sa, sb, must_alias(sa, sb)))
    for la in a.unique_loads:
        for sb in b.unique_stores:
            if la.array == sb.array:
                anti.append(Dependence(la.array, sb, la, must_alias(la, sb)))
    return CrossDeps(tuple(flow), tuple(anti), tuple(output))
