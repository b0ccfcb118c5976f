"""Rewrite passes with legality checks, and the PassManager.

Every pass maps a :class:`~repro.ir.core.Module` to a new Module plus
:class:`PassReport` records saying what it did and — when it declined —
why the rewrite was illegal. Rewrites never execute anything: legality
is decided from the analyses in :mod:`repro.ir.analysis`, and the
property tests assert bit-identity of simulated results across every
legal pipeline.

Passes (spec names for ``--passes``):

- ``fuse`` — stencil fusion of launch-adjacent funcs. Legal when the
  funcs share symbols and halo depth, every flow dependence is exact
  (producer stores the very cell the consumer loads, so the value is
  forwarded in-register), and there are no anti or inexact output
  dependences (a later launch overwriting an input the earlier one
  reads at neighbor offsets cannot be interleaved cell-by-cell).
- ``rle`` — redundant-load elimination: a load of an address already
  live in an SSA value is replaced by that value; legal when no
  may-alias store intervenes. (Within one trace the JIT already folds
  these; fusion re-introduces them across kernel boundaries.)
- ``cse`` — common-subexpression merge over arith and rand ops by
  value numbering (fadd/fmul commute; rand is pure in its keys).
- ``dse`` — dead-store elimination (a store must-alias-overwritten
  before any may-alias read) plus transitively dead value computations.
- ``tile=TXxTYxTZ`` — loop tiling: records workgroup tile extents the
  traffic/occupancy models consume; legal only for race-free funcs
  (tiling reorders the sweep, which a racy func can observe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ir import analysis as A
from repro.ir.core import (
    ArithOp,
    LoadOp,
    Module,
    RandOp,
    StencilFunc,
    StoreOp,
)
from repro.util.errors import IrError

DEFAULT_PIPELINE = ("fuse", "rle", "cse", "dse")


@dataclass(frozen=True)
class PassReport:
    """What one pass did to one target (a func or the module)."""

    pass_name: str
    target: str
    applied: bool
    ops_before: int
    ops_after: int
    notes: tuple[str, ...] = ()
    removed: dict[str, int] = field(default_factory=dict)

    @property
    def reduction_ratio(self) -> float:
        """Dimensionless op-count reduction (0 = no change)."""
        if self.ops_before == 0:
            return 0.0
        return 1.0 - self.ops_after / self.ops_before

    def to_json(self) -> dict:
        return {
            "pass": self.pass_name,
            "target": self.target,
            "applied": self.applied,
            "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "reduction_ratio": round(self.reduction_ratio, 6),
            "removed": dict(self.removed),
            "notes": list(self.notes),
        }


@dataclass
class PipelineReport:
    """Every pass's reports, in execution order, plus wall time."""

    reports: list[PassReport] = field(default_factory=list)
    seconds: float = 0.0

    def render(self) -> str:
        lines = ["pass pipeline:"]
        for r in self.reports:
            status = "applied" if r.applied else "no-op"
            detail = ", ".join(
                f"-{n} {kind}" for kind, n in r.removed.items() if n
            )
            line = (
                f"  {r.pass_name:<12} @{r.target:<28} {status:<8} "
                f"ops {r.ops_before} -> {r.ops_after}"
            )
            if detail:
                line += f"  ({detail})"
            lines.append(line)
            for note in r.notes:
                lines.append(f"      note: {note}")
        lines.append(f"  wall time: {self.seconds * 1e3:.2f} ms")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "passes": [r.to_json() for r in self.reports],
            "seconds": self.seconds,
        }


def _substitute(ops, repl: dict[str, str]) -> list:
    """Rewrite SSA operand names through a replacement map."""
    if not repl:
        return list(ops)

    def sub(name: str) -> str:
        while name in repl:
            name = repl[name]
        return name

    out = []
    for op in ops:
        if isinstance(op, ArithOp):
            out.append(ArithOp(op.result, op.op, sub(op.lhs), sub(op.rhs)))
        elif isinstance(op, StoreOp):
            out.append(StoreOp(op.array, op.exprs, sub(op.value)))
        else:
            out.append(op)
    return out


class Pass:
    """Base: a named Module -> (Module, [PassReport]) rewrite."""

    name = "pass"

    def run(self, module: Module) -> tuple[Module, list[PassReport]]:
        raise NotImplementedError


class _FuncPass(Pass):
    """A pass applied independently to every func of the module."""

    def run(self, module: Module) -> tuple[Module, list[PassReport]]:
        funcs, reports = [], []
        for func in module.funcs:
            new_func, report = self.run_func(func)
            funcs.append(new_func)
            reports.append(report)
        return module.with_funcs(funcs), reports

    def run_func(self, func: StencilFunc) -> tuple[StencilFunc, PassReport]:
        raise NotImplementedError


class RedundantLoadElimination(_FuncPass):
    name = "rle"

    def run_func(self, func: StencilFunc) -> tuple[StencilFunc, PassReport]:
        groups = A.redundant_loads(func)
        before = len(func.ops)
        if not groups:
            return func, PassReport(self.name, func.name, False, before, before)
        repl: dict[str, str] = {}
        drop: set[int] = set()
        for group in groups:
            canonical = func.ops[group.canonical]
            for dup in group.duplicates:
                repl[func.ops[dup].result] = canonical.result
                drop.add(dup)
        ops = _substitute(
            (op for i, op in enumerate(func.ops) if i not in drop), repl
        )
        new_func = func.with_ops(ops)
        return new_func, PassReport(
            self.name, func.name, True, before, len(ops),
            removed={"load": len(drop)},
        )


class CommonSubexpressionMerge(_FuncPass):
    name = "cse"

    def run_func(self, func: StencilFunc) -> tuple[StencilFunc, PassReport]:
        groups = A.cse_candidates(func)
        before = len(func.ops)
        if not groups:
            return func, PassReport(self.name, func.name, False, before, before)
        repl: dict[str, str] = {}
        drop: set[int] = set()
        removed: dict[str, int] = {}
        for group in groups:
            canonical = func.ops[group.canonical]
            for dup in group.duplicates:
                dup_op = func.ops[dup]
                repl[dup_op.result] = canonical.result
                drop.add(dup)
                kind = "rand" if isinstance(dup_op, RandOp) else "arith"
                removed[kind] = removed.get(kind, 0) + 1
        ops = _substitute(
            (op for i, op in enumerate(func.ops) if i not in drop), repl
        )
        new_func = func.with_ops(ops)
        return new_func, PassReport(
            self.name, func.name, True, before, len(ops), removed=removed
        )


class DeadStoreElimination(_FuncPass):
    name = "dse"

    def run_func(self, func: StencilFunc) -> tuple[StencilFunc, PassReport]:
        before = len(func.ops)
        reaching = A.reaching_definitions(func)
        drop = {dead.index for dead in reaching.dead_stores}
        notes = tuple(
            f"store {dead.store.access} overwritten by op "
            f"{dead.overwritten_by} before any read"
            for dead in reaching.dead_stores
        )
        ops = [op for i, op in enumerate(func.ops) if i not in drop]
        removed = {"store": len(drop)} if drop else {}
        # transitively dead value computations (loads/arith/rand whose
        # results no remaining op consumes)
        while True:
            used: set[str] = set()
            for op in ops:
                if isinstance(op, ArithOp):
                    used.update(o for o in (op.lhs, op.rhs) if o.startswith("%"))
                elif isinstance(op, StoreOp):
                    if op.value.startswith("%"):
                        used.add(op.value)
            dead_values = [
                i for i, op in enumerate(ops)
                if isinstance(op, (LoadOp, ArithOp, RandOp))
                and op.result not in used
            ]
            if not dead_values:
                break
            for i in dead_values:
                op = ops[i]
                kind = (
                    "load" if isinstance(op, LoadOp)
                    else "rand" if isinstance(op, RandOp) else "arith"
                )
                removed[kind] = removed.get(kind, 0) + 1
            ops = [op for i, op in enumerate(ops) if i not in set(dead_values)]
        applied = len(ops) != before
        new_func = func.with_ops(ops) if applied else func
        return new_func, PassReport(
            self.name, func.name, applied, before, len(ops),
            notes=notes, removed=removed,
        )


class StencilFusion(Pass):
    """Fuse launch-adjacent funcs into one per-cell body."""

    name = "fuse"

    def run(self, module: Module) -> tuple[Module, list[PassReport]]:
        funcs = list(module.funcs)
        reports: list[PassReport] = []
        index = 0
        while index + 1 < len(funcs):
            a, b = funcs[index], funcs[index + 1]
            fused, notes = self._try_fuse(a, b)
            before = len(a.ops) + len(b.ops)
            if fused is None:
                reports.append(PassReport(
                    self.name, f"{a.name}+{b.name}", False, before, before,
                    notes=tuple(notes),
                ))
                index += 1
                continue
            reports.append(PassReport(
                self.name, fused.name, True, before, len(fused.ops),
                notes=tuple(notes),
            ))
            funcs[index:index + 2] = [fused]
            # stay at `index`: the fused func may fuse with its successor
        return module.with_funcs(funcs), reports

    @staticmethod
    def _try_fuse(
        a: StencilFunc, b: StencilFunc
    ) -> tuple[StencilFunc | None, list[str]]:
        notes: list[str] = []
        if a.symbols != b.symbols:
            return None, [
                f"iteration symbols differ: {a.symbols} vs {b.symbols}"
            ]
        if a.ghost != b.ghost:
            return None, [f"halo depths differ: {a.ghost} vs {b.ghost}"]
        for array in set(a.array_dtypes) & set(b.array_dtypes):
            if a.array_dtypes[array] != b.array_dtypes[array]:
                return None, [f"array {array!r} changes dtype across funcs"]
            sa, sb = a.array_shapes.get(array), b.array_shapes.get(array)
            if sa is not None and sb is not None and sa != sb:
                return None, [f"array {array!r} changes shape across funcs"]

        deps = A.cross_dependences(a, b)
        # Anti dependences: b overwrites an array a reads. Interleaving
        # per cell would let b's store at cell p be observed by a's
        # loads at later cells p' (any nonzero stencil offset reaches a
        # written cell in some sweep order) — illegal.
        if deps.anti:
            d = deps.anti[0]
            return None, [
                f"anti dependence on {d.array!r}: the later func stores "
                f"{d.producer} while the earlier loads {d.consumer}"
            ]
        for d in deps.output:
            if not d.exact:
                return None, [
                    f"inexact output dependence on {d.array!r}: "
                    f"{d.producer} vs {d.consumer}"
                ]
        # Flow dependences: b loads what a stores. Exact (same cell)
        # means the value can be forwarded in-register; any other
        # offset needs a's full sweep to finish first — illegal.
        store_values: dict[tuple, str] = {}
        for op in a.ops:
            if isinstance(op, StoreOp):
                store_values[
                    (op.array, op.access.linear_signature(),
                     op.access.stencil_offset())
                ] = op.value
        for d in deps.flow:
            if not d.exact:
                return None, [
                    f"inexact flow dependence on {d.array!r}: producer "
                    f"stores {d.producer}, consumer loads {d.consumer} "
                    f"(needs the full sweep, not a fused cell)"
                ]
        # rename b's SSA space above a's, then forward exact flow deps
        peak = 0
        for op in a.ops:
            if isinstance(op, (LoadOp, ArithOp, RandOp)):
                if op.result.startswith("%"):
                    try:
                        peak = max(peak, int(op.result[1:]))
                    except ValueError:
                        pass

        def rename(ssa: str) -> str:
            if ssa.startswith("%"):
                try:
                    return f"%{int(ssa[1:]) + peak}"
                except ValueError:
                    return f"{ssa}.f"
            return ssa

        b_ops: list = []
        repl: dict[str, str] = {}
        forwarded = 0
        for op in b.ops:
            if isinstance(op, LoadOp):
                key = (op.array, op.access.linear_signature(),
                       op.access.stencil_offset())
                new_result = rename(op.result)
                if key in store_values:
                    repl[new_result] = store_values[key]
                    forwarded += 1
                    continue
                b_ops.append(LoadOp(new_result, op.array, op.exprs))
            elif isinstance(op, ArithOp):
                b_ops.append(ArithOp(
                    rename(op.result), op.op, rename(op.lhs), rename(op.rhs)
                ))
            elif isinstance(op, RandOp):
                b_ops.append(RandOp(rename(op.result), op.keys))
            elif isinstance(op, StoreOp):
                b_ops.append(StoreOp(op.array, op.exprs, rename(op.value)))
        b_ops = _substitute(b_ops, repl)
        if forwarded:
            notes.append(
                f"forwarded {forwarded} load(s) of producer-stored cells "
                f"in-register"
            )

        fused = StencilFunc(
            name=f"{a.name}+{b.name}",
            ops=tuple([*a.ops, *b_ops]),
            symbols=a.symbols,
            ghost=a.ghost,
            array_dtypes={**a.array_dtypes, **b.array_dtypes},
            array_shapes={**a.array_shapes, **b.array_shapes},
            type_escapes=tuple([*a.type_escapes, *b.type_escapes]),
            tile=a.tile if a.tile is not None else b.tile,
            provenance=tuple([*a.provenance, *b.provenance]),
            params=tuple(sorted({*a.params, *b.params})),
        )
        problems = fused.verify()
        if problems:  # pragma: no cover - guards future rewrite bugs
            raise IrError(
                f"fusion of {a.name!r}+{b.name!r} produced invalid IR: "
                + "; ".join(problems)
            )
        return fused, notes


class LoopTiling(_FuncPass):
    """Record workgroup tile extents for the traffic/occupancy models."""

    name = "tile"

    def __init__(self, tile: tuple[int, int, int]):
        self.tile = tile

    def run_func(self, func: StencilFunc) -> tuple[StencilFunc, PassReport]:
        before = len(func.ops)
        races = A.race_analysis(func)
        if races:
            race = races[0]
            return func, PassReport(
                self.name, func.name, False, before, before,
                notes=(
                    f"illegal: write-write race on {race.array!r} — tiling "
                    f"reorders the sweep, which a racy func can observe",
                ),
            )
        from dataclasses import replace

        new_func = replace(func, tile=tuple(int(t) for t in self.tile))
        radius = max(
            (abs(c) for acc in func.unique_loads
             for c in (acc.stencil_offset() or ())),
            default=0,
        )
        notes = (
            f"tile {'x'.join(str(t) for t in self.tile)} with stencil "
            f"radius {radius}: halo cells re-fetched per tile face",
        )
        return new_func, PassReport(
            self.name, func.name, True, before, before, notes=notes
        )


def parse_pipeline(spec) -> list[Pass]:
    """Build a pass list from a spec like ``"fuse,rle,cse,tile=8x8x8"``.

    Accepts a comma-separated string or an iterable of names.
    """
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = [str(part) for part in spec]
    passes: list[Pass] = []
    for name in names:
        if name == "fuse":
            passes.append(StencilFusion())
        elif name == "rle":
            passes.append(RedundantLoadElimination())
        elif name == "cse":
            passes.append(CommonSubexpressionMerge())
        elif name == "dse":
            passes.append(DeadStoreElimination())
        elif name == "tile" or name.startswith("tile="):
            if "=" not in name:
                raise IrError(
                    "tile pass needs extents, e.g. tile=8x8x8"
                )
            try:
                extents = tuple(
                    int(part) for part in name.split("=", 1)[1].split("x")
                )
            except ValueError:
                extents = ()
            if len(extents) != 3 or any(t < 1 for t in extents):
                raise IrError(
                    f"bad tile spec {name!r}: need 3 positive extents "
                    f"like tile=8x8x8"
                )
            passes.append(LoopTiling(extents))
        else:
            raise IrError(
                f"unknown pass {name!r} (known: fuse, rle, cse, dse, "
                f"tile=TXxTYxTZ)"
            )
    return passes


class PassManager:
    """Run a pass pipeline over a module, collecting reports."""

    def __init__(self, passes=DEFAULT_PIPELINE):
        self.passes = (
            passes if passes and isinstance(passes[0], Pass)
            else parse_pipeline(passes)
        )

    def run(self, module: Module) -> tuple[Module, PipelineReport]:
        pipeline = PipelineReport()
        start = time.perf_counter()
        for pass_ in self.passes:
            module, reports = pass_.run(module)
            pipeline.reports.extend(reports)
        pipeline.seconds = time.perf_counter() - start
        problems = module.verify()
        if problems:  # pragma: no cover - guards future rewrite bugs
            raise IrError(
                "pass pipeline produced invalid IR: " + "; ".join(problems)
            )
        return module, pipeline

    def run_func(self, func: StencilFunc) -> tuple[StencilFunc, PipelineReport]:
        """Convenience: run over a single-func module."""
        module = Module(name=func.name, funcs=(func,))
        module, pipeline = self.run(module)
        if len(module.funcs) != 1:  # pragma: no cover - single func in
            raise IrError("single-func pipeline changed func count")
        return module.funcs[0], pipeline
