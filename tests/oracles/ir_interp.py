"""Reference evaluator for the stencil IR: the rewrite bit-identity oracle.

Executes a :class:`~repro.ir.core.StencilFunc` cell by cell over the
guarded interior, in op order — the same arithmetic, in the same order,
as the scalar kernel body the func was traced from, so results are
**bitwise identical** to the per-workitem kernel interpreter
(:func:`tests.oracles.kernel_interp.interpret`) and to the compiled
kernel (:mod:`repro.ir.lower`). The rewrite-pass property tests lean on
this: any legal pipeline must leave the evaluated output bit-identical,
because every pass only removes recomputation (CSE/RLE/DSE) or
interleaves bodies whose cells are independent (fusion legality).
"""

from __future__ import annotations

from repro.gpu.jit import Affine
from repro.gpu.rand import counter_uniform
from repro.ir.core import ArithOp, LoadOp, Module, RandOp, StencilFunc, StoreOp
from repro.util.errors import IrError

_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: a / b,
}


def _symbol_extents(func: StencilFunc, arrays) -> dict[str, int]:
    """Infer each launch symbol's iteration extent from the arrays.

    A symbol iterates an array axis wherever some access subscripts
    that axis with exactly ``1*symbol + const``; the axis extent of the
    (supplied) array bounds the symbol.
    """
    extents: dict[str, int] = {}
    for op in func.ops:
        if isinstance(op, (LoadOp, StoreOp)):
            data = arrays.get(op.array)
            if data is None:
                continue
            for axis, expr in enumerate(op.exprs):
                if len(expr.linear_part) == 1 and axis < data.ndim:
                    sym, coeff = expr.linear_part[0]
                    if coeff == 1:
                        extent = int(data.shape[axis])
                        prior = extents.get(sym)
                        extents[sym] = extent if prior is None else min(
                            prior, extent
                        )
    missing = [s for s in func.symbols if s not in extents]
    if missing:
        raise IrError(
            f"cannot infer iteration extents for symbols {missing} of "
            f"@{func.name}; no unit-coefficient array subscript uses them"
        )
    return extents


def evaluate_func(func: StencilFunc, arrays: dict) -> None:
    """Run one func over every interior cell, mutating ``arrays``.

    ``arrays`` maps the func's array names to numpy arrays (ghosted,
    Fortran-ordered like the kernels'). Iterates the guarded interior
    ``[ghost, n - ghost)`` per symbol — the cells the kernel's boundary
    guard admits.
    """
    for name in func.array_dtypes:
        if name not in arrays:
            raise IrError(f"@{func.name}: no array supplied for {name!r}")
    extents = _symbol_extents(func, arrays)
    symbols = list(func.symbols)
    ghost = func.ghost
    ranges = [range(ghost, extents[s] - ghost) for s in symbols]

    def run_cell(assign: dict[str, int]) -> None:
        env: dict[str, float] = {}

        def resolve(operand: str) -> float:
            if operand.startswith("%"):
                return env[operand]
            return float(operand)

        for op in func.ops:
            if isinstance(op, LoadOp):
                address = tuple(e.evaluate(assign) for e in op.exprs)
                env[op.result] = float(arrays[op.array][address])
            elif isinstance(op, ArithOp):
                env[op.result] = _BINOPS[op.op](
                    resolve(op.lhs), resolve(op.rhs)
                )
            elif isinstance(op, RandOp):
                keys = [
                    k.evaluate(assign) if isinstance(k, Affine) else int(k)
                    for k in op.keys
                ]
                env[op.result] = counter_uniform(*keys)
            elif isinstance(op, StoreOp):
                address = tuple(e.evaluate(assign) for e in op.exprs)
                arrays[op.array][address] = resolve(op.value)

    # nested loops over the symbol box, last symbol fastest
    def walk(depth: int, assign: dict[str, int]) -> None:
        if depth == len(symbols):
            run_cell(assign)
            return
        sym = symbols[depth]
        for value in ranges[depth]:
            assign[sym] = value
            walk(depth + 1, assign)

    walk(0, {})


def evaluate_module(module: Module, arrays: dict) -> None:
    """Run every func of the module in launch order over ``arrays``."""
    for func in module.funcs:
        evaluate_func(func, arrays)
