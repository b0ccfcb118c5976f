"""Tests for the IR dataflow analyses."""

from repro.gpu.jit import Affine
from repro.ir.analysis import (
    AnalysisContext,
    cross_dependences,
    cse_candidates,
    halo_analysis,
    may_alias,
    must_alias,
    race_analysis,
    reaching_definitions,
    redundant_loads,
    stride_analysis,
)
from repro.ir.core import ArithOp, LoadOp, RandOp, StencilFunc, StoreOp

X, Y, Z = (Affine.symbol(s) for s in "xyz")
C = Affine.constant


def _func(ops, *, name="f", ghost=1, arrays=("u", "out"), shape=(8, 8, 8)):
    return StencilFunc(
        name=name,
        ops=tuple(ops),
        symbols=("x", "y", "z"),
        ghost=ghost,
        array_dtypes={a: "float64" for a in arrays},
        array_shapes={a: shape for a in arrays},
    )


class TestAlias:
    def test_same_access_must_alias(self):
        a = LoadOp("%1", "u", (Z, Y, X)).access
        b = StoreOp("u", (Z, Y, X), "%1").access
        assert must_alias(a, b) and may_alias(a, b)

    def test_distinct_offsets_no_alias(self):
        a = LoadOp("%1", "u", (Z, Y, X)).access
        b = LoadOp("%2", "u", (Z + C(1), Y, X)).access
        assert not may_alias(a, b)

    def test_different_signatures_conservative(self):
        a = LoadOp("%1", "u", (Z, Y, X)).access
        b = LoadOp("%2", "u", (Z + Y, Y, X)).access
        assert may_alias(a, b) and not must_alias(a, b)

    def test_different_arrays_never_alias(self):
        a = LoadOp("%1", "u", (Z, Y, X)).access
        b = LoadOp("%2", "out", (Z, Y, X)).access
        assert not may_alias(a, b)


class TestHalo:
    def test_overrun_and_halo_store_and_oob(self):
        func = _func([
            LoadOp("%1", "u", (Z + C(2), Y, X)),
            StoreOp("out", (Z + C(1), Y, X), "%1"),
            LoadOp("%2", "u", (C(99), Y, X)),
        ])
        categories = {(f.category, f.kind) for f in halo_analysis(func)}
        assert ("stencil-overrun", "load") in categories
        assert ("halo-store", "store") in categories
        assert ("absolute-oob", "load") in categories

    def test_clean_within_ghost(self):
        func = _func([
            LoadOp("%1", "u", (Z + C(2), Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ], ghost=2)
        assert halo_analysis(func) == []


class TestRaces:
    def test_collapsed_symbol_races(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, C(1)), "%1"),
        ])
        findings = race_analysis(func)
        assert findings and findings[0].array == "out"
        assert findings[0].point_a != findings[0].point_b

    def test_bijective_store_race_free(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ])
        assert race_analysis(func) == []


class TestStrides:
    def test_strided_leading_axis(self):
        func = _func([LoadOp("%1", "u", (Z.scaled(2), Y, X))])
        findings = stride_analysis(func)
        assert findings[0].category == "strided"
        assert findings[0].stride == 2

    def test_constant_leading_axis(self):
        func = _func([LoadOp("%1", "u", (C(1), Y, X))])
        assert stride_analysis(func)[0].category == "constant-leading"

    def test_unit_stride_clean(self):
        func = _func([LoadOp("%1", "u", (Z, Y, X))])
        assert stride_analysis(func) == []


class TestReachingDefs:
    def test_def_use_chains(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            ArithOp("%2", "fmul", "%1", "2.0"),
            StoreOp("out", (Z, Y, X), "%2"),
        ])
        rd = reaching_definitions(func)
        assert rd.defs == {"%1": 0, "%2": 1}
        assert rd.uses["%1"] == (1,)
        assert rd.uses["%2"] == (2,)
        assert rd.dead_stores == ()

    def test_dead_store_detected(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
            StoreOp("out", (Z, Y, X), "1.0"),
        ])
        dead = reaching_definitions(func).dead_stores
        assert len(dead) == 1
        assert dead[0].index == 1 and dead[0].overwritten_by == 2

    def test_intervening_load_keeps_store_live(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
            LoadOp("%2", "out", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%2"),
        ])
        assert reaching_definitions(func).dead_stores == ()


class TestRedundantLoads:
    def test_duplicate_load_grouped(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            LoadOp("%2", "u", (Z, Y, X)),
            LoadOp("%3", "u", (Z, Y, X)),
        ])
        groups = redundant_loads(func)
        assert len(groups) == 1
        assert groups[0].canonical == 0
        assert groups[0].duplicates == (1, 2)

    def test_may_alias_store_invalidates(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("u", (Z, Y, X), "1.0"),
            LoadOp("%2", "u", (Z, Y, X)),
        ])
        assert redundant_loads(func) == []

    def test_unrelated_store_keeps_availability(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
            LoadOp("%2", "u", (Z, Y, X)),
        ])
        groups = redundant_loads(func)
        assert groups and groups[0].duplicates == (2,)


class TestCse:
    def test_commutative_merge(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            LoadOp("%2", "u", (Z + C(1), Y, X)),
            ArithOp("%3", "fadd", "%1", "%2"),
            ArithOp("%4", "fadd", "%2", "%1"),  # commuted duplicate
            ArithOp("%5", "fsub", "%1", "%2"),
            ArithOp("%6", "fsub", "%2", "%1"),  # fsub is NOT commutative
        ])
        groups = cse_candidates(func)
        assert len(groups) == 1
        assert groups[0].canonical == 2 and groups[0].duplicates == (3,)

    def test_rand_keyed_on_coordinates(self):
        func = _func([
            RandOp("%1", (42, Z, Y, X)),
            RandOp("%2", (42, Z, Y, X)),
            RandOp("%3", (43, Z, Y, X)),
        ])
        groups = cse_candidates(func)
        assert len(groups) == 1 and groups[0].duplicates == (1,)

    def test_chains_propagate_value_numbers(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            ArithOp("%2", "fmul", "%1", "2.0"),
            ArithOp("%3", "fmul", "%1", "2.0"),
            ArithOp("%4", "fadd", "%2", "1.0"),
            ArithOp("%5", "fadd", "%3", "1.0"),  # same value through %3
        ])
        groups = cse_candidates(func)
        canonicals = {g.canonical: g.duplicates for g in groups}
        assert canonicals == {1: (2,), 3: (4,)}


class TestCrossDeps:
    def test_flow_anti_output(self):
        a = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ], name="a")
        b = _func([
            LoadOp("%1", "out", (Z, Y, X)),
            StoreOp("u", (Z, Y, X), "%1"),
        ], name="b")
        deps = cross_dependences(a, b)
        assert len(deps.flow) == 1 and deps.flow[0].exact
        assert len(deps.anti) == 1
        assert deps.output == ()

    def test_inexact_flow_dep(self):
        a = _func([StoreOp("out", (Z, Y, X), "1.0")], name="a")
        b = _func([LoadOp("%1", "out", (Z + C(1), Y, X))], name="b")
        deps = cross_dependences(a, b)
        assert len(deps.flow) == 1 and not deps.flow[0].exact


class TestAnalysisContext:
    def test_memoizes(self):
        func = _func([LoadOp("%1", "u", (Z, Y, X))])
        ctx = AnalysisContext(func)
        assert ctx.halo is ctx.halo
        assert ctx.races is ctx.races
        assert ctx.reaching is ctx.reaching
        assert ctx.strides is ctx.strides
        assert ctx.redundant is ctx.redundant
        assert ctx.cse is ctx.cse
