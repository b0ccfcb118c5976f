"""Tests for the rewrite passes, legality checks, and PassManager."""

import pytest

from repro.gpu.jit import Affine
from repro.ir.core import ArithOp, LoadOp, Module, StencilFunc, StoreOp
from repro.ir.passes import (
    DEFAULT_PIPELINE,
    PassManager,
    parse_pipeline,
)
from repro.util.errors import IrError


def _of(func, kind):
    return [op for op in func.ops if isinstance(op, kind)]


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


def _run_one(spec, func):
    (pass_,) = parse_pipeline(spec)
    module, reports = pass_.run(Module(name="m", funcs=(func,)))
    return module.funcs[0], reports[0]


class TestRedundantLoadElimination:
    def test_duplicate_loads_dropped_and_substituted(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            LoadOp("%2", "u", (Z, Y, X)),
            ArithOp("%3", "fadd", "%1", "%2"),
            StoreOp("out", (Z, Y, X), "%3"),
        ])
        new, report = _run_one("rle", func)
        assert report.applied
        assert report.removed == {"load": 1}
        assert report.ops_before == 4 and report.ops_after == 3
        assert len(new.loads) == 1
        # the duplicate's uses now point at the canonical SSA value
        (arith,) = _of(new, ArithOp)
        assert (arith.lhs, arith.rhs) == ("%1", "%1")
        assert new.verify() == []

    def test_no_op_when_no_duplicates(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ])
        new, report = _run_one("rle", func)
        assert not report.applied
        assert report.ops_before == report.ops_after == 2
        assert new is func

    def test_may_alias_store_blocks_elimination(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("u", (Z, Y, X), "1.0"),
            LoadOp("%2", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%2"),
        ])
        _, report = _run_one("rle", func)
        assert not report.applied


class TestCommonSubexpressionMerge:
    def test_commutative_duplicates_merge(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            LoadOp("%2", "u", (Z + C(1), Y, X)),
            ArithOp("%3", "fadd", "%1", "%2"),
            ArithOp("%4", "fadd", "%2", "%1"),
            StoreOp("out", (Z, Y, X), "%3"),
            StoreOp("out", (Z + C(1), Y, X), "%4"),
        ])
        new, report = _run_one("cse", func)
        assert report.applied
        assert report.removed == {"arith": 1}
        assert len(_of(new, ArithOp)) == 1
        # both stores now consume the surviving value
        assert {s.value for s in _of(new, StoreOp)} == {"%3"}
        assert new.verify() == []

    def test_noncommutative_not_merged(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            LoadOp("%2", "u", (Z + C(1), Y, X)),
            ArithOp("%3", "fsub", "%1", "%2"),
            ArithOp("%4", "fsub", "%2", "%1"),
            StoreOp("out", (Z, Y, X), "%3"),
            StoreOp("out", (Z + C(1), Y, X), "%4"),
        ])
        _, report = _run_one("cse", func)
        assert not report.applied


class TestDeadStoreElimination:
    def test_overwritten_store_dropped(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
            StoreOp("out", (Z, Y, X), "2.0"),
        ])
        new, report = _run_one("dse", func)
        assert report.applied
        # the dead store goes, then %1 (its only consumer gone) goes too
        assert report.removed == {"store": 1, "load": 1}
        assert new.op_counts() == {"load": 0, "arith": 0, "rand": 0, "store": 1}
        assert _of(new, StoreOp)[0].value == "2.0"
        assert any("overwritten by" in note for note in report.notes)
        assert new.verify() == []

    def test_live_stores_kept(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ])
        new, report = _run_one("dse", func)
        assert not report.applied
        assert new is func


class TestStencilFusion:
    def test_workflow_module_fuses(self):
        from repro.ir.build import workflow_module

        module = workflow_module()
        before = module.op_counts()
        fused_module, reports = parse_pipeline("fuse")[0].run(module)
        assert len(fused_module.funcs) == 1
        fused = fused_module.funcs[0]
        (report,) = reports
        assert report.applied
        assert fused.provenance == (
            "_kernel_gray_scott", "_kernel_laplacian_1var",
        )
        # fusion alone renames SSA space, removes nothing
        assert fused_module.op_counts() == before
        assert fused.verify() == []

    def test_anti_dependence_is_illegal(self):
        a = _func([
            LoadOp("%1", "u", (Z + C(1), Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ], name="a")
        b = _func([
            LoadOp("%1", "out", (Z, Y, X)),
            StoreOp("u", (Z, Y, X), "%1"),
        ], name="b")
        module, reports = parse_pipeline("fuse")[0].run(
            Module(name="m", funcs=(a, b))
        )
        assert len(module.funcs) == 2
        (report,) = reports
        assert not report.applied
        assert any("anti dependence" in note for note in report.notes)

    def test_inexact_flow_dependence_is_illegal(self):
        a = _func([StoreOp("out", (Z, Y, X), "1.0")], name="a")
        b = _func([
            LoadOp("%1", "out", (Z + C(1), Y, X)),
            StoreOp("u", (Z, Y, X), "%1"),
        ], name="b")
        module, reports = parse_pipeline("fuse")[0].run(
            Module(name="m", funcs=(a, b))
        )
        assert len(module.funcs) == 2
        assert any(
            "inexact flow dependence" in note for note in reports[0].notes
        )

    def test_exact_flow_dep_forwarded_in_register(self):
        a = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ], name="a")
        b = _func([
            LoadOp("%1", "out", (Z, Y, X)),
            ArithOp("%2", "fmul", "%1", "2.0"),
            StoreOp("res", (Z, Y, X), "%2"),
        ], name="b", arrays=("u", "out", "res"))
        module, reports = parse_pipeline("fuse")[0].run(
            Module(name="m", funcs=(a, b))
        )
        assert len(module.funcs) == 1
        fused = module.funcs[0]
        (report,) = reports
        assert report.applied
        assert any("forwarded 1 load" in note for note in report.notes)
        # b's load of out[z,y,x] became a's stored value in-register
        assert all(acc.array != "out" for acc in fused.loads)
        (arith,) = _of(fused, ArithOp)
        assert arith.lhs == "%1"
        assert fused.verify() == []

    def test_mismatched_halo_is_illegal(self):
        a = _func([LoadOp("%1", "u", (Z, Y, X))], name="a", ghost=1)
        b = _func([LoadOp("%1", "u", (Z, Y, X))], name="b", ghost=2)
        module, reports = parse_pipeline("fuse")[0].run(
            Module(name="m", funcs=(a, b))
        )
        assert len(module.funcs) == 2
        assert any("halo depths differ" in n for n in reports[0].notes)


class TestLoopTiling:
    def test_race_free_func_gets_tile(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, X), "%1"),
        ])
        new, report = _run_one("tile=8x8x8", func)
        assert report.applied
        assert new.tile == (8, 8, 8)
        assert any("radius" in note for note in report.notes)

    def test_racy_func_declines(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            StoreOp("out", (Z, Y, C(1)), "%1"),
        ])
        new, report = _run_one("tile=4x4x4", func)
        assert not report.applied
        assert new.tile is None
        assert any("illegal" in note for note in report.notes)


class TestParsePipeline:
    def test_string_spec(self):
        names = [p.name for p in parse_pipeline("fuse,rle,cse,dse")]
        assert names == ["fuse", "rle", "cse", "dse"]

    def test_iterable_spec(self):
        names = [p.name for p in parse_pipeline(["rle", "cse"])]
        assert names == ["rle", "cse"]

    def test_tile_spec(self):
        (tiler,) = parse_pipeline("tile=8x4x2")
        assert tiler.tile == (8, 4, 2)

    def test_bad_tile_spec(self):
        with pytest.raises(IrError, match="bad tile spec"):
            parse_pipeline("tile=8x8")
        with pytest.raises(IrError, match="tile pass needs extents"):
            parse_pipeline("tile")

    def test_unknown_pass(self):
        with pytest.raises(IrError, match="unknown pass 'bogus'"):
            parse_pipeline("fuse,bogus")


def _removed(pipeline, kind):
    return sum(r.removed.get(kind, 0) for r in pipeline.reports)


class TestPassManager:
    def test_default_pipeline_on_workflow(self):
        from repro.ir.build import workflow_module

        module = workflow_module()
        rewritten, pipeline = PassManager(DEFAULT_PIPELINE).run(module)
        # Listing 4: the fused module keeps exactly the 14 unique loads
        # and 35 flops of the hand-fused Gray-Scott kernel
        assert rewritten.op_counts() == {
            "load": 14, "arith": 35, "rand": 1, "store": 3,
        }
        assert any(r.pass_name == "fuse" and r.applied for r in pipeline.reports)
        assert _removed(pipeline, "load") == 7
        assert _removed(pipeline, "arith") == 11
        assert pipeline.seconds > 0
        text = pipeline.render()
        assert "wall time" in text and "applied" in text

    def test_run_func_convenience(self):
        func = _func([
            LoadOp("%1", "u", (Z, Y, X)),
            LoadOp("%2", "u", (Z, Y, X)),
            ArithOp("%3", "fadd", "%1", "%2"),
            StoreOp("out", (Z, Y, X), "%3"),
        ])
        new, pipeline = PassManager("rle,cse,dse").run_func(func)
        assert len(new.loads) == 1
        assert _removed(pipeline, "load") == 1

    def test_accepts_pass_instances(self):
        passes = parse_pipeline("rle,dse")
        manager = PassManager(passes)
        assert manager.passes is passes

    def test_report_json_round_trip(self):
        import json

        from repro.ir.build import workflow_module

        _, pipeline = PassManager().run(workflow_module())
        doc = json.loads(json.dumps(pipeline.to_json()))
        assert doc["seconds"] >= 0
        assert any(p["pass"] == "rle" and p["applied"] for p in doc["passes"])
        applied = [p for p in doc["passes"] if p["applied"]]
        assert all(0 <= p["reduction_ratio"] <= 1 for p in applied)
