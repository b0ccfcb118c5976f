"""The native kernel path: bitwise parity with the NumPy oracle emitter,
compile counts, the object cache, and the outcome without a C compiler."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.params import GrayScottParams
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu import jitcache
from repro.gpu.jit import PENDING, TraceMemo, trace_memo
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.ir import lower as native
from repro.observe import trace as observe
from repro.util.errors import IrError, NativeToolchainError
from tests.oracles.lower import lower_numpy
from tests.oracles.stencil import step_vectorized

ROOT = Path(__file__).resolve().parents[2]
REAL_CC = shutil.which("cc")


def _fields(interior, seed=0, dtype=np.float64):
    shape = tuple(n + 2 for n in interior)
    rng = np.random.default_rng(seed)
    u = np.asfortranarray(rng.random(shape)).astype(dtype, order="F")
    v = np.asfortranarray(rng.random(shape)).astype(dtype, order="F")
    return u, v, np.zeros_like(u), np.zeros_like(v)


def _config(shape):
    return LaunchConfig.for_domain(tuple(reversed(shape)), (4, 4, 4))


def _compiler(directory: Path, script: str) -> Path:
    """A directory holding one executable ``cc``: ``script`` in sh."""
    directory.mkdir(exist_ok=True)
    cc = directory / "cc"
    cc.write_text("#!/bin/sh\n" + script + "\n")
    cc.chmod(0o755)
    return directory


@pytest.fixture
def fresh(monkeypatch):
    """An empty trace memo and native cache, as in a new process."""
    monkeypatch.setattr(native, "_NATIVE", {})
    trace_memo().clear()
    yield
    trace_memo().clear()


@pytest.fixture
def compiles(tmp_path, monkeypatch, fresh):
    """Put a ``cc`` first on PATH that logs each call and runs the real
    one; returns the number of calls so far."""
    log = tmp_path / "cc.log"
    bindir = _compiler(tmp_path / "bin", f'echo x >> "{log}"\nexec "{REAL_CC}" "$@"')
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


def _box_body(ctx, src, out, scale):
    x, y, z = ctx.global_idx()
    if x < 1 or x >= out.shape[0] - 1 or y >= out.shape[1] or z >= out.shape[2]:
        return
    out[x, y, z] = src[x - 1, y, z] * scale + src[x + 1, y, z] / 3.0


class TestOracleParity:
    """The compiled function equals the NumPy emitter of the same plan
    bitwise: double arithmetic, one rounding at the store."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("interior", [(1, 1, 1), (5, 3, 7), (8, 6, 5), (13, 2, 9)])
    @pytest.mark.parametrize("start", [(0, 0, 0), (3, 11, 1000)])
    def test_gray_scott(self, dtype, interior, start):
        u, v, un, vn = _fields(interior, seed=sum(interior), dtype=dtype)
        ou, ov = np.zeros_like(un), np.zeros_like(vn)
        p, kernel, cfg = GrayScottParams(noise=0.1), make_gray_scott_kernel(), _config(u.shape)
        kernel.execute(cfg, kernel_args(u, v, un, vn, p, seed=5, step=3, global_start=start))
        oracle = list(kernel_args(u, v, ou, ov, p, seed=5, step=3, global_start=start))
        lower_numpy(kernel, oracle, cfg)(oracle)
        assert np.array_equal(un, ou) and np.array_equal(vn, ov)
        assert np.any(un != 0)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_guarded_box(self, dtype):
        src = np.asfortranarray(np.random.default_rng(3).random((9, 4, 3))).astype(dtype)
        out, expect = np.full_like(src, 7.0), np.full_like(src, 7.0)
        kernel = Kernel("native_box", _box_body)
        cfg = LaunchConfig.for_domain(out.shape, (4, 4, 4))
        kernel.execute(cfg, (src, out, 0.3))
        lower_numpy(kernel, [src, expect, 0.3], cfg)([src, expect, 0.3])
        assert np.array_equal(out, expect)
        assert (out[0] == 7.0).all() and (out[-1] == 7.0).all()  # outside the box

    @pytest.mark.parametrize("backend, precision", [
        ("cpu", "float64"), ("cpu", "float32"), ("julia", "float64"),  # GPUs are float64
    ])
    def test_backends_step_as_the_oracle(self, backend, precision, monkeypatch, fresh):
        settings = GrayScottSettings(L=10, nz=7, steps=0, noise=0.05, backend=backend,
                                     precision=precision)
        native_run = Simulation(settings)
        native_run.run(3)
        trace_memo().clear()
        monkeypatch.setattr(native, "lower", lambda kernel, raw, config: _Oracle(
            lower_numpy(kernel, raw, config)))
        oracle_run = Simulation(settings)
        oracle_run.run(3)
        for name in ("u", "v"):
            assert np.array_equal(native_run.interior(name), oracle_run.interior(name))


class _Oracle:
    def __init__(self, lowered):
        self.lowered = lowered

    def __call__(self, raw) -> bool:
        self.lowered(raw)
        return True


class TestWhatCompiles:
    def test_float16_is_refused_and_interpreted(self, fresh):
        src = np.asfortranarray(np.random.default_rng(4).random((5, 4, 3))).astype("float16")
        out, expect = np.zeros_like(src), np.zeros_like(src)
        kernel = Kernel("native_half", _box_body)
        cfg = LaunchConfig.for_domain(out.shape, (4, 4, 4))
        with pytest.raises(IrError, match="float16"):
            native.lower(kernel, [src, out, 0.5], cfg)
        with observe.session() as tracer:
            kernel.execute(cfg, (src, out, 0.5))
        kernel._interpret(cfg, (src, expect, 0.5))
        assert np.array_equal(out, expect)
        refused = tracer.metrics.counter("ir.lower.refused", kernel="native_half",
                                         reason="IrError")
        assert refused.value == 1

    def test_call_refuses_arrays_the_plan_was_not_built_for(self):
        """The function trusts shape, dtype and layout; the call checks them."""
        kernel, p = make_gray_scott_kernel(), GrayScottParams()
        u, v, un, vn = _fields((5, 4, 3))
        lowered = native.lower(kernel, list(kernel_args(u, v, un, vn, p, seed=1, step=0)),
                               _config(u.shape))
        larger = _fields((6, 4, 3))
        swapped = [a.astype(a.dtype.newbyteorder(">")) for a in (u, v, un, vn)]
        frozen = [u, v, np.zeros_like(un), vn]
        frozen[2].flags.writeable = False
        for arrays in (larger, swapped, frozen):
            assert not lowered(list(kernel_args(*arrays, p, seed=1, step=0)))
            assert not any(a.any() for a in arrays[2:])
        assert lowered(list(kernel_args(u, v, un, vn, p, seed=1, step=0))) and un.any()

    def test_source_depends_on_ops_and_dtypes_only(self):
        kernel = make_gray_scott_kernel()
        small, large = _fields((4, 3, 2)), _fields((9, 8, 7))
        sources = [native.emit_c(native.plan(kernel, list(kernel_args(
            *f, GrayScottParams(), seed=s, step=s)), _config(f[0].shape)))
            for f, s in ((small, 1), (large, 2))]
        assert sources[0] == sources[1]
        narrow = _fields((4, 3, 2), dtype=np.float32)
        assert native.emit_c(native.plan(kernel, list(kernel_args(
            *narrow, GrayScottParams(), seed=1, step=1)), _config(narrow[0].shape))) != sources[0]


class TestCompileCount:
    def test_two_threads_one_signature_compile_once(self, compiles):
        kernel, p = make_gray_scott_kernel(), GrayScottParams(noise=0.02)
        barrier, ok = threading.Barrier(2), {}

        def rank(t):
            u, v, un, vn = _fields((12, 10, 8), seed=t)
            ou, ov = np.zeros_like(un), np.zeros_like(vn)
            barrier.wait()
            kernel.execute(_config(u.shape), kernel_args(u, v, un, vn, p, seed=t, step=1))
            step_vectorized(u, v, ou, ov, p, seed=t, step=1)
            ok[t] = np.array_equal(un, ou) and np.array_equal(vn, ov)

        threads = [threading.Thread(target=rank, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert ok == {0: True, 1: True}
        assert compiles() == 1

    def test_two_shapes_of_one_kernel_compile_once(self, compiles):
        kernel, p = make_gray_scott_kernel(), GrayScottParams()
        for interior in ((6, 5, 4), (9, 7, 5)):
            u, v, un, vn = _fields(interior)
            args = kernel_args(u, v, un, vn, p, seed=1, step=0)
            kernel.execute(_config(u.shape), args)
            key = TraceMemo.signature(kernel, args, _config(u.shape))
            assert trace_memo().entry(key).lowered is not None
        assert compiles() == 1

    def test_warm_process_runs_no_compiler(self, compiles, tmp_path):
        plans = tmp_path / "plans"
        jitcache.configure(plans)
        try:
            u, v, un, vn = _fields((6, 5, 4))
            make_gray_scott_kernel().execute(_config(u.shape), kernel_args(
                u, v, un, vn, GrayScottParams(), seed=1, step=0))
        finally:
            jitcache.deconfigure()
        assert compiles() == 1 and len(list(plans.glob("*.so"))) == 1
        script = (
            "import numpy as np, sys\n"
            "from repro.gpu import jitcache\n"
            "from repro.core.params import GrayScottParams\n"
            "from repro.core.stencil import kernel_args, make_gray_scott_kernel\n"
            "from tests.ir.test_native import _config, _fields\n"
            "from tests.oracles.stencil import step_vectorized\n"
            f"jitcache.warm_start({str(plans)!r})\n"
            "u, v, un, vn = _fields((6, 5, 4))\n"
            "ou, ov = np.zeros_like(un), np.zeros_like(vn)\n"
            "p = GrayScottParams()\n"
            "make_gray_scott_kernel().execute(_config(u.shape), kernel_args(\n"
            "    u, v, un, vn, p, seed=2, step=3))\n"
            "step_vectorized(u, v, ou, ov, p, seed=2, step=3)\n"
            "sys.exit(0 if np.array_equal(un, ou) and np.array_equal(vn, ov) else 3)\n"
        )
        env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert compiles() == 1


class TestNoCompiler:
    """No working compiler is an error, never a silent fall back to the
    per-workitem interpreter."""

    def _launch(self):
        u, v, un, vn = _fields((5, 4, 3))
        kernel, cfg = make_gray_scott_kernel(), _config(u.shape)
        args = kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0)
        return kernel, cfg, args, TraceMemo.signature(kernel, args, cfg)

    def test_missing_compiler_raises(self, fresh, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        kernel, cfg, args, key = self._launch()
        with pytest.raises(NativeToolchainError, match="no C compiler"):
            kernel.execute(cfg, args)
        assert trace_memo().entry(key).lowered is PENDING  # nothing cached
        assert not args[2].any()

    def test_failing_compiler_raises(self, fresh, tmp_path, monkeypatch):
        bindir = _compiler(tmp_path / "bin", 'echo "cc: fatal error: no space" >&2\nexit 3')
        monkeypatch.setenv("PATH", str(bindir))
        kernel, cfg, args, _ = self._launch()
        with pytest.raises(NativeToolchainError, match="exit 3.*no space"):
            kernel.execute(cfg, args)

    def test_compile_timeout_kills_and_reaps_the_compiler(self, fresh, tmp_path, monkeypatch):
        pidfile = tmp_path / "cc.pid"
        bindir = _compiler(tmp_path / "bin", f'echo $$ > "{pidfile}"\nexec sleep 60')
        monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setattr(native, "COMPILE_TIMEOUT", 1.0)
        kernel, cfg, args, _ = self._launch()
        with pytest.raises(NativeToolchainError, match="within 1 s"):
            kernel.execute(cfg, args)
        with pytest.raises(ProcessLookupError):  # killed and waited for
            os.kill(int(pidfile.read_text()), 0)

    @pytest.mark.parametrize("command", [
        ["run"], ["serve", "--smoke"], ["serve", "--smoke", "--backend", "process"],
        ["serve", "--load", "2", "--requests", "2"],
    ])
    def test_cli_prints_one_line_and_exits_1(self, command, fresh, tmp_path, monkeypatch,
                                              capsys):
        settings = json.loads((ROOT / "examples/settings/gs-demo.json").read_text())
        settings.update(L=8, steps=2, plotgap=1, ranks=2)
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(settings))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path))
        rc = main([command[0], str(path), *command[1:]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [err.strip()] and err.startswith("grayscott: no C compiler")
        assert "Traceback" not in err
