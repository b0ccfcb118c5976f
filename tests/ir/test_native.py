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
from repro.core.domain import LocalDomain
from repro.core.params import GrayScottParams
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.core.stencil import kernel_args, make_gray_scott_kernel
from repro.gpu import jitcache
from repro.gpu.jit import TraceMemo, trace_memo
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.gpu.rand import counter_uniform
from repro.ir import lower as native
from repro.mpi import dims_create
from repro.util.errors import IrError, LaunchError, NativeToolchainError
from tests.oracles.kernel_interp import interpret
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
    monkeypatch.setattr(jitcache, "_NATIVE", {})
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
        monkeypatch.setattr(native, "lower", lower_numpy)
        oracle_run = Simulation(settings)
        oracle_run.run(3)
        for name in ("u", "v"):
            assert np.array_equal(native_run.interior(name), oracle_run.interior(name))


def _noise_kernel(name, *draws):
    """A kernel adding one rand draw per ``draws`` entry to each cell;
    each entry maps ``(seed, step, x, y, z)`` to the draw's keys. The
    array axes are the launch axes, so ``z`` is the outermost loop."""

    def body(ctx, src, out, scale, seed, step):
        x, y, z = ctx.global_idx()
        if x < 1 or x >= out.shape[0] - 1 or y >= out.shape[1] or z >= out.shape[2]:
            return
        value = src[x - 1, y, z] + src[x + 1, y, z]
        for keys in draws:
            value = value + scale * counter_uniform(*keys(seed, step, x, y, z))
        out[x, y, z] = value

    return Kernel(name, body)


def _innermost(source: str) -> str:
    """The innermost loop's body in an emitted source."""
    return source.rsplit("for (", 1)[1]


class TestKeyPrefixTable:
    """Rand keys before the first that reads the outermost loop index are
    hashed per column (or once per call) and still equal the oracle."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("ranks", [2, 8])
    def test_rank_shapes_with_offsets(self, dtype, ranks):
        dims = dims_create(ranks, 3)
        domain = LocalDomain.for_coords((64, 64, 64), dims, tuple(d - 1 for d in dims))
        assert any(domain.start)
        u, v, un, vn = _fields(domain.count, seed=ranks, dtype=dtype)
        ou, ov = np.zeros_like(un), np.zeros_like(vn)
        p, kernel, cfg = GrayScottParams(noise=0.1), make_gray_scott_kernel(), _config(u.shape)
        args = list(kernel_args(u, v, un, vn, p, seed=7, step=41, global_start=domain.start))
        lowered = native.lower(kernel, args, cfg)
        lowered(args)
        oracle = list(kernel_args(u, v, ou, ov, p, seed=7, step=41, global_start=domain.start))
        lower_numpy(kernel, oracle, cfg)(oracle)
        assert np.array_equal(un, ou) and np.array_equal(vn, ov)
        assert _innermost(lowered.source).count("mix(") == 1

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name, draws, inner_mixes", [
        # (seed, step, x, y) per column, z per cell
        ("noise_columns", [lambda s, t, x, y, z: (s, t, x, y, z)], 1),
        # the outermost index first: nothing to tabulate
        ("noise_z_first", [lambda s, t, x, y, z: (z + t, x, y, s)], 4),
        # no loop index: hashed once per call
        ("noise_constant", [lambda s, t, x, y, z: (s, 3, t)], 0),
        # two draws: a column table, and a row table that reads y only
        ("noise_two", [lambda s, t, x, y, z: (s, x - 1, y, z),
                       lambda s, t, x, y, z: (t, y, z, x + s)], 3),
    ])
    @pytest.mark.parametrize("interior", [(6, 5, 4), (1, 5, 4), (6, 1, 4), (6, 5, 1)])
    def test_bodies_as_the_oracle(self, dtype, name, draws, inner_mixes, interior):
        shape = (interior[0] + 2, *interior[1:])
        src = np.asfortranarray(np.random.default_rng(5).random(shape)).astype(dtype)
        out, expect = np.full_like(src, 7.0), np.full_like(src, 7.0)
        kernel, cfg = _noise_kernel(name, *draws), LaunchConfig.for_domain(shape, (1, 1, 1))
        lowered = native.lower(kernel, [src, out, 0.5, 11, 3], cfg)
        lowered([src, out, 0.5, 11, 3])
        lower_numpy(kernel, [src, expect, 0.5, 11, 3], cfg)([src, expect, 0.5, 11, 3])
        assert np.array_equal(out, expect)
        assert (out[0] == 7.0).all() and (out[1:-1] != 7.0).all()
        assert _innermost(lowered.source).count("mix(") == inner_mixes
        head = lowered.source.split("for (", 1)[0]
        assert ("const uint64_t h" in head) == (name == "noise_constant")
        assert ("uint64_t *const t" in head) == (name in ("noise_columns", "noise_two"))


class TestThinBox:
    """A box one cell thick along an axis whose workgroup is wider: the
    interior probe walks along each axis into the box."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape, box", [
        ((8, 1, 4), ((1, 7), (0, 1), (0, 4))),
        ((3, 5, 4), ((1, 2), (0, 5), (0, 4))),
        ((8, 5, 1), ((1, 7), (0, 5), (0, 1))),
        ((3, 1, 1), ((1, 2), (0, 1), (0, 1))),
    ])
    def test_lowers_and_matches_the_interpreter(self, fresh, dtype, shape, box):
        src = np.asfortranarray(np.random.default_rng(8).random(shape)).astype(dtype)
        out, expect = np.full_like(src, 7.0), np.full_like(src, 7.0)
        kernel = _noise_kernel("noise_thin", lambda s, t, x, y, z: (s, t, x, y, z))
        cfg = LaunchConfig.for_domain(shape, (4, 4, 4))
        assert native.lower(kernel, [src, out, 0.5, 11, 3], cfg).box == box
        kernel.execute(cfg, (src, out, 0.5, 11, 3))
        interpret(kernel, cfg, (src, expect, 0.5, 11, 3))
        assert np.array_equal(out, expect)
        assert (out[0] == 7.0).all() and (out[1:-1] != 7.0).all()

    def test_box_far_from_the_first_probe(self, fresh):
        """Lower bounds past the first probe ``(2, 2, 2)`` on two axes: the
        probe walks up each axis to the first cell its guard lets in."""

        def body(ctx, src, out, scale):
            x, y, z = ctx.global_idx()
            if x < 6 or x >= out.shape[0] - 1 or y < 3 or y >= out.shape[1] \
                    or z >= out.shape[2]:
                return
            out[x, y, z] = src[x - 1, y, z] * scale + src[x + 1, y, z]

        src = np.asfortranarray(np.random.default_rng(9).random((9, 5, 2)))
        out, expect = np.full_like(src, 7.0), np.full_like(src, 7.0)
        kernel, cfg = Kernel("native_far", body), LaunchConfig.for_domain(src.shape, (4, 4, 4))
        assert native.lower(kernel, [src, out, 0.5], cfg).box == ((6, 8), (3, 5), (0, 2))
        kernel.execute(cfg, (src, out, 0.5))
        interpret(kernel, cfg, (src, expect, 0.5))
        assert np.array_equal(out, expect)
        assert (out[6:8, 3:5] != 7.0).all() and (out[:6] == 7.0).all() \
            and (out[8:] == 7.0).all() and (out[:, :3] == 7.0).all()

    def test_empty_box_is_refused(self, fresh):
        """Guards no workitem passes: the probe walk gives up after a
        bounded number of traces and the launch raises, writing nothing."""

        def body(ctx, src, out, scale):
            x, y, z = ctx.global_idx()
            if x < 1 or x >= 1:
                return
            out[x, y, z] = src[x, y, z] * scale

        src = np.asfortranarray(np.random.default_rng(10).random((5, 4, 3)))
        out = np.full_like(src, 7.0)
        kernel, cfg = Kernel("native_empty", body), LaunchConfig.for_domain(src.shape, (4, 4, 4))
        with pytest.raises(IrError, match="no traced workitem reaches the kernel body"):
            kernel.execute(cfg, (src, out, 0.5))
        assert (out == 7.0).all()


class TestWhatCompiles:
    def test_float16_is_refused(self, fresh):
        src = np.asfortranarray(np.random.default_rng(4).random((5, 4, 3))).astype("float16")
        out = np.zeros_like(src)
        kernel = Kernel("native_half", _box_body)
        cfg = LaunchConfig.for_domain(out.shape, (4, 4, 4))
        for _ in range(2):  # a refusal is not cached: each launch raises
            with pytest.raises(IrError, match=r"array src of dtype float16 \(<f2\) does not lower"):
                kernel.execute(cfg, (src, out, 0.5))
        assert not out.any()
        assert trace_memo().entry(TraceMemo.signature(kernel, (src, out, 0.5), cfg)).lowered \
            is None

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
        for arrays, fault in ((larger, r"array u is float64 \(8, 6, 5\), lowered for "
                                        r"float64 \(7, 6, 5\)"),
                              (swapped, "array u is >f8"),
                              (frozen, "array u_temp is stored but read-only")):
            with pytest.raises(LaunchError, match=fault):
                lowered(list(kernel_args(*arrays, p, seed=1, step=0)))
            assert not any(a.any() for a in arrays[2:])
        lowered(list(kernel_args(u, v, un, vn, p, seed=1, step=0)))
        assert un.any()

    def test_call_refuses_a_misaligned_array(self):
        """A Fortran-ordered array at an odd byte offset is refused before
        anything is written; the same values, aligned, run."""
        kernel, p = make_gray_scott_kernel(), GrayScottParams()
        u, v, un, vn = _fields((5, 4, 3))
        lowered = native.lower(kernel, list(kernel_args(u, v, un, vn, p, seed=1, step=0)),
                               _config(u.shape))
        buffer = np.zeros(un.nbytes + 1, np.uint8)
        odd = np.ndarray(un.shape, un.dtype, buffer=buffer, offset=1, order="F")
        assert odd.flags.f_contiguous and not odd.flags.aligned
        with pytest.raises(LaunchError,
                           match="array u_temp is not a Fortran-ordered aligned array"):
            lowered(list(kernel_args(u, v, odd, vn, p, seed=1, step=0)))
        assert not buffer.any() and not vn.any()
        lowered(list(kernel_args(u, v, un, vn, p, seed=1, step=0)))
        assert un.any() and vn.any()

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
        objects = tmp_path / "objects"
        jitcache.configure(objects)
        try:
            u, v, un, vn = _fields((6, 5, 4))
            make_gray_scott_kernel().execute(_config(u.shape), kernel_args(
                u, v, un, vn, GrayScottParams(), seed=1, step=0))
        finally:
            jitcache.deconfigure()
        assert compiles() == 1 and len(list(objects.glob("*.so"))) == 1
        script = (
            "import numpy as np, sys\n"
            "from repro.gpu import jitcache\n"
            "from repro.core.params import GrayScottParams\n"
            "from repro.core.stencil import kernel_args, make_gray_scott_kernel\n"
            "from tests.ir.test_native import _config, _fields\n"
            "from tests.oracles.stencil import step_vectorized\n"
            f"jitcache.configure({str(objects)!r})\n"
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


class TestObjectKey:
    def test_compile_flags_name_the_object(self, compiles, tmp_path, monkeypatch):
        """An object built under other flags is another cache entry."""
        objects = tmp_path / "objects"
        u, v, un, vn = _fields((5, 4, 3))
        args = list(kernel_args(u, v, un, vn, GrayScottParams(), seed=1, step=0))
        jitcache.configure(objects)
        try:
            sources = []
            for flags in (native.CFLAGS, ("-O1", *native.CFLAGS[1:])):
                monkeypatch.setattr(native, "CFLAGS", flags)
                lowered = native.lower(make_gray_scott_kernel(), args, _config(u.shape))
                assert lowered.source.startswith(f"/* cc {' '.join(flags)} */\n")
                sources.append(lowered.source)
        finally:
            jitcache.deconfigure()
        assert compiles() == 2 and len(set(sources)) == 2
        assert len(list(objects.glob("*.so"))) == 2


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
        assert trace_memo().entry(key).lowered is None  # nothing cached
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
