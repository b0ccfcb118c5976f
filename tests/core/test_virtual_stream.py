"""Streaming trace export from virtual SPMD runs: byte-identity at scale."""

import pytest

from repro.core.settings import GrayScottSettings
from repro.core.virtual import VirtualWorkflow
from repro.observe.export import write_chrome_trace
from repro.observe.stream import ShardedPerfettoWriter, load_manifest, write_merged
from repro.observe.trace import Tracer
from repro.sched import SimProfiler


def _settings(**kw):
    base = dict(L=64, steps=4, plotgap=2, backend="julia")
    base.update(kw)
    return GrayScottSettings(**base)


def run_streamed(tmp_path, tag, *, nranks, jobs, flush_threshold=256, **wf_kw):
    """Run a virtual workflow streaming to shards; returns (sink, dir)."""
    target = tmp_path / f"shards-{tag}"
    sink = ShardedPerfettoWriter(target, flush_threshold=flush_threshold)
    tracer = Tracer(sinks=[sink], retain=False)
    VirtualWorkflow(_settings(), nranks=nranks, overlap=True,
                    tracer=tracer, **wf_kw).run(jobs=jobs)
    tracer.close()
    return sink, target


def run_monolithic(tmp_path, *, nranks):
    tracer = Tracer()
    VirtualWorkflow(_settings(), nranks=nranks, overlap=True,
                    tracer=tracer).run()
    return write_chrome_trace(tracer, tmp_path / "mono.json")


class TestByteIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_streamed_merge_equals_monolith(self, tmp_path, jobs):
        nranks = 64
        mono = run_monolithic(tmp_path, nranks=nranks)
        _, shards = run_streamed(tmp_path, f"j{jobs}", nranks=nranks, jobs=jobs)
        merged = write_merged(shards, tmp_path / f"merged-{jobs}.json")
        assert mono.read_bytes() == merged.read_bytes()

    def test_4096_rank_sharded_stream_byte_identical(self, tmp_path):
        nranks = 4096
        mono = run_monolithic(tmp_path, nranks=nranks)
        sink, shards = run_streamed(
            tmp_path, "big", nranks=nranks, jobs=4, flush_threshold=1024
        )
        merged = write_merged(shards, tmp_path / "merged-big.json")
        assert mono.read_bytes() == merged.read_bytes()
        # bounded memory: the tracer retained nothing, the sink never
        # buffered more than one flush batch
        assert sink.max_buffered <= 1024
        manifest = load_manifest(shards)
        assert manifest["spans"] == sink.total_spans > 10_000


class TestBoundedMemory:
    def test_buffer_never_exceeds_flush_threshold(self, tmp_path):
        sink, _ = run_streamed(
            tmp_path, "bound", nranks=256, jobs=1, flush_threshold=128
        )
        assert 0 < sink.max_buffered <= 128

    def test_worker_shards_listed_in_manifest(self, tmp_path):
        _, shards = run_streamed(tmp_path, "workers", nranks=256, jobs=4)
        manifest = load_manifest(shards)
        worker_files = [
            e["file"] for e in manifest["shards"] if "-w" in e["file"]
        ]
        assert worker_files, "sharded run produced no worker shard files"
        assert manifest["spans"] == sum(e["spans"] for e in manifest["shards"])


class TestProfiledRun:
    def test_profiler_runs_sharded_and_samples(self, tmp_path):
        # shards count partial samples; the parent sums them
        profiles = []
        for jobs in (1, 4):
            profiler = SimProfiler(interval=1e-3)
            VirtualWorkflow(
                _settings(), nranks=64, overlap=True, nic_contention=True,
                profiler=profiler,
            ).run(jobs=jobs)
            profiles.append(profiler)
        serial, sharded = profiles
        assert sharded.samples_taken == serial.samples_taken > 0
        assert sharded.stacks == serial.stacks
        names = {name for name, _ in sharded.stacks}
        assert {"vrank*", "vrank*.halo"} <= names
        out = sharded.write_folded(tmp_path / "p.folded")
        assert out.read_text() == serial.write_folded(
            tmp_path / "s.folded").read_text()


@pytest.mark.slow
class TestFrontierScaleStreaming:
    def test_65536_ranks_stream_bounded_and_byte_identical(self, tmp_path):
        nranks = 65536
        mono = run_monolithic(tmp_path, nranks=nranks)
        sink, shards = run_streamed(
            tmp_path, "frontier", nranks=nranks, jobs=4, flush_threshold=4096
        )
        assert sink.max_buffered <= 4096
        merged = write_merged(shards, tmp_path / "merged.json")
        assert mono.read_bytes() == merged.read_bytes()
