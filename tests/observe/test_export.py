import json
import random

import pytest

from repro.core.settings import GrayScottSettings
from repro.core.workflow import Workflow
from repro.mpi.executor import run_spmd
from repro.observe import SIM, WALL, Tracer, trace
from repro.observe.export import (
    ascii_timeline,
    load_chrome_trace,
    summarize_chrome_trace,
    to_chrome_trace,
    tracer_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.util.errors import ObserveError
from tests.oracles.chrome_trace import to_chrome_trace_scan


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    assert trace.active() is None
    yield
    trace.deactivate()


def _mixed_tracer():
    t = Tracer()
    with t.span("host", cat="core", process="rank0", thread="core"):
        pass
    t.add_span("kern", cat="gpu", clock=SIM, process="gcd0", thread="kernel",
               start=0.0, seconds=2.0, args={"bytes": 128})
    t.instant("mark", cat="adios", clock=WALL, process="rank0", thread="adios")
    return t


class TestChromeExport:
    def test_valid_and_loadable(self, tmp_path):
        t = _mixed_tracer()
        obj = to_chrome_trace(t)
        assert validate_chrome_trace(obj) == []
        path = write_chrome_trace(t, tmp_path / "t.json")
        assert load_chrome_trace(path)["otherData"]["schema"] == (
            "repro.observe.trace/1"
        )

    def test_clock_domains_are_separate_processes(self):
        obj = to_chrome_trace(_mixed_tracer())
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"rank0", "gcd0 [modeled]"}

    def test_span_fields(self):
        obj = to_chrome_trace(_mixed_tracer())
        kern = next(
            e for e in obj["traceEvents"] if e.get("name") == "kern"
        )
        assert kern["ph"] == "X"
        assert kern["ts"] == 0.0
        assert kern["dur"] == pytest.approx(2e6)  # microseconds
        assert kern["args"]["clock"] == SIM
        assert kern["args"]["bytes"] == 128
        mark = next(
            e for e in obj["traceEvents"] if e.get("name") == "mark"
        )
        assert mark["ph"] == "i"

    def test_many_lane_numbering_matches_scan_oracle(self):
        # 300 processes x 3 threads in shuffled order, on both clocks
        lanes = [(p, th) for p in range(300) for th in ("mpi", "core", "io")]
        random.Random(5).shuffle(lanes)
        t = Tracer()
        for i, (p, thread) in enumerate(lanes):
            t.add_span("s", cat="core", clock=SIM if p % 3 else WALL,
                       process=f"p{p}", thread=thread, start=float(i),
                       seconds=0.5, args={"i": i})
        # a wall process whose label is also a modeled process's label
        for thread in ("io", "extra"):
            t.add_span("w", cat="core", clock=WALL, process="p1 [modeled]",
                       thread=thread, start=0.0, seconds=1.0)
        assert json.dumps(to_chrome_trace(t), indent=1) == json.dumps(
            to_chrome_trace_scan(t), indent=1
        )

    def test_load_rejects_garbage(self, tmp_path):
        with pytest.raises(ObserveError, match="not found"):
            load_chrome_trace(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ObserveError, match="not valid JSON"):
            load_chrome_trace(bad)

    def test_validate_catches_schema_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                              "name": "a", "ts": 0.0}]}
        )
        assert any("dur" in p for p in problems)
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "Q", "pid": 1, "tid": 1}]}
        )
        assert any("phase" in p for p in problems)

    def test_validate_catches_nonmonotonic_and_mixed_clocks(self):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 5.0,
             "dur": 1.0, "args": {"clock": "wall"}},
            {"ph": "X", "name": "b", "pid": 1, "tid": 1, "ts": 1.0,
             "dur": 1.0, "args": {"clock": "sim"}},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("monotonicity" in p for p in problems)
        assert any("mixes clock domains" in p for p in problems)


class TestShardSources:
    """Satellite: load/validate accept JSONL shard dirs and manifests."""

    def _streamed(self, target):
        from repro.observe.stream import ShardedPerfettoWriter

        sink = ShardedPerfettoWriter(target, flush_threshold=4)
        tracer = Tracer(sinks=[sink], retain=False)
        for i in range(11):
            tracer.add_span(
                f"op{i}", cat="core", clock=SIM, process="p", thread="t",
                start=float(i), seconds=0.5,
            )
        tracer.close()

    def test_load_chrome_trace_from_shard_dir(self, tmp_path):
        self._streamed(tmp_path / "shards")
        obj = load_chrome_trace(tmp_path / "shards")
        assert obj["otherData"]["schema"] == "repro.observe.trace/1"
        assert sum(1 for e in obj["traceEvents"] if e["ph"] == "X") == 11

    def test_load_chrome_trace_from_jsonl_and_manifest(self, tmp_path):
        self._streamed(tmp_path / "one.jsonl")
        self._streamed(tmp_path / "d")
        via_jsonl = load_chrome_trace(tmp_path / "one.jsonl")
        via_manifest = load_chrome_trace(tmp_path / "d" / "manifest.json")
        assert via_jsonl == via_manifest

    def test_validate_accepts_path_inputs(self, tmp_path):
        self._streamed(tmp_path / "shards")
        assert validate_chrome_trace(tmp_path / "shards") == []
        good = write_chrome_trace(_mixed_tracer(), tmp_path / "t.json")
        assert validate_chrome_trace(good) == []

    def test_validate_reports_broken_sources_as_problems(self, tmp_path):
        problems = validate_chrome_trace(tmp_path / "missing.json")
        assert problems and any("missing.json" in p for p in problems)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert validate_chrome_trace(bad) != []


class TestWorkflowTrace:
    """Satellite: a 2-step, 4-rank workflow yields a valid Chrome trace."""

    def test_four_rank_workflow_trace(self, tmp_path):
        settings = GrayScottSettings(
            L=12, steps=2, plotgap=1, backend="julia",
            output=str(tmp_path / "wf.bp"),
        )

        def body(comm):
            return Workflow(settings, comm).run(analyze=False)

        with trace.session() as tracer:
            run_spmd(body, 4, collect_stats=True)
            obj = to_chrome_trace(tracer)
            metrics = tracer.metrics

        assert validate_chrome_trace(obj) == []

        events = [e for e in obj["traceEvents"] if e["ph"] in ("X", "i")]
        cats = {str(e["cat"]).split(",")[0] for e in events}
        assert cats == {"core", "gpu", "mpi", "adios"}

        # per-lane timestamps are monotonic and single-clock
        last_ts: dict[tuple, float] = {}
        lane_clock: dict[tuple, str] = {}
        for e in events:
            lane = (e["pid"], e["tid"])
            assert e["ts"] >= last_ts.get(lane, float("-inf"))
            last_ts[lane] = e["ts"]
            assert lane_clock.setdefault(lane, e["args"]["clock"]) == (
                e["args"]["clock"]
            )

        # every rank contributed host-side spans and a modeled device lane
        names = {
            e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for rank in range(4):
            assert f"rank{rank}" in names
            assert f"gcd{rank} [modeled]" in names

        # per-rank counters were collected alongside the spans
        assert metrics.counter_value("core.steps") == 8  # 2 steps x 4 ranks
        for rank in range(4):
            assert metrics.counter_value("core.steps", rank=rank) == 2

    def test_metrics_json_roundtrip(self, tmp_path):
        settings = GrayScottSettings(
            L=12, steps=2, plotgap=2, output=str(tmp_path / "m.bp"),
        )
        with trace.session() as tracer:
            Workflow(settings).run(analyze=False)
            path = write_metrics_json(tracer.metrics, tmp_path / "m.json")
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.observe.metrics/1"
        steps = [c for c in data["counters"] if c["name"] == "core.steps"]
        assert steps and steps[0]["value"] == 2.0

    def test_provenance_embeds_metrics(self, tmp_path):
        settings = GrayScottSettings(
            L=12, steps=2, plotgap=2, output=str(tmp_path / "p.bp"),
        )
        with trace.session():
            report = Workflow(settings).run(analyze=False)
        assert report.metrics["core.steps{rank=0}"] == 2.0
        assert report.provenance()["metrics"] == report.metrics

    def test_no_metrics_without_tracer(self, tmp_path):
        settings = GrayScottSettings(
            L=12, steps=2, plotgap=2, output=str(tmp_path / "n.bp"),
        )
        report = Workflow(settings).run(analyze=False)
        assert report.metrics == {}
        assert "metrics" not in report.provenance()


class TestAsciiTimeline:
    def test_empty(self):
        assert ascii_timeline([]) == "(empty trace)"
        assert ascii_timeline([("a", "#", [])]) == "(empty trace)"

    def test_rows(self):
        text = ascii_timeline(
            [("first", "#", [(0.0, 1.0)]), ("second", "=", [(1.0, 2.0)])],
            width=20,
        )
        lines = text.splitlines()
        assert "trace over" in lines[0]
        assert "(2 events)" in lines[0]
        assert lines[1].strip().startswith("first")
        assert "#" in lines[1] and "=" in lines[2]

    def test_tracer_timeline_sections(self):
        text = tracer_timeline(_mixed_tracer())
        assert "wall clock" in text
        assert "modeled clock" in text
        assert tracer_timeline(Tracer()) == "(empty trace)"


class TestSummarize:
    def test_summary_tables(self):
        obj = to_chrome_trace(_mixed_tracer())
        text = summarize_chrome_trace(obj, width=40)
        assert "trace summary" in text
        assert "lanes" in text
        assert "gcd0 [modeled]" in text

    def test_sections_split_by_clock_and_use_exclusive_time(self):
        t = Tracer()
        # a 3 s wall parent with a 1 s nested child on the same lane,
        # plus a 2 s modeled span: the parent owns 2 s exclusively, and
        # the modeled seconds never share a table with wall seconds
        t.add_span("step", cat="core", clock=WALL, process="rank0",
                   thread="core", start=0.0, seconds=3.0)
        t.add_span("recv", cat="mpi", clock=WALL, process="rank0",
                   thread="core", start=1.0, seconds=1.0)
        t.add_span("kern", cat="gpu", clock=SIM, process="gcd0",
                   thread="kernel", start=0.0, seconds=2.0)
        text = summarize_chrome_trace(to_chrome_trace(t), width=40)
        sections = {}
        for block in text.split("\n\n"):
            lines = block.splitlines()
            if lines[0].startswith("trace summary"):
                sections[lines[0]] = {
                    cells[0]: (cells[2], float(cells[-1].rstrip("%")))
                    for cells in (ln.split() for ln in lines[3:])
                }
        wall, modeled = sections.values()
        assert [h.split(",")[1].split("(")[0].strip() for h in sections] == [
            "wall clock", "modeled clock"
        ]
        assert set(wall) == {"core", "mpi"} and set(modeled) == {"gpu"}
        for table in (wall, modeled):
            assert sum(share for _, share in table.values()) == (
                pytest.approx(100.0, abs=0.1)
            )
        assert wall["core"][0].startswith("2")  # 3 s minus the 1 s child
        assert wall["core"][1] == pytest.approx(66.7)
        assert wall["mpi"][1] == pytest.approx(33.3)
