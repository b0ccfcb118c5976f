"""A damaged trace shard: ``validate_shard_stream`` names the fault.

Each case writes a small two-shard stream with the real
``ShardedPerfettoWriter``, damages one shard file the way a killed
writer or a bad producer would, and checks that the streaming validator
reports it, as does ``validate_chrome_trace``, which sends every shard
source through it. A clean stream reports nothing.
"""

import json

import pytest

from repro.observe.export import validate_chrome_trace
from repro.observe.stream import ShardedPerfettoWriter, validate_shard_stream
from repro.observe.trace import SIM, Tracer

SPANS = 11
VALIDATORS = [validate_shard_stream, validate_chrome_trace]


@pytest.fixture
def shards(tmp_path):
    """A clean stream: 11 sim-clock spans over two shard files."""
    root = tmp_path / "shards"
    sink = ShardedPerfettoWriter(root, flush_threshold=4, shard_spans=5)
    tracer = Tracer(sinks=[sink], retain=False)
    for i in range(SPANS):
        tracer.add_span(
            f"op{i}", cat="core", clock=SIM, process="rank0", thread="core",
            start=float(i), seconds=0.5, args={"step": i},
        )
    tracer.close()
    assert sorted(p.name for p in root.glob("*.jsonl")) == [
        "trace-00000.jsonl", "trace-00001.jsonl",
    ]
    return root


def _last_shard(root):
    return root / "trace-00001.jsonl"


def _rewrite_record(path, index, **changes):
    """Replace fields of the ``index``-th record of one shard file."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[index])
    record.update(changes)
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("validate", VALIDATORS)
class TestTruncatedShard:
    def test_clean_stream_reports_nothing(self, shards, validate):
        assert validate(shards) == []
        assert validate(shards / "manifest.json") == []
        assert validate(_last_shard(shards)) == []

    def test_line_cut_mid_json(self, shards, validate):
        path = _last_shard(shards)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # inside the last record
        problems = validate(shards)
        assert len(problems) == 1
        assert "trace-00001.jsonl:3 is not valid JSON" in problems[0]

    def test_cut_at_line_boundary_breaks_the_count(self, shards, validate):
        path = _last_shard(shards)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        assert validate(shards) == [
            f"manifest declares {SPANS} spans but shards hold {SPANS - 1}"
        ]


@pytest.mark.parametrize("validate", VALIDATORS)
class TestCorruptRecord:
    def test_lane_mixing_wall_and_sim_clocks(self, shards, validate):
        _rewrite_record(_last_shard(shards), 1, clock="wall")
        problems = validate(shards)
        assert problems == [
            "lane ('rank0', 'core') mixes clock domains ('sim' and 'wall')"
        ]

    def test_negative_seconds(self, shards, validate):
        _rewrite_record(_last_shard(shards), 0, seconds=-1.0)
        assert validate(shards) == [
            "span 9 ('op8') missing nonnegative 'seconds'"
        ]

    def test_unknown_phase(self, shards, validate):
        _rewrite_record(_last_shard(shards), 2, ph="B")
        assert validate(shards) == ["span 11 ('op10') has unsupported phase 'B'"]

    def test_name_not_a_string(self, shards, validate):
        _rewrite_record(_last_shard(shards), 0, name=7)
        assert validate(shards) == ["span 9 missing string 'name'"]

    def test_args_not_an_object(self, shards, validate):
        _rewrite_record(_last_shard(shards), 0, args=[1, 2])
        assert validate(shards) == ["span 9 ('op8') 'args' is not an object"]

    @pytest.mark.parametrize("value", [[], "", 0, None, [1, 2]])
    def test_falsy_or_non_object_args(self, shards, validate, value):
        # only a missing key means "no args"
        _rewrite_record(_last_shard(shards), 0, args=value)
        assert validate(shards) == ["span 9 ('op8') 'args' is not an object"]

    def test_missing_args_is_no_args(self, shards, validate):
        path = _last_shard(shards)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        del record["args"]
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert validate(shards) == []

    @pytest.mark.parametrize("field", ["process", "thread"])
    def test_lane_part_not_a_string(self, shards, validate, field):
        _rewrite_record(_last_shard(shards), 1, **{field: ["p"]})
        lane = ("rank0", "core")
        lane = (["p"], lane[1]) if field == "process" else (lane[0], ["p"])
        assert validate(shards) == [
            f"span 10 ('op9') has a non-string process or thread {lane!r}"
        ]
