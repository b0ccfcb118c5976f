"""A damaged BP5 dataset through the CLI: exit 1 and one clean message.

``analyze`` reads blocks and ``bpls`` reads the index and sizes the data
subfiles; on a truncated
data subfile or a corrupt index each must exit 1 and print exactly one
``grayscott:`` line on stderr, never a traceback.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.core.settings import GrayScottSettings


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bp5")
    settings = root / "s.json"
    GrayScottSettings(
        L=12, steps=4, plotgap=2, noise=0.0, output=str(root / "clean.bp")
    ).save(settings)
    assert main(["run", str(settings)]) == 0
    return root / "clean.bp"


def _truncate_data(path):
    data = path / "data.0"
    data.write_bytes(data.read_bytes()[: data.stat().st_size // 2])


def _cut_index(path):
    index = path / "md.idx.json"
    index.write_text(index.read_text()[:40])


def _break_index_schema(path):
    index = path / "md.idx.json"
    record = json.loads(index.read_text())
    del record["variables"]
    index.write_text(json.dumps(record))


@pytest.mark.parametrize("command", ["analyze", "bpls"])
@pytest.mark.parametrize(
    "damage, message",
    [
        (_truncate_data, "data.0: truncated"),
        (_cut_index, "unparseable index"),
        (_break_index_schema, "malformed index"),
    ],
    ids=["truncated-data", "cut-index", "index-schema"],
)
def test_damaged_dataset_exits_1_cleanly(
    dataset, tmp_path, capsys, command, damage, message
):
    damaged = tmp_path / "damaged.bp"
    shutil.copytree(dataset, damaged)
    damage(damaged)
    capsys.readouterr()
    assert main([command, str(damaged)]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("grayscott: ") and message in lines[0]
    assert "Traceback" not in err
