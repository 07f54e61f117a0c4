"""Put the benchmark and the toolkit on the path; isolate every test's
artifact store and temporary files."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def run_ctx(tmp_path, monkeypatch):
    from perfbench.common import RunContext

    ctx = RunContext("test", 7, 1.0, 1, root=tmp_path / "run").create()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(ctx.store_dir))
    monkeypatch.setenv("TMPDIR", str(ctx.tmp_dir))
    return ctx
