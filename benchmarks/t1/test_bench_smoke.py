"""Self-test of the benchmark harness (``pytest benchmarks/t1``).

Outside tier-1's ``testpaths`` on purpose: it starts server processes
and takes half a minute.  Everything runs in ``--smoke`` mode — a
fiftieth of the corpus, two-second windows — so it checks the harness
(schema, determinism, bookkeeping), never the program's speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import corpus  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return workloads.contract()


def test_contract_file_is_well_formed(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/t1"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(spec["per_layer"]) <= 128
    every = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(every) == len(set(every))
    assert all(NAME.match(name) for name in every)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(names) == set(workloads.WORKLOADS)
    assert all(workloads.tail_percentile(name) in (90, 95, 99) for name in names)


def _run(tmp_path, *arguments) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke",
         "--work-dir", str(tmp_path / "work"), *arguments],
        capture_output=True, text=True, timeout=170,
    )
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    return done.returncode, json.loads(last)


def test_all_workloads_report_every_named_metric(tmp_path, spec):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--all", "--smoke", "--seed", "11",
         "--work-dir", str(tmp_path / "work"), "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    for key in ("commit", "seed", "nproc", "python", "window_s", "warmup_s",
                "server_flags", "scale", "smoke"):
        assert key in report["meta"]
    assert [r["workload"] for r in report["runs"]] == [w["name"] for w in spec["workloads"]]
    for run in report["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        for metric in spec["end_to_end"]:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["n"] >= 1
            assert entry["value"] > 0
        assert run["metrics"]["error_rate"]["value"] == 0
    demo = next(r for r in report["runs"] if r["workload"] == "demo_flow")
    assert demo["checks"]["durability"]["acknowledged"] >= 1
    assert demo["checks"]["durability"]["missing"] == 0
    assert demo["checks"]["not_modified"] >= 1
    for written in ("write_p50_ms", "write_tail_ms"):
        assert demo["metrics"][written]["n"] >= 1
    pages = next(r for r in report["runs"] if r["workload"] == "page_read")
    assert pages["metrics"]["paced_tail_ms"]["n"] == pages["paced"]["attempted"] \
        == int(workloads.PACED_RPS * workloads.PACED_S)
    assert 0.0 <= pages["paced"]["late_share"] <= 1.0


def test_driver_line_matches_contract(tmp_path, spec):
    code, line = _run(tmp_path, "--workload", "engine_mixed", "--seed", "3",
                               "--seconds", "2", "--trace", "0")
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    code, line = _run(tmp_path, "--workload", "page_read", "--seed", "3",
                              "--seconds", "2", "--trace", "1")
    assert code == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    # A wrapper that no longer finds its target drops a row silently:
    # every layer a page render crosses must have taken some of the time.
    for layer in ("portal.server", "portal.app", "portal.views", "portal.render",
                  "security.auth", "core.services", "orm.repository",
                  "storage.query", "storage.query.plan"):
        assert line["metrics"][f"budget.{layer}.share"]["value"] > 0, layer


def test_same_seed_same_stream_other_seed_other_stream(tmp_path):
    def stream_bytes(seed: int) -> dict[str, bytes]:
        deployment = corpus.build_deployment(tmp_path / f"data-{seed}-{id(object())}", seed, 0.02)
        return {
            "page_read": streams.serialize(streams.page_read_streams(
                deployment.catalog, deployment.sessions, seed, 2, blocks=20)),
            "search_browse": streams.serialize(streams.search_browse_streams(
                deployment.catalog, deployment.sessions, seed, blocks=20)),
            "engine_mixed": repr(workloads.engine_stream(deployment.catalog, seed, 20)).encode(),
        }

    first, again, other = stream_bytes(5), stream_bytes(5), stream_bytes(6)
    for name in first:
        assert first[name] == again[name], name
        assert first[name] != other[name], name


def test_engine_mixed_counts_repeat_exactly(tmp_path):
    runs = [
        workloads.run_engine_mixed(9, 0.0, scale=0.02, root=tmp_path / "work", blocks=40)
        for _ in range(2)
    ]
    assert runs[0]["counters"] == runs[1]["counters"]
    assert runs[0]["counters"]["operations"] == 40 * sum(n for _k, n in workloads.ENGINE_MIX)
    assert {k: v["n"] for k, v in runs[0]["routes"].items()} == \
        {k: v["n"] for k, v in runs[1]["routes"].items()}
    assert runs[0]["failed"] == runs[1]["failed"] == 0


def test_a_dead_connection_fails_the_run():
    """An exception in a connection thread must not drop that
    connection from the statistics and leave the run looking correct."""
    import loadgen

    def dies(_client):
        raise ValueError("unexpected reply shape")

    with pytest.raises(RuntimeError, match="connection 1 died"):
        loadgen.run_closed_loops(0, [[lambda _client: None], [dies]], warmup=0.0, seconds=0.0)


def test_compare_applies_bounds_and_refuses_traced_reports(tmp_path, spec, capsys):
    def report(path, throughput, trace=0):
        entry = lambda value: {"value": value, "unit": "", "n": 1, "spread": 0.01}
        metrics = {m["name"]: entry(10.0) for m in spec["end_to_end"]}
        metrics["throughput_rps"] = entry(throughput)
        runs = [{"workload": w["name"], "attempted": 100, "failed": 0, "metrics": metrics}
                for w in spec["workloads"]]
        path.write_text(json.dumps({"meta": {"commit": "x", "seed": 1, "trace": trace},
                                    "runs": runs}))
        return str(path)

    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "throughput_rps")
    base = report(tmp_path / "a.json", 100.0)
    assert bench.compare(base, report(tmp_path / "b.json", 100.0 * (1 - bound / 2))) == 0
    assert bench.compare(base, report(tmp_path / "c.json", 100.0 * (1 - bound * 1.2))) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert bench.compare(base, report(tmp_path / "d.json", 100.0, trace=1)) == 2


def test_no_program_no_result(tmp_path):
    """In a directory with only the contract and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    import shutil

    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "t1",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/t1/bench.py", "--workload", "page_read",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
