"""The bfabric command-line tool."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import SchemaError
from repro.facade import BFabric

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def deployment(tmp_path):
    data = tmp_path / "deploy"
    assert main(["--data", str(data), "init", "--admin-password", "pw"]) == 0
    return data


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestCli:
    def test_init_creates_admin(self, tmp_path, capsys):
        data = tmp_path / "d"
        code, out = run(capsys, "--data", str(data), "init")
        assert code == 0
        assert "admin user: admin" in out
        assert (data / "db" / "snapshot.json").exists()

    def test_init_is_idempotent(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "init")
        assert code == 0

    def test_init_refuses_a_deployment_it_cannot_read(self, deployment):
        # A torn snapshot must fail init, not be checkpointed over with
        # a fresh admin (which silently dropped every other user).
        snapshot = deployment / "db" / "snapshot.json"
        snapshot.write_bytes(snapshot.read_bytes()[:-40])

        def files():
            return {
                p.relative_to(deployment): p.read_bytes()
                for p in sorted((deployment / "db").rglob("*")) if p.is_file()
            }

        before = files()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--data", str(deployment),
             "init", "--admin-login", "root"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True,
        )
        assert done.returncode != 0
        assert files() == before

    def test_stats_table(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "stats")
        assert code == 0
        assert "Users" in out
        assert "Workunits" in out
        assert re.search(
            r"search: \d+ documents, \d+ terms, \d+ postings in \d+ shapes", out
        )

    def test_integrity_clean(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "integrity")
        assert code == 0
        assert "no problems" in out

    def test_checkpoint(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "checkpoint")
        assert code == 0
        assert "checkpoint written" in out

    def test_generate_scaled(self, deployment, capsys):
        code, out = run(
            capsys, "--data", str(deployment), "generate", "--scale", "0.005"
        )
        assert code == 0
        assert "Users" in out
        # 0.5% of 1555 users ≈ 8, plus the bootstrap admin.
        users_line = next(
            line for line in out.splitlines() if line.startswith("Users")
        )
        assert int(users_line.split()[-1]) == 9

    def test_reindex_after_generate(self, deployment, capsys):
        run(capsys, "--data", str(deployment), "generate", "--scale", "0.005")
        code, out = run(capsys, "--data", str(deployment), "reindex")
        assert code == 0
        assert "indexed" in out

    def test_search_from_shell(self, deployment, capsys):
        run(capsys, "--data", str(deployment), "generate", "--scale", "0.005")
        code, out = run(
            capsys, "--data", str(deployment), "search", "arabidopsis",
        )
        assert code == 0
        assert out.strip()

    def test_search_unknown_user(self, deployment, capsys):
        with pytest.raises(SystemExit):
            main(["--data", str(deployment), "search", "x",
                  "--as-user", "ghost"])

    def test_metrics_text_exposition(self, deployment, capsys):
        run(capsys, "--data", str(deployment), "generate", "--scale", "0.005")
        code, out = run(capsys, "--data", str(deployment), "metrics")
        assert code == 0
        # Commit activity from generate was persisted and reloaded.
        assert "# TYPE bfabric_storage_commit_seconds histogram" in out
        assert "bfabric_storage_ops_total" in out
        count_line = next(
            line for line in out.splitlines()
            if line.startswith("bfabric_storage_commit_seconds_count")
        )
        assert int(count_line.split()[-1]) > 0

    def test_metrics_json_format(self, deployment, capsys):
        code, out = run(
            capsys, "--data", str(deployment), "metrics", "--format", "json"
        )
        assert code == 0
        import json

        snapshot = json.loads(out)
        assert snapshot["storage_commits_total"]["kind"] == "counter"

    def test_stats_includes_metrics_snapshot(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "stats")
        assert code == 0
        assert "commits observed:" in out
        assert "latency (seconds):" in out
        assert "storage_commit_seconds" in out

    def test_audit_listing(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "audit")
        assert code == 0
        assert "bootstrap" in out

    def test_missing_command_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--data", str(tmp_path)])

    def test_sharded_data_directory_is_refused_untouched(self, tmp_path):
        # The layout a sharded deployment left behind: a shard map and
        # one directory (with its own WAL) per shard.
        db_dir = tmp_path / "d" / "db"
        (db_dir / "shard-0").mkdir(parents=True)
        (db_dir / "shard_map.json").write_text(
            '{"shards": 2, "placements": {}}', encoding="utf-8"
        )
        (db_dir / "shard-0" / "wal.log").write_bytes(b"")

        def listing():
            return {
                path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")
            }

        before = listing()
        with pytest.raises(SchemaError) as refused:
            BFabric(tmp_path / "d")
        message = str(refused.value)
        assert str(db_dir / "shard_map.json") in message
        assert "sharding was removed" in message
        assert "no migration" in message
        for verb in (["init"], ["stats"], ["replicate", "status"]):
            with pytest.raises(SchemaError):
                main(["--data", str(tmp_path / "d"), *verb])
        assert listing() == before


class TestCliReports:
    def test_report(self, deployment, capsys):
        run(capsys, "--data", str(deployment), "generate", "--scale", "0.005")
        code, out = run(capsys, "--data", str(deployment), "report")
        assert code == 0
        assert "Busiest projects" in out
        assert "Storage by mode" in out

    def test_provenance(self, deployment, capsys):
        run(capsys, "--data", str(deployment), "generate", "--scale", "0.005")
        code, out = run(capsys, "--data", str(deployment), "provenance", "1")
        assert code == 0
        assert "Workunit #1" in out


class TestCliReplication:
    def test_stats_shows_mvcc_line(self, deployment, capsys):
        code, out = run(capsys, "--data", str(deployment), "stats")
        assert code == 0
        assert "MVCC: committed seq" in out
        assert "retained versions" in out

    def test_maintenance_prune(self, deployment, capsys):
        code, out = run(
            capsys, "--data", str(deployment), "maintenance", "prune"
        )
        assert code == 0
        assert "pruned" in out
        assert "horizon seq" in out

    def test_replicate_status(self, deployment, capsys):
        code, out = run(
            capsys, "--data", str(deployment), "replicate", "status"
        )
        assert code == 0
        assert "committed seq" in out
        assert "WAL bytes" in out

    def test_replicate_promote_heals_torn_wal(self, deployment, capsys):
        # Leave the WAL the way a killed replica process would: torn.
        with open(deployment / "db" / "wal.log", "ab") as fh:
            fh.write(b"deadbeef {torn")
        code, out = run(
            capsys, "--data", str(deployment), "replicate", "promote"
        )
        assert code == 0
        assert "promoted" in out
        code, out = run(capsys, "--data", str(deployment), "integrity")
        assert code == 0

    def test_replicate_serve_and_join(self, tmp_path, capsys):
        import threading

        primary = tmp_path / "primary"
        replica = tmp_path / "replica"
        assert main(["--data", str(primary), "init"]) == 0

        serve_result: list[int] = []

        def serve() -> None:
            serve_result.append(
                main(
                    [
                        "--data", str(primary),
                        "replicate", "serve",
                        "--port", "19510",
                        "--duration", "6",
                    ]
                )
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        import time

        time.sleep(1.0)
        code = main(
            [
                "--data", str(replica),
                "replicate", "join",
                "--primary", "127.0.0.1:19510",
                "--name", "r1",
                "--duration", "3",
            ]
        )
        thread.join(timeout=15.0)
        out = capsys.readouterr().out
        assert code == 0
        assert serve_result == [0]
        assert "connected=True" in out
