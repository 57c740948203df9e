"""Flight recorder: one JSON bundle for postmortems.

``repro debug-bundle`` (and the replication torture driver, on invariant
failure) collects everything an operator needs to reconstruct "what just
happened" into a single timestamped JSON file: recent traces grouped by
trace id, the slow-op log, the metrics history ring, a current metrics
snapshot, the structured-log tail, and the storage/replication state
that places all of it on the commit timeline (committed seq, WAL
generation and tail offset, history id, open MVCC snapshots, per-replica
lag).

The bundle is self-describing (``schema: repro-debug/v1``);
:func:`validate_debug_bundle` is the shape check CI runs against the CLI
output, so the format cannot silently drift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import Observability

#: Self-describing schema tag carried by every bundle.
BUNDLE_SCHEMA = "repro-debug/v1"

#: Bounds keeping a bundle readable (and its file small) even when the
#: rings are full.
MAX_TRACES = 100
MAX_LOG_TAIL = 200


def collect_debug_bundle(
    system: Any = None,
    *,
    obs: "Observability | None" = None,
    db: Any = None,
    publisher: Any = None,
    replicas: "list | tuple" = (),
    note: str = "",
) -> dict[str, Any]:
    """Gather one diagnostic bundle from whatever parts are present.

    *system* is a :class:`~repro.facade.BFabric` facade (supplies
    ``obs`` and ``db`` unless overridden); *publisher* / *replicas* are
    the replication endpoints to interrogate, when the deployment has
    them.  Every section degrades to an empty value rather than failing
    — a flight recorder that crashes during the crash is worthless.
    """
    if obs is None and system is not None:
        obs = getattr(system, "obs", None)
    if db is None and system is not None:
        db = getattr(system, "db", None)

    bundle: dict[str, Any] = {
        "schema": BUNDLE_SCHEMA,
        "generated_at": obs.clock.isoformat() if obs is not None else "",
        "note": note,
        "observability": {},
        "traces": {},
        "slow_ops": [],
        "metrics": {},
        "metrics_history": [],
        "log_tail": [],
        "storage": {},
        "replication": {"publisher": None, "replicas": []},
    }

    if obs is not None:
        try:
            bundle["observability"] = obs.statistics()
            trace_ids = obs.tracer.trace_ids()[-MAX_TRACES:]
            bundle["traces"] = {
                trace_id: [
                    span.to_record() for span in obs.tracer.trace(trace_id)
                ]
                for trace_id in trace_ids
            }
            bundle["slow_ops"] = obs.slowlog.entries()
            bundle["metrics"] = obs.metrics.snapshot()
            bundle["metrics_history"] = obs.history.samples()
            bundle["log_tail"] = obs.log.records(limit=MAX_LOG_TAIL)
        except Exception as exc:  # pragma: no cover - defensive
            bundle["observability"] = {"error": repr(exc)}

    if db is not None:
        try:
            stats = db.statistics()
            bundle["storage"] = {
                "history_id": getattr(db, "history_id", ""),
                "durability": stats.get("durability", ""),
                "tables": stats.get("tables", {}),
                "total_rows": stats.get("total_rows", 0),
                "transactions": stats.get("transactions", 0),
                "wal_bytes": stats.get("wal_bytes", 0),
                "mvcc": stats.get("mvcc", {}),
                "query_cache": stats.get("query_cache", {}),
            }
        except Exception as exc:
            bundle["storage"] = {"error": repr(exc)}

    if publisher is not None:
        try:
            bundle["replication"]["publisher"] = publisher.status()
        except Exception as exc:
            bundle["replication"]["publisher"] = {"error": repr(exc)}
    for replica in replicas:
        try:
            bundle["replication"]["replicas"].append(replica.status())
        except Exception as exc:
            bundle["replication"]["replicas"].append({"error": repr(exc)})

    return bundle


#: Required top-level sections and their types — the schema check.
_SECTIONS: tuple[tuple[str, type], ...] = (
    ("schema", str),
    ("generated_at", str),
    ("note", str),
    ("observability", dict),
    ("traces", dict),
    ("slow_ops", list),
    ("metrics", dict),
    ("metrics_history", list),
    ("log_tail", list),
    ("storage", dict),
    ("replication", dict),
)

_SPAN_KEYS = ("span", "span_id", "trace_id", "duration", "status")
_SLOW_KEYS = ("name", "duration", "threshold")


def validate_debug_bundle(bundle: Any) -> list[str]:
    """Shape-check a bundle; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(bundle, dict):
        return ["bundle is not a JSON object"]
    for key, expected in _SECTIONS:
        if key not in bundle:
            problems.append(f"missing section {key!r}")
        elif not isinstance(bundle[key], expected):
            problems.append(
                f"section {key!r} should be {expected.__name__}, "
                f"got {type(bundle[key]).__name__}"
            )
    if problems:
        return problems
    if bundle["schema"] != BUNDLE_SCHEMA:
        problems.append(
            f"schema is {bundle['schema']!r}, expected {BUNDLE_SCHEMA!r}"
        )
    for trace_id, spans in bundle["traces"].items():
        if not isinstance(spans, list) or not spans:
            problems.append(f"trace {trace_id!r} has no spans")
            continue
        for span in spans:
            if not isinstance(span, dict) or any(
                key not in span for key in _SPAN_KEYS
            ):
                problems.append(f"trace {trace_id!r} has a malformed span")
                break
            if span["trace_id"] != trace_id:
                problems.append(
                    f"trace {trace_id!r} contains a span of "
                    f"{span['trace_id']!r}"
                )
                break
    for index, entry in enumerate(bundle["slow_ops"]):
        if not isinstance(entry, dict) or any(
            key not in entry for key in _SLOW_KEYS
        ):
            problems.append(f"slow_ops[{index}] is malformed")
            break
    for index, sample in enumerate(bundle["metrics_history"]):
        if not isinstance(sample, dict) or not isinstance(
            sample.get("values"), dict
        ):
            problems.append(f"metrics_history[{index}] is malformed")
            break
    replication = bundle["replication"]
    if "publisher" not in replication or "replicas" not in replication:
        problems.append("replication section missing publisher/replicas")
    elif not isinstance(replication["replicas"], list):
        problems.append("replication.replicas should be a list")
    try:
        json.dumps(bundle)
    except (TypeError, ValueError) as exc:
        problems.append(f"bundle is not JSON-serializable: {exc}")
    return problems


def write_debug_bundle(
    bundle: dict[str, Any],
    directory: "str | Path",
    *,
    prefix: str = "debug-bundle",
) -> Path:
    """Write *bundle* as a timestamped JSON file; returns its path."""
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    stamp = str(bundle.get("generated_at") or "").replace(":", "-") or "unknown"
    target = target_dir / f"{prefix}-{stamp}.json"
    # Same-second bundles must not clobber each other (a torture run can
    # fail several cases inside one second).
    counter = 1
    while target.exists():
        counter += 1
        target = target_dir / f"{prefix}-{stamp}.{counter}.json"
    target.write_text(
        json.dumps(bundle, indent=2, sort_keys=True, default=str),
        encoding="utf-8",
    )
    return target
