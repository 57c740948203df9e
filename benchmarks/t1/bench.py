"""The repo's benchmark: T1-scale portal and engine workloads.

    python3 benchmarks/t1/bench.py --workload page_read --seed 7 --seconds 8 --trace 0
    python3 benchmarks/t1/bench.py --all --seed 7 --out report.json
    python3 benchmarks/t1/bench.py --all --seed 7 --trace 1 --out layers.json
    python3 benchmarks/t1/bench.py --all --seed 7 --smoke
    python3 benchmarks/t1/bench.py --compare old.json new.json

``BENCHMARK.json`` at the root of the repo is the contract: the command,
the workloads and why each exists, every gated end-to-end metric with
its regression bound, and every per-layer metric.  This file runs what
it lists, prints the numbers by name with unit and sample count, checks
the program's answers, and ends with one JSON line for the driver.
README.md beside this file is the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SCHEMA = "t1-bench/1"

#: ``--smoke``: a fiftieth of the corpus and short windows, for the
#: self-test.  Numbers from a smoke run mean nothing.
SMOKE_SCALE = 0.02
SMOKE_SECONDS = 2.0
SMOKE_WARMUP = 0.3


def commit() -> str:
    """The commit under test (the driver's checkout is not a git repo)."""
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def meta(args) -> dict:
    """What two output files must agree on before they are compared."""
    return {
        "schema": SCHEMA,
        "commit": commit(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "window_s": args.seconds,
        "warmup_s": args.warmup,
        "paced_s": workloads.PACED_S,
        "connections": workloads.CONNECTIONS,
        "server_flags": list(corpus.SERVER_FLAGS),
        "server_durability": "always (default)",
        "engine_durability": "buffered",
        "scale": args.scale,
        "smoke": args.smoke,
        "trace": args.trace,
    }


# -- running ------------------------------------------------------------------


def run_one(name: str, seed: int, args) -> dict:
    root = Path(args.work_dir) if args.work_dir else None
    if args.trace:
        result = layers.run_traced(name, seed, scale=args.scale, root=root)
    else:
        options = {"scale": args.scale, "root": root}
        if name != "engine_mixed":
            options["warmup"] = args.warmup
        result = workloads.WORKLOADS[name](seed, args.seconds, **options)
        result["workload"] = name
        result["seed"] = seed
        # Over everything the run attempted, later phases and checks included.
        result["metrics"]["error_rate"].update(
            value=result["failed"] / result["attempted"], n=result["attempted"])
    result["correct"] = result["failed"] == 0 and _checks_pass(result)
    return result


def _checks_pass(result: dict) -> bool:
    checks = result.get("checks")
    if not checks:
        return True
    return (
        checks["search_missed_new_sample"] == 0
        and checks["stable_route_rerendered"] == 0
        and checks["durability"]["missing"] == 0
    )


def driver_line(result: dict, spec: dict, trace: int) -> str:
    """The contract's last line: exactly the metrics ``BENCHMARK.json``
    names for this kind of run."""
    if trace:
        source = result["layer_metrics"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        source = result["metrics"]
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {
        name: {"value": source[name]["value"], "unit": source[name]["unit"]}
        for name in names
    }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


# -- printing -----------------------------------------------------------------


def _number(value) -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  seed {result['seed']}  "
          f"{'correct' if result['correct'] else 'INCORRECT'}  "
          f"({result['failed']} failed of {result['attempted']}) ==")
    if "metrics" in result:
        print(f"  {'metric':<24}{'value':>12}  {'unit':<6}{'n':>8}  slice spread")
        for metric, entry in result["metrics"].items():
            label = metric
            if "percentile" in entry:
                label += f" (p{entry['percentile']})"
            spread = "" if entry["spread"] is None else f"{entry['spread'] * 100:.1f} %"
            print(f"  {label:<24}{_number(entry['value']):>12}  {entry['unit']:<6}"
                  f"{entry['n']:>8}  {spread}")
        print(f"  {'route':<34}{'n':>7}{'failed':>8}{'p50 ms':>10}{'bytes p50':>11}")
        for route, entry in result["routes"].items():
            print(f"  {route:<34}{entry['n']:>7}{entry['failed']:>8}"
                  f"{_number(entry['p50_ms']):>10}{_number(entry['bytes_p50']):>11}")
        print("  set-up phases: " + ", ".join(
            f"{k} {v:.2f}" for k, v in result.get("phases", {}).items()))
        print(f"  loadgen.cpu_share {result['loadgen_cpu_share']:.3f} "
              "(generator thread CPU / measured interval)")
        if result.get("counters"):
            print("  counters over the window: " + ", ".join(
                f"{k} {v:g}" for k, v in result["counters"].items()))
        if result.get("paced"):
            print(f"  paced phase: {result['paced']}")
        if result.get("checks"):
            print(f"  checks: {json.dumps(result['checks'])}")
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
    if "budget" in result:
        budget = result["budget"]
        print(f"  layer budget over {result['replay']['requests']} requests "
              f"(recorder on; {result['spans']} spans)")
        print(f"  {'layer':<24}{'calls':>8}{'self ms':>11}{'us/request':>12}{'share':>8}")
        for layer, row in budget["rows"].items():
            print(f"  {layer:<24}{row['calls']:>8}{row['self_ms']:>11.2f}"
                  f"{row['self_us_per_request']:>12.1f}{row['share'] * 100:>7.1f}%")
        print(f"  rows sum to {budget['explained_ms']:.1f} ms; the client measured "
              f"{budget['measured_ms']:.1f} ms for the same requests; recorder overhead "
              f"{result['replay']['overhead_pct']:.1f} %")
        print(f"  {'layer metric':<40}{'value':>14}  unit")
        for metric, entry in result["layer_metrics"].items():
            if not metric.startswith("budget."):
                print(f"  {metric:<40}{_number(entry['value']):>14}  {entry['unit']}")


# -- compare ------------------------------------------------------------------


def compare(old_path: str, new_path: str) -> int:
    """One row per (workload, metric): both values, the ratio with its
    base, and a verdict held to the metric's bound in BENCHMARK.json.
    *spread* is the wider of the two runs' slice spreads."""
    spec = workloads.contract()
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for path, report in ((old_path, old), (new_path, new)):
        if report["meta"]["trace"]:
            print(f"not comparable: {path} is a traced run; bounds apply to "
                  "end-to-end runs (--trace 0)")
            return 2
    for key in ("schema", "nproc", "window_s", "warmup_s", "server_flags", "scale"):
        if old["meta"].get(key) != new["meta"].get(key):
            print(f"not comparable: {key} is {old['meta'].get(key)!r} in {old_path} "
                  f"and {new['meta'].get(key)!r} in {new_path}")
            return 2
    print(f"old: {old_path} commit {old['meta']['commit']} seed {old['meta']['seed']}")
    print(f"new: {new_path} commit {new['meta']['commit']} seed {new['meta']['seed']}")
    gated = {m["name"]: m for m in spec["end_to_end"]}
    informational = ("write_p50_ms", "write_tail_ms", "paced_tail_ms",
                     "identifier_p50_ms", "browse_p50_ms")
    olds, news = ({run["workload"]: run for run in r["runs"]} for r in (old, new))
    failures = 0
    print(f"{'workload':<15}{'metric':<18}{'old':>11}{'new':>11}  {'new/old':>8}  "
          f"{'bound':>6}  {'spread':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in olds or workload not in news:
            print(f"{workload:<15}missing from {'old' if workload not in olds else 'new'}")
            failures += 1
            continue
        before, after = olds[workload], news[workload]
        for metric in list(gated) + list(informational):
            if metric not in before["metrics"] or metric not in after["metrics"]:
                continue
            x, y = before["metrics"][metric], after["metrics"][metric]
            a, b = x["value"], y["value"]
            spread = max(
                [e["spread"] for e in (x, y) if e["spread"] is not None], default=None)
            ratio = b / a if a else float("inf")
            rule = gated.get(metric)
            verdict = "(no bound)"
            if rule is not None:
                worse_by = (ratio - 1.0) if rule["better"] == "lower" else (1.0 - ratio)
                if worse_by > rule["bound"]:
                    verdict = "REGRESSION"
                    failures += 1
                elif spread is not None and spread > rule["bound"]:
                    verdict = "unresolved"
                elif -worse_by > rule["bound"]:
                    verdict = "improved"
                else:
                    verdict = "within bound"
            bound = f"{rule['bound'] * 100:.0f} %" if rule else ""
            shown = "" if spread is None else f"{spread * 100:.1f} %"
            print(f"{workload:<15}{metric:<18}{_number(a):>11}{_number(b):>11}  "
                  f"{ratio:>7.3f}x  {bound:>6}  {shown:>7}  {verdict}")
        failed_before = before["failed"] / before["attempted"]
        failed_after = after["failed"] / after["attempted"]
        verdict = "ok"
        if failed_after > failed_before + 0.001:
            verdict = "HIGHER ERROR RATE"
            failures += 1
        print(f"{workload:<15}{'error_rate':<18}{failed_before:>11.5f}{failed_after:>11.5f}"
              f"  {'':>8}  {'+0.001':>6}  {'':>7}  {verdict}")
    return 1 if failures else 0


# -- entry ----------------------------------------------------------------------


def parse(argv) -> argparse.Namespace:
    spec = workloads.contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=names)
    what.add_argument("--all", action="store_true", help="every workload, in order")
    what.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured window per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics and the layer budget table")
    parser.add_argument("--out", help="write the full report (JSON) here")
    parser.add_argument("--smoke", action="store_true",
                        help="2 %% corpus, 2 s windows: checks the harness, not the program")
    parser.add_argument("--work-dir", help="scratch directory (default: .bench_work)")
    args = parser.parse_args(argv)
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    args.warmup = SMOKE_WARMUP if args.smoke else workloads.WARMUP_S
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("bench: this checkout has no src/repro to measure", file=sys.stderr)
        return 2
    args = parse(argv)
    if args.compare:
        return compare(*args.compare)
    spec = workloads.contract()
    names = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
    runs = []
    for name in names:
        result = run_one(name, args.seed, args)
        print_result(result)
        runs.append(result)
    if args.out:
        report = {"meta": meta(args), "runs": runs}
        spans = {f"{r['workload']}/{r['seed']}": r.pop("_spans") for r in runs if "_spans" in r}
        if spans:
            report["spans"] = spans
        for run in runs:
            run.pop("records", None)
        Path(args.out).write_text(json.dumps(report, indent=1))
    correct = all(r["correct"] for r in runs)
    if len(runs) == 1:
        sys.stdout.flush()
        print(driver_line(runs[0], spec, args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
