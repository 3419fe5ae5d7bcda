#!/usr/bin/env python3
"""End-to-end benchmark of TileSpMSpV: builds and drives tilespmspv_benchmark.

Usage (from the repository root):

  python3 benchmark/run_benchmark.py [--seed N] [--seconds S]
      Every workload: 3 untraced rounds of S seconds per process (default
      8; one fresh process per workload, order rotating each round), then
      one traced round. Prints every metric with its unit and sample count;
      writes benchmark/out/result.json and one Chrome trace per workload.

  python3 benchmark/run_benchmark.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is one JSON object with
      keys correct, attempted, failed, metrics: the end-to-end metrics of
      BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).

  python3 benchmark/run_benchmark.py compare BASE.json HEAD.json
      Verdict per workload and end-to-end metric against the BENCHMARK.json
      bounds: better, within, worse, or unresolved when the spread across
      rounds exceeds the bound. Exits 1 on any worse or a higher error rate.

  python3 benchmark/run_benchmark.py smoke [--binary PATH]
      Every workload for about 2 s; fails unless every metric named in
      BENCHMARK.json is produced and no operation failed.

The first use configures and builds benchmark/ with CMake (Release) into
$CARGO_TARGET_DIR/benchmark, default .bench_build/benchmark. Runs write
only under benchmark/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Spans whose self time per op becomes a per-layer metric, named
# trace.<span with "/" -> "_">.self_ms_per_op. "bench/op" is the benchmark's
# own span around one op (a traversal, a multiply cycle, a request).
OP_SPAN = "bench/op"
TRACE_SPANS = [
    OP_SPAN,
    "bfs/iteration",
    "pool/parallel_ranges",
    "pool/task",
    "spmspv/phase1_tiled",
    "spmspv/phase2_side",
    "spmspv/phase3_gather",
]
SETUP_FLOOR_S = 0.005  # compare: set-up changes below 5 ms are noise
ROUNDS = 3  # untraced rounds of the full run
ROUND_SECONDS = 8.0  # default --seconds of one untraced process, full run
TRACE_SECONDS = 6.0  # one traced process per workload, full run
SMOKE_SECONDS = 2.0
RESULT = OUT / "result.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "benchmark"


def build():
    """Configures (once) and builds tilespmspv_benchmark; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "tilespmspv_benchmark"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return bdir / "tilespmspv_benchmark"


def run_workload(binary, workload, seed, seconds, mode):
    """Runs one tilespmspv_benchmark process in a scratch directory under
    benchmark/out and returns its parsed result. The trace a layer or smoke
    pass writes is kept as benchmark/out/trace-<workload>.json."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=workload + "-", dir=OUT))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--pass", mode]
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True)
        trace = work / f"trace-{workload}.json"
        if trace.exists():
            shutil.move(str(trace), str(OUT / trace.name))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: tilespmspv_benchmark exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_rollup(path):
    """Per span name: count, total and self ms over the whole trace, plus
    the same over the window of the benchmark's op spans (what the per-op
    metrics divide). Self time is a span minus its children on the same
    thread; spans on one thread nest, so the children are disjoint."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    ops = [e for e in events if e["name"] == OP_SPAN]
    lo = min((e["ts"] for e in ops), default=0.0)
    hi = max((e["ts"] + e["dur"] for e in ops), default=0.0)
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    child_us = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                parent = id(stack[-1])
                child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
            stack.append(e)
    rows, window = {}, {}
    for e in events:
        self_us = max(0.0, e["dur"] - child_us.get(id(e), 0.0))
        for table, keep in ((rows, True), (window, lo <= e["ts"] <= hi)):
            if keep:
                r = table.setdefault(e["name"], [0, 0.0, 0.0])
                r[0] += 1
                r[1] += e["dur"] / 1e3
                r[2] += self_us / 1e3
    return {
        "ops": len(ops),
        "spans": {k: {"count": c, "total_ms": t, "self_ms": s}
                  for k, (c, t, s) in sorted(rows.items(),
                                             key=lambda kv: -kv[1][2])},
        "window": {k: {"count": c, "total_ms": t, "self_ms": s}
                   for k, (c, t, s) in window.items()},
    }


def trace_metrics(rollup):
    ops = max(1, rollup["ops"])
    out = {}
    for name in TRACE_SPANS:
        row = rollup["window"].get(name, {"self_ms": 0.0})
        key = "trace." + name.replace("/", "_") + ".self_ms_per_op"
        out[key] = {"value": row["self_ms"] / ops, "unit": "ms",
                    "n": rollup["ops"]}
    return out


def layer_result(binary, workload, seed, seconds, mode="layer"):
    """A per-layer run plus its trace rollup, merged into one result."""
    trace = OUT / f"trace-{workload}.json"
    res = run_workload(binary, workload, seed, seconds, mode)
    res["rollup"] = trace_rollup(trace)
    res["metrics"].update(trace_metrics(res["rollup"]))
    res["trace_file"] = str(trace.relative_to(ROOT))
    return res


def select(spec_metrics, got, fill_zero):
    """The named metrics, in BENCHMARK.json order. A per-layer metric of a
    layer the workload does not run reads 0 (fill_zero); a missing
    end-to-end metric is an error."""
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name in got:
            out[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif fill_zero:
            out[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise RuntimeError(f"tilespmspv_benchmark did not report {name}")
    return out


def fmt_row(workload, name, value, unit, n, extra=""):
    return f"  {workload:<13} {name:<42} {value:>14.6g} {unit:<8} n={n}{extra}"


def cmd_single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload}; one of {names}")
    binary = build()
    if args.trace:
        res = layer_result(binary, args.workload, args.seed, args.seconds)
    else:
        res = run_workload(binary, args.workload, args.seed, args.seconds,
                           "e2e")
    metrics = select(spec["per_layer" if args.trace else "end_to_end"],
                     res["metrics"], fill_zero=bool(args.trace))
    for name, m in metrics.items():
        n = res["metrics"].get(name, {}).get("n", 0)
        print(fmt_row(args.workload, name, m["value"], m["unit"], n))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def spread(values):
    """Distance between the smallest and largest round, over the median."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def pct(samples, p):
    """Percentile with linear interpolation, as util/stats.hpp computes it."""
    xs = sorted(samples)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def cmd_all(args, spec):
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    t0 = time.time()
    rounds = []
    for r in range(ROUNDS):
        k = r % len(workloads)
        order = workloads[k:] + workloads[:k]
        log(f"round {r + 1}/{ROUNDS}: {', '.join(order)}")
        for w in order:
            rounds.append(run_workload(binary, w, args.seed, args.seconds,
                                       "e2e"))
    log("traced round")
    traced = {w: layer_result(binary, w, args.seed, TRACE_SECONDS)
              for w in workloads}

    summary = {}
    for w in workloads:
        runs = [x for x in rounds if x["workload"] == w]
        pooled = [s for x in runs for s in x["samples_ms"]]
        attempted = sum(x["attempted"] for x in runs) + traced[w]["attempted"]
        failed = sum(x["failed"] for x in runs) + traced[w]["failed"]
        rows = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            per_round = [x["metrics"][name]["value"] for x in runs]
            if name in ("op_ms_p50", "op_ms_p90"):
                value = pct(pooled, 50.0 if name == "op_ms_p50" else 90.0)
                n = len(pooled)
            else:
                value = statistics.median(per_round)
                n = sum(x["metrics"][name]["n"] for x in runs)
            rows[name] = {"value": value, "unit": m["unit"], "n": n,
                          "rounds": per_round, "spread": spread(per_round)}
        rows["error_rate"] = {"value": failed / attempted if attempted else 1.0,
                              "unit": "ratio", "n": attempted}
        layer = select(spec["per_layer"], traced[w]["metrics"], fill_zero=True)
        summary[w] = {"end_to_end": rows, "per_layer": layer,
                      "notes": traced[w]["notes"],
                      "trace_file": traced[w]["trace_file"],
                      "spans": traced[w]["rollup"]["spans"]}

    print("end-to-end (untraced rounds; spread = (max - min) / median "
          "across rounds)")
    for w in workloads:
        for name, m in summary[w]["end_to_end"].items():
            extra = (f"  spread={m['spread']:.3f}" if "spread" in m else "")
            print(fmt_row(w, name, m["value"], m["unit"], m["n"], extra))
    print("per-layer (traced round; 0 = layer not run by the workload)")
    for w in workloads:
        for name, m in summary[w]["per_layer"].items():
            if m["value"] != 0.0:
                n = traced[w]["metrics"].get(name, {}).get("n", 0)
                print(fmt_row(w, name, m["value"], m["unit"], n))
        for note, why in summary[w]["notes"].items():
            print(f"  {w:<13} NOTE {note}: {why}")
    print("spans (traced round; top 8 by self time)")
    for w in workloads:
        for name, r in list(summary[w]["spans"].items())[:8]:
            print(f"  {w:<13} {name:<28} count={r['count']:<8} "
                  f"total={r['total_ms']:10.3f} ms self={r['self_ms']:10.3f} ms")

    result = {"seed": args.seed, "rounds": ROUNDS,
              "seconds": args.seconds, "trace_seconds": TRACE_SECONDS,
              "wall_s": time.time() - t0, "workloads": summary}
    RESULT.write_text(json.dumps(result, indent=1) + "\n")
    errors = sum(summary[w]["end_to_end"]["error_rate"]["value"] > 0
                 for w in workloads)
    log(f"wrote {RESULT.relative_to(ROOT)} in {result['wall_s']:.0f} s; "
        f"error_rate > 0 on {errors} workload(s)")
    return 1 if errors else 0


def verdict(m, base, head):
    """better / within / worse / unresolved for one metric."""
    b, h = base["value"], head["value"]
    sign = 1.0 if m["better"] == "lower" else -1.0
    worse_by = sign * (h - b) / b if b else 0.0
    if m["name"] == "setup_s" and abs(h - b) < SETUP_FLOOR_S:
        return worse_by, "within"
    if max(base["spread"], head["spread"]) > m["bound"]:
        # Unresolved unless every head round beats every base round.
        if m["better"] == "lower":
            clear = max(head["rounds"]) < min(base["rounds"])
        else:
            clear = min(head["rounds"]) > max(base["rounds"])
        return worse_by, "better" if clear else "unresolved"
    if worse_by > m["bound"]:
        return worse_by, "worse"
    if worse_by < -m["bound"]:
        return worse_by, "better"
    return worse_by, "within"


def cmd_compare(args, spec):
    base = json.loads(Path(args.base).read_text())["workloads"]
    head = json.loads(Path(args.head).read_text())["workloads"]
    failed = False
    print(f"  {'workload':<13} {'metric':<12} {'base':>12} {'head':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in head:
            print(f"  {w:<13} missing from {'base' if w not in base else 'head'}")
            failed = True
            continue
        for m in spec["end_to_end"]:
            bm = base[w]["end_to_end"][m["name"]]
            hm = head[w]["end_to_end"][m["name"]]
            worse_by, v = verdict(m, bm, hm)
            failed |= v == "worse"
            print(f"  {w:<13} {m['name']:<12} {bm['value']:>12.6g} "
                  f"{hm['value']:>12.6g} {worse_by:>+9.3f} {m['bound']:>6.2f}"
                  f"  {v}")
        be = base[w]["end_to_end"]["error_rate"]["value"]
        he = head[w]["end_to_end"]["error_rate"]["value"]
        v = "worse" if he > be else "within"
        failed |= he > be
        print(f"  {w:<13} {'error_rate':<12} {be:>12.6g} {he:>12.6g} "
              f"{'':>9} {'0':>6}  {v}")
    return 1 if failed else 0


def cmd_smoke(args, spec):
    binary = Path(args.binary) if args.binary else build()
    problems, produced = [], set()
    for w in [x["name"] for x in spec["workloads"]]:
        res = layer_result(binary, w, 1, SMOKE_SECONDS, mode="smoke")
        got = res["metrics"]
        produced |= set(got)
        for m in spec["end_to_end"]:
            if m["name"] not in got:
                problems.append(f"{w}: no {m['name']}")
            elif got[m["name"]]["unit"] != m["unit"]:
                problems.append(f"{w}: {m['name']} unit {got[m['name']]['unit']}")
            elif not got[m["name"]]["value"] > 0:
                problems.append(f"{w}: {m['name']} is not > 0")
        if res["failed"] or not res["attempted"]:
            problems.append(f"{w}: {res['failed']} of {res['attempted']} ops "
                            "failed")
        log(f"smoke {w}: {len(got)} metrics, {res['attempted']} ops, "
            f"{res['failed']} failed")
    for m in spec["per_layer"]:
        if m["name"] not in produced:
            problems.append(f"no workload reports {m['name']}")
    for p in problems:
        print("FAIL", p)
    print("benchmark_smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    spec = load_spec()
    cmd = argv[0] if argv and not argv[0].startswith("-") else "run"
    p = argparse.ArgumentParser(prog="run_benchmark.py")
    if cmd == "compare":
        p.add_argument("base")
        p.add_argument("head")
        return cmd_compare(p.parse_args(argv[1:]), spec)
    if cmd == "smoke":
        p.add_argument("--binary")
        return cmd_smoke(p.parse_args(argv[1:]), spec)
    if cmd != "run":
        p.error(f"unknown command {cmd}")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv[1:] if argv and argv[0] == "run" else argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return cmd_single(args, spec)
    if args.seconds is None:
        args.seconds = ROUND_SECONDS
    return cmd_all(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"run_benchmark: {e}")
        sys.exit(1)
