"""One benchmark run: spawn the server, drive a workload, check, report.

See ``run.py`` for the command line.  The end-to-end metrics
(:data:`END_TO_END`) are the same four on every workload, so each run
reports all of them; the figures each product is usually quoted by
(hit and miss p50, burst p95, campaign p50, cell-periods/s) are printed
beside them with their sample counts.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import random
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Tuple

import numpy

import checks
import layers
import workloads as wl
from repro.service.client import AllocationClient
from repro.service.requests import AllocationRequest, CampaignRequest
from server import ServerProcess

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> why it was chosen (also the ``why`` in BENCHMARK.json).
WORKLOADS = {
    "alloc-hit": "2 callers, POST /v1/allocate on a warmed 32-key hot set: every call "
                 "is a cache hit, so the fixed HTTP cost (new connection, parse, encode, "
                 "write) dominates",
    "alloc-miss": "2 callers, fresh budgets incl. infeasible and saturated, alpha 1 or 2: "
                  "every call is solved and waits the 2 ms coalescing window; batcher "
                  "changes move it, not alloc-hit",
    "alloc-burst": "1 caller, 256 fresh mixed-alpha requests per POST /v1/allocate/batch: "
                   "HTTP is amortised; JSON codec, batcher grouping, pool slicing and the "
                   "grid solve dominate",
    "campaign-fleet": "Sequential 256-cell 720 h campaigns, REAP+DP1/3/5 at 2 alphas, "
                      "fetched as zlib binary: harvest, scan/settle, cell solve, shard "
                      "transport, journal, wire",
    "campaign-plan": "Sequential 48-cell 720 h campaigns with horizon and MPC planners, "
                     "fetched as NDJSON: planning inside scan_settle dominates; drives the "
                     "second column encoding",
}
#: (metric, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("server_peak_rss_mb", "MiB", "lower"),
    ("alloc_per_s", "1/s", "higher"),
    ("call_p50_ms", "ms", "lower"),
]
#: Server spawns timed per run; the last one serves the workload.
SETUP_SPAWNS = 5
#: Every n-th call of a traced window fetches its server trace.
SAMPLE_EVERY = {
    "alloc-hit": 8, "alloc-miss": 8, "alloc-burst": 2,
    "campaign-fleet": 1, "campaign-plan": 1,
}


def _tail(latencies_ms: List[float]) -> Tuple[str, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if len(latencies_ms) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
            return f"p{q}", cuts[q - 1]
    return "max", max(latencies_ms)


def fingerprint() -> Dict[str, str]:
    """The machine and code this run measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "yes" if importlib.util.find_spec("numba") else "no",
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def _warm(workload: str, client, hot) -> None:
    """Fill caches and finish lazy set-up before timing starts."""
    if workload == "alloc-hit":
        for request in hot:
            client.allocate(request)
    elif workload.startswith("alloc"):
        # Builds the engine; these budgets lie outside every timed range.
        client.allocate_batch([
            AllocationRequest(energy_budget_j=100.0 + i, alpha=alpha)
            for i, alpha in enumerate((0.5, 1.0, 2.0, 4.0))
        ])
    else:
        # Starts the campaign worker processes; its seed is never drawn.
        request = CampaignRequest(exposure_factors=(0.032, 0.05), hours=24, seed=0,
                                  planners=("horizon", "mpc")
                                  if workload == "campaign-plan" else ())
        status = client.submit_campaign(request)
        client.wait_for_campaign(status.campaign_id, poll_s=0.01)
        client.delete_campaign(status.campaign_id)


def _window(workload: str, port: int, seconds: float, traced: bool,
            sources, keep_rng: random.Random):
    sample_every = SAMPLE_EVERY[workload] if traced else 0
    if workload in ("alloc-hit", "alloc-miss"):
        return wl.run_alloc_single(port, sources, seconds, sample_every)
    if workload == "alloc-burst":
        return wl.run_alloc_burst(port, sources[0], seconds, sample_every)
    binary = workload == "campaign-fleet"
    after = None
    if traced and not binary:
        def after(client, call):
            call.detail.update(layers.fetch_ndjson(port, call.detail["campaign_id"]))
    return wl.run_campaigns(port, sources[0], seconds, binary, traced, keep_rng, after)


def _sources(workload: str, seed: int):
    """Per-caller request sources, all drawn from the workload seed."""
    if workload.startswith("campaign"):
        return [wl.fleet_requests(seed, workload)], []
    used = wl.UsedKeys()
    if workload == "alloc-hit":
        hot_source = wl.FreshBudgets(random.Random(f"{seed}:hot"), (1.0, 2.0), used)
        hot = [hot_source() for _ in range(wl.HOT_SET_SIZE)]
        pickers = [random.Random(f"{seed}:pick:{c}") for c in range(wl.CALLERS_SINGLE)]
        return [lambda rng=rng: rng.choice(hot) for rng in pickers], hot
    if workload == "alloc-miss":
        return [
            wl.FreshBudgets(random.Random(f"{seed}:miss:{c}"), (1.0, 2.0), used)
            for c in range(wl.CALLERS_SINGLE)
        ], []
    return [wl.FreshBudgets(random.Random(f"{seed}:burst"), (0.5, 1.0, 2.0, 4.0), used)], []


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> Tuple[dict, List[str]]:
    """One benchmark run; returns the result object and the report lines."""
    lines = [f"# workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(traced)}",
             f"# why: {WORKLOADS[workload]}"]
    setup_times = []
    server = None
    try:
        for spawn in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server = ServerProcess(ROOT, workdir / f"server-{spawn}")
            setup_times.append(server.start())
        client = AllocationClient(port=server.port, timeout_s=wl.CALL_TIMEOUT_S)
        sources, hot = _sources(workload, seed)
        _warm(workload, client, hot)
        keep_rng = random.Random(f"{seed}:keep")
        if traced:
            untraced = _window(workload, server.port, seconds / 2, False,
                               sources, keep_rng)
            stats_before = client.stats()
            window = _window(workload, server.port, seconds / 2, True,
                             sources, keep_rng)
            stats_after = client.stats()
        else:
            window = _window(workload, server.port, seconds, False, sources, keep_rng)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # The end-to-end figures come from untraced calls only.
    measured = untraced if traced else window
    windows = [untraced, window] if traced else [window]
    calls = [call for part in windows for call in part.calls]
    wrong = checks.wrong_calls(
        workload, calls, [part.kept for part in windows if part.kept], seed
    )
    failed = {i for i, call in enumerate(calls) if call.error is not None} | wrong
    values = end_to_end(workload, measured, setup_times, peak_rss_mb)

    lines += [f"# {key}: {value}" for key, value in fingerprint().items()]
    lines += _report(workload, measured, values, failed, calls, setup_times)
    if traced:
        metrics = layers.layer_metrics(workload, untraced, window, stats_before,
                                       stats_after, workdir)
        note = "" if workload.startswith("campaign") else layers.hit_count_note(
            window, stats_before, stats_after)
        lines.append(f"# per-layer (traced half: {len(window.calls)} calls, "
                     f"{metrics['trace.samples']:.0f} sampled traces; "
                     f"overhead ratio {metrics['trace.overhead_ratio']:.3f}){note}")
        for name, unit, _, moves in layers.LAYERS:
            lines.append(f"  {name:30s} {metrics[name]:14.6g} {unit:6s} moves: {moves}")
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit, *_ in layers.LAYERS}
    else:
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit, _ in END_TO_END}
    if wrong:
        lines.append(f"# WRONG ANSWERS in {len(wrong)} calls")
    result = {
        "correct": not wrong,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": result_metrics,
    }
    return result, lines


def end_to_end(workload: str, window, setup_times, peak_rss_mb) -> Dict[str, float]:
    """The :data:`END_TO_END` metrics of one window.

    ``alloc_per_s`` counts allocation decisions answered: single calls,
    requests inside each burst, or for a campaign its cells x hours (each
    cell-period is one allocation decision of that cell's policy).
    """
    ok = window.ok
    if workload.startswith("campaign"):
        answered = sum(call.detail["cells"] * call.detail["trace_hours"] for call in ok)
    else:
        answered = sum(len(call.requests) for call in ok)
    latencies_ms = [1000.0 * call.latency_s for call in ok]
    return {
        "setup_s": statistics.median(setup_times),
        "server_peak_rss_mb": peak_rss_mb,
        "alloc_per_s": answered / window.wall_s,
        "call_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
    }


def _report(workload, window, values, failed, calls, setup_times) -> List[str]:
    """The end-to-end figures by product, and the counts beside them."""
    ok = window.ok
    latencies_ms = [1000.0 * call.latency_s for call in ok]
    lines = [
        f"  setup_s            {values['setup_s']:.4f} s (median of "
        f"{len(setup_times)} spawns: " + " ".join(f"{t:.3f}" for t in setup_times) + ")",
        f"  server_peak_rss_mb {values['server_peak_rss_mb']:.1f} MiB",
        f"  error_ratio        {len(failed) / max(1, len(calls)):.6f} 1 "
        f"(sent {len(calls)}, succeeded {len(calls) - len(failed)}, failed {len(failed)})",
        f"  alloc_per_s        {values['alloc_per_s']:.2f} 1/s",
    ]
    if not latencies_ms:
        return lines
    p50 = values["call_p50_ms"]
    tail_name, tail = _tail(latencies_ms)
    beyond = sum(1 for value in latencies_ms if value > tail)
    if workload.startswith("alloc"):
        replies = [reply for call in ok for reply in call.replies]
        solved = [reply.batch_size for reply in replies if not reply.cache_hit]
        name = {"alloc-hit": "hit", "alloc-miss": "miss", "alloc-burst": "burst"}[workload]
        tail_label = f"{'burst' if workload == 'alloc-burst' else 'alloc'}_{tail_name}_ms"
        lines += [
            f"  {name + '_p50_ms':18s} {p50:.4f} ms (n={len(latencies_ms)})",
            f"  {tail_label:18s} {tail:.4f} ms (n={len(latencies_ms)}, {beyond} beyond)",
            f"  hit share {1 - len(solved) / len(replies):.4f}; mean batch size of "
            f"solved replies {statistics.mean(solved) if solved else 0.0:.2f}",
        ]
    else:
        rates = [call.detail["cells"] * call.detail["trace_hours"] / call.latency_s
                 for call in ok]
        wire = [call.detail["wire_bytes"] for call in ok if "wire_bytes" in call.detail]
        polls = statistics.mean(call.detail["polls"] for call in ok)
        lines += [
            f"  campaign_p50_s     {p50 / 1000.0:.4f} s (n={len(latencies_ms)}, "
            f"{tail_name} {tail / 1000.0:.4f} s)",
            f"  cell_periods_per_s {statistics.median(rates):.1f} 1/s",
            f"  cells per campaign {ok[0].detail['cells']}; wire bytes "
            + (f"{statistics.median(wire):.0f}" if wire else "(traced runs only)")
            + f"; status polls per campaign {polls:.1f} at {1000 * wl.POLL_S:g} ms",
        ]
    return lines
