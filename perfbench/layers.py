"""Per-layer metrics of a traced run, measured from outside the server.

Three sources, none of which adds instrumentation to the program:

* server spans of sampled requests (``GET /v1/trace/<id>``);
* deltas of ``GET /v1/stats`` counters across the traced window, and the
  per-phase ``CampaignResponse.profile`` of each campaign;
* in-process replays of a layer's public functions on the run's own
  recorded inputs (codec, batch solve, journal, wire encode).

Every workload reports every layer metric; a layer the workload does not
exercise did no work and reads 0.
"""

from __future__ import annotations

import http.client
import json
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.service.batcher import EngineRegistry, solve_batch
from repro.service.requests import AllocationRequest
from repro.service.shard import shard_cells
from repro.service.store import CampaignStore
from repro.simulation.fleet import FleetResult
from workloads import CALL_TIMEOUT_S

#: (metric, unit, better, the end-to-end metric and workload it should move).
LAYERS = [
    ("client.outside_span_ms", "ms", "lower",
     "call_p50_ms and alloc_per_s on alloc-hit and alloc-miss; little on campaign-*"),
    ("server.http_span_ms", "ms", "lower", "call_p50_ms on alloc-hit and alloc-miss"),
    ("server.wait_ms", "ms", "lower",
     "call_p50_ms on alloc-miss and alloc-burst (bursts wait the window too); 0 on alloc-hit"),
    ("batcher.solve_ms", "ms", "lower", "call_p50_ms on alloc-burst"),
    ("batcher.mean_batch_size", "count", "higher", "coalescing on alloc-miss; alloc_per_s on alloc-burst"),
    ("batcher.batches", "count", "higher", "alloc_per_s on alloc-miss and alloc-burst"),
    ("cache.hit_ratio", "1", "higher", "explains alloc_per_s on alloc-hit versus alloc-miss"),
    ("cache.evictions", "count", "lower", "alloc_per_s on alloc-hit"),
    ("pool.busy_ratio", "1", "lower", "alloc_per_s on alloc-burst"),
    ("pool.tasks", "count", "higher", "alloc_per_s on alloc-burst"),
    ("requests.decode_us", "us", "lower", "alloc_per_s and call_p50_ms on alloc-burst"),
    ("requests.encode_us", "us", "lower", "alloc_per_s and call_p50_ms on alloc-burst"),
    ("batch.solve_us", "us", "lower", "alloc_per_s on alloc-burst; almost nothing on alloc-miss"),
    ("fleet.harvest_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("fleet.cell_solve_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("fleet.scan_settle_s", "s", "lower", "call_p50_ms on campaign-plan, where it dominates"),
    ("fleet.merge_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("shard.context_publish_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("shard.arena_pack_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("shard.arena_attach_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("campaign.run_s", "s", "lower", "call_p50_ms on campaign-fleet and campaign-plan"),
    ("campaign.sched_gap_s", "s", "lower", "call_p50_ms on campaign-fleet and campaign-plan"),
    ("store.submit_ack_ms", "ms", "lower", "call_p50_ms on campaign-fleet and campaign-plan"),
    ("store.append_bytes", "B", "lower", "call_p50_ms on campaign-fleet"),
    ("store.appends.submit", "count", "lower", "call_p50_ms on campaign-fleet"),
    ("store.appends.lease_acquire", "count", "lower", "call_p50_ms on campaign-fleet"),
    ("store.appends.start", "count", "lower", "call_p50_ms on campaign-fleet"),
    ("store.appends.shard_done", "count", "lower", "call_p50_ms on campaign-fleet"),
    ("store.appends.finish", "count", "lower", "call_p50_ms on campaign-fleet"),
    ("store.appends.delete", "count", "lower", "call_p50_ms on campaign-fleet"),
    ("store.shard_done_ms", "ms", "lower", "call_p50_ms on campaign-fleet"),
    ("store.load_result_s", "s", "lower", "call_p50_ms on campaign-fleet"),
    ("wire.fetch_s", "s", "lower", "call_p50_ms on campaign-fleet (binary) and campaign-plan (NDJSON)"),
    ("wire.bytes", "B", "lower", "call_p50_ms on campaign-fleet and campaign-plan"),
    ("wire.decode_s", "s", "lower", "call_p50_ms on campaign-fleet and campaign-plan"),
    ("wire.encode_s", "s", "lower", "call_p50_ms on campaign-fleet and campaign-plan"),
    ("trace.samples", "count", "higher", "none: how many server traces the run sampled"),
    ("trace.overhead_ratio", "1", "lower",
     "none: traced over untraced call_p50_ms, the cost of sampling traces"),
]

#: Campaign profile phase of each ``fleet.*`` / ``shard.*`` metric.
_PHASES = {
    "fleet.harvest_s": "harvest",
    "fleet.cell_solve_s": "cell_solve",
    "fleet.scan_settle_s": "scan_settle",
    "fleet.merge_s": "merge",
    "shard.context_publish_s": "context_publish",
    "shard.arena_pack_s": "arena_pack",
    "shard.arena_attach_s": "arena_attach",
}
#: Largest number of recorded calls replayed in process.
REPLAY_CALLS = 256
#: Campaign workers of the server under test (``--workers 2``).
CAMPAIGN_WORKERS = 2


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _span_ms(spans: List[Dict[str, Any]], name: str) -> float:
    return sum(span["duration_ms"] for span in spans if span["name"] == name)


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any], *path: str) -> float:
    for key in path[:-1]:
        before, after = before.get(key, {}), after.get(key, {})
    return float(after.get(path[-1], 0)) - float(before.get(path[-1], 0))


def span_metrics(done, campaign: bool) -> Dict[str, float]:
    """Client/server split of the sampled requests, from their server spans."""
    outside, http_spans, waits, solves = [], [], [], []
    for call in done:
        if call.spans is None:
            continue
        http_ms = _span_ms(call.spans, "http.request")
        solve_ms = _span_ms(call.spans, "batcher.solve")
        client_ms = 1000.0 * (call.detail["submit_ack_s"] if campaign else call.latency_s)
        outside.append(client_ms - http_ms)
        http_spans.append(http_ms)
        if solve_ms > 0:
            waits.append(http_ms - solve_ms)
            solves.append(solve_ms)
    return {
        "client.outside_span_ms": _median(outside),
        "server.http_span_ms": _median(http_spans),
        "server.wait_ms": _median(waits),
        "batcher.solve_ms": _median(solves),
        "trace.samples": float(len(http_spans)),
    }


def stats_metrics(before, after, wall_s: float, campaigns: int) -> Dict[str, float]:
    """``/v1/stats`` counter deltas across the traced window."""
    requests = _stats_delta(before, after, "batcher", "requests")
    batches = _stats_delta(before, after, "batcher", "batches")
    lookups = _stats_delta(before, after, "cache", "lookups")
    metrics = {
        "batcher.mean_batch_size": requests / batches if batches else 0.0,
        "batcher.batches": batches,
        "cache.hit_ratio": _stats_delta(before, after, "cache", "hits") / lookups
        if lookups else 0.0,
        "cache.evictions": _stats_delta(before, after, "cache", "evictions"),
        "pool.busy_ratio": _stats_delta(before, after, "pool", "busy_ms") / (1000.0 * wall_s),
        "pool.tasks": _stats_delta(before, after, "pool", "tasks"),
    }
    per_campaign = 1.0 / campaigns if campaigns else 0.0
    metrics["store.append_bytes"] = (
        _stats_delta(before, after, "store", "append_bytes") * per_campaign
    )
    for kind in ("submit", "lease_acquire", "start", "shard_done", "finish", "delete"):
        metrics[f"store.appends.{kind}"] = (
            _stats_delta(before, after, "store", "appends", kind) * per_campaign
        )
    return metrics


def campaign_metrics(done) -> Dict[str, float]:
    """Phase profile and client timings, medians over the traced campaigns."""
    metrics = {
        name: _median([call.detail["profile"].get(phase, 0.0) for call in done])
        for name, phase in _PHASES.items()
    }
    metrics["campaign.run_s"] = _median([call.detail["run_s"] for call in done])
    metrics["campaign.sched_gap_s"] = _median([
        call.detail["run_s"]
        - sum(call.detail["profile"].values()) / CAMPAIGN_WORKERS
        for call in done
    ])
    metrics["store.submit_ack_ms"] = _median(
        [1000.0 * call.detail["submit_ack_s"] for call in done]
    )
    for metric, key in (("wire.fetch_s", "fetch_s"), ("wire.bytes", "wire_bytes"),
                        ("wire.decode_s", "decode_s")):
        metrics[metric] = _median([call.detail[key] for call in done if key in call.detail])
    return metrics


def fetch_ndjson(port: int, campaign_id: str) -> Dict[str, float]:
    """Time the NDJSON columns stream and its decode separately."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=CALL_TIMEOUT_S)
    started = time.perf_counter()
    try:
        connection.request("GET", f"/v1/campaign/{campaign_id}/columns")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise http.client.HTTPException(f"columns answered {response.status}")
    finally:
        connection.close()
    fetched = time.perf_counter()
    payloads = (json.loads(line) for line in body.splitlines() if line.strip())
    FleetResult.from_payloads(next(payloads), payloads)
    return {
        "fetch_s": fetched - started,
        "wire_bytes": len(body),
        "decode_s": time.perf_counter() - fetched,
    }


def replay_allocations(done) -> Dict[str, float]:
    """Per-allocation codec and batch-solve cost, replayed in process."""
    replayed = done[:REPLAY_CALLS]
    allocations = sum(len(call.requests) for call in replayed)
    if not allocations:
        return {"requests.decode_us": 0.0, "requests.encode_us": 0.0, "batch.solve_us": 0.0}
    bodies = [[request.to_json_dict() for request in call.requests] for call in replayed]
    started = time.perf_counter()
    for body in bodies:
        for payload in body:
            AllocationRequest.from_json_dict(payload)
    decode_s = time.perf_counter() - started

    started = time.perf_counter()
    for call in replayed:
        if len(call.replies) == 1:
            json.dumps(call.replies[0].to_json_dict())
        else:
            json.dumps({"responses": [reply.to_json_dict() for reply in call.replies]})
    encode_s = time.perf_counter() - started

    registry = EngineRegistry()
    solve_batch(replayed[0].requests, registry)  # build the engine untimed
    started = time.perf_counter()
    for call in replayed:
        solve_batch(call.requests, registry)
    solve_s = time.perf_counter() - started
    scale = 1e6 / allocations
    return {
        "requests.decode_us": decode_s * scale,
        "requests.encode_us": encode_s * scale,
        "batch.solve_us": solve_s * scale,
    }


def replay_store(kept, shards: int, workdir: Path) -> Dict[str, float]:
    """Journal one decoded campaign into a temp store and load it back."""
    request, result = kept.requests[0], kept.replies[0]
    chunks = shard_cells(result.num_scenarios, result.num_policies, max(1, shards))
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        with CampaignStore(str(Path(scratch) / "replay.db")) as store:
            job_id, _ = store.submit(request)
            store.start(job_id, result.trace_hours)
            shard_ms = []
            for chunk in chunks:
                cells = [(s, p, result.result(p, s)) for s, p in chunk]
                started = time.perf_counter()
                store.shard_done(job_id, cells)
                shard_ms.append(1000.0 * (time.perf_counter() - started))
            store.finish(job_id, result)
            started = time.perf_counter()
            store.load_result(job_id)
            load_s = time.perf_counter() - started
    return {"store.shard_done_ms": _median(shard_ms), "store.load_result_s": load_s}


def replay_wire_encode(kept, binary: bool) -> float:
    """Seconds to encode one decoded campaign as the server's column stream."""
    result = kept.replies[0]
    started = time.perf_counter()
    if binary:
        b"".join(result.to_binary_frames(dtype="<f8", compress=True))
    else:
        json.dumps(result.meta_payload())
        for payload in result.cell_payloads():
            json.dumps(payload)
    return time.perf_counter() - started


def layer_metrics(
    workload: str,
    untraced,
    traced,
    stats_before: Dict[str, Any],
    stats_after: Dict[str, Any],
    workdir: Path,
) -> Dict[str, float]:
    """Every metric in :data:`LAYERS` for one traced run."""
    campaign = workload.startswith("campaign")
    done = traced.ok
    metrics = {name: 0.0 for name, *_ in LAYERS}
    metrics.update(span_metrics(done, campaign))
    metrics.update(stats_metrics(stats_before, stats_after, traced.wall_s,
                                 len(done) if campaign else 0))
    untraced_p50 = _median([call.latency_s for call in untraced.ok])
    traced_p50 = _median([call.latency_s for call in done])
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 if untraced_p50 else 0.0
    if campaign:
        metrics.update(campaign_metrics(done))
        if traced.kept is not None:
            shards = round(metrics["store.appends.shard_done"])
            metrics.update(replay_store(traced.kept, shards, workdir))
            metrics["wire.encode_s"] = replay_wire_encode(
                traced.kept, binary=workload == "campaign-fleet"
            )
    else:
        metrics.update(replay_allocations(done))
    return metrics


def hit_count_note(window, stats_before, stats_after) -> str:
    """Cross-check the server's cache-hit count against the allocation replies."""
    client_hits = sum(1 for call in window.ok for reply in call.replies if reply.cache_hit)
    server_hits = _stats_delta(stats_before, stats_after, "cache", "hits")
    return f"; cache hits: server {server_hits:.0f}, replies {client_hits}"
