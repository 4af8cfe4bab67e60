"""Seeded inputs and closed-loop callers for the benchmark's workloads.

Every input is drawn from the workload seed; the server only ever sees the
generated requests.  Fresh budgets and campaign trace seeds never repeat
within a run, so a "miss" or a campaign can never be answered from an
earlier result.  All callers are closed loop (each waits for its reply
before sending the next request) and use the public
:class:`~repro.service.client.AllocationClient`, one new connection per
call, exactly as users do.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.batch import BatchAllocator
from repro.data.table2 import table2_design_points
from repro.service.client import AllocationClient, ServiceError
from repro.service.requests import AllocationRequest, CampaignRequest
from repro.simulation.fleet import FleetResult

#: What a failed call can raise; each one counts as a failed operation.
CALL_ERRORS = (ServiceError, OSError, http.client.HTTPException, ValueError, KeyError)
#: Client-side deadline of one call.
CALL_TIMEOUT_S = 60.0
#: Interval of the campaign status poll.
POLL_S = 0.010

CALLERS_SINGLE = 2
HOT_SET_SIZE = 32
BURST_SIZE = 256
FLEET_FACTORS = 32
PLAN_FACTORS = 4
CAMPAIGN_HOURS = 720


@dataclass
class Call:
    """One timed operation: a request (or burst, or campaign) and its outcome."""

    latency_s: float
    requests: Sequence[Any]
    replies: Optional[Sequence[Any]] = None
    error: Optional[str] = None
    #: Server spans of the call's request (traced runs, sampled calls only).
    spans: Optional[List[Dict[str, Any]]] = None
    #: Campaign timings and counts (campaign workloads only).
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Window:
    """The calls of one timed window and its wall-clock length."""

    calls: List[Call]
    wall_s: float
    #: Campaign workloads keep one decoded result, chosen by the seed.
    kept: Optional[Call] = None

    @property
    def ok(self) -> List[Call]:
        """The calls that got an answer (correct or not)."""
        return [call for call in self.calls if call.error is None]


# --- seeded inputs ------------------------------------------------------------
class UsedKeys:
    """The (budget, alpha) keys a run has already sent, shared by its callers."""

    def __init__(self) -> None:
        self._keys: Set[tuple] = set()
        self._lock = threading.Lock()

    def claim(self, key: tuple) -> bool:
        """Record ``key``; False when it was sent before."""
        with self._lock:
            if key in self._keys:
                return False
            self._keys.add(key)
            return True


class FreshBudgets:
    """Allocation requests whose (budget, alpha) never repeats within a run.

    Budgets come from a continuous range that spans infeasible (below the
    off-state floor) through saturated (above the useful maximum) budgets.
    """

    def __init__(self, rng: random.Random, alphas: Sequence[float], used: UsedKeys) -> None:
        engine = BatchAllocator(table2_design_points())
        self.low = 0.5 * engine.min_required_energy_j
        self.high = 1.2 * engine.max_useful_energy_j
        self.rng = rng
        self.alphas = tuple(alphas)
        self.used = used

    def __call__(self) -> AllocationRequest:
        while True:
            key = (self.rng.uniform(self.low, self.high), self.rng.choice(self.alphas))
            if self.used.claim(key):
                return AllocationRequest(energy_budget_j=key[0], alpha=key[1])


def fleet_requests(seed: int, workload: str) -> Callable[[], CampaignRequest]:
    """Campaign requests of one run: fixed grid, a fresh trace seed each call."""
    rng = random.Random(f"{seed}:{workload}:campaign")
    plan = workload == "campaign-plan"
    factors = tuple(sorted(
        rng.uniform(0.016, 0.064)
        for _ in range(PLAN_FACTORS if plan else FLEET_FACTORS)
    ))
    used: Set[int] = set()

    def next_request() -> CampaignRequest:
        trace_seed = rng.randrange(1, 2**31)
        while trace_seed in used:
            trace_seed = rng.randrange(1, 2**31)
        used.add(trace_seed)
        return CampaignRequest(
            alphas=(1.0, 2.0),
            baselines=("DP1", "DP3", "DP5"),
            exposure_factors=factors,
            hours=CAMPAIGN_HOURS,
            seed=trace_seed,
            planners=("horizon", "mpc") if plan else (),
        )

    return next_request


# --- closed-loop callers ------------------------------------------------------
def _run_callers(
    callers: Sequence[Callable[[float, List[Call]], None]], seconds: float
) -> Window:
    """Run closed-loop callers in threads (one per caller) for ``seconds``."""
    calls: List[List[Call]] = [[] for _ in callers]
    barrier = threading.Barrier(len(callers) + 1)
    errors: List[BaseException] = []

    def body(caller, out):
        barrier.wait()
        try:
            caller(deadline, out)
        except BaseException as error:  # surfaced after the join below
            errors.append(error)
            raise

    threads = [
        threading.Thread(target=body, args=(caller, out), daemon=True)
        for caller, out in zip(callers, calls)
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline = started + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return Window([call for out in calls for call in out], wall)


def _caller(
    port: int,
    draw: Callable[[], List[AllocationRequest]],
    send: Callable[[AllocationClient, List[AllocationRequest]], Sequence[Any]],
    sample_every: int,
) -> Callable[[float, List[Call]], None]:
    """One closed-loop caller; fetches every n-th call's server trace if n > 0."""

    def run(deadline: float, out: List[Call]) -> None:
        client = AllocationClient(port=port, timeout_s=CALL_TIMEOUT_S)
        while time.perf_counter() < deadline:
            requests = draw()
            started = time.perf_counter()
            try:
                replies = send(client, requests)
            except CALL_ERRORS as error:
                out.append(Call(time.perf_counter() - started, requests,
                                error=repr(error)))
                continue
            call = Call(time.perf_counter() - started, requests, replies)
            if sample_every and len(out) % sample_every == 0:
                call.spans = client.trace(client.last_trace_id)["spans"]
            out.append(call)

    return run


def run_alloc_single(
    port: int, sources: Sequence[Callable[[], AllocationRequest]],
    seconds: float, sample_every: int,
) -> Window:
    """Closed-loop ``POST /v1/allocate`` calls, one caller per request source."""
    return _run_callers([
        _caller(port, lambda source=source: [source()],
                lambda client, requests: [client.allocate(requests[0])], sample_every)
        for source in sources
    ], seconds)


def run_alloc_burst(
    port: int, next_request: Callable[[], AllocationRequest],
    seconds: float, sample_every: int,
) -> Window:
    """One closed-loop caller of fresh 256-request ``/v1/allocate/batch`` bursts."""
    return _run_callers([
        _caller(port, lambda: [next_request() for _ in range(BURST_SIZE)],
                AllocationClient.allocate_batch, sample_every)
    ], seconds)


def _campaign_once(
    client: AllocationClient, request: CampaignRequest, binary: bool, traced: bool
) -> Call:
    """Submit, poll until done, fetch and decode one campaign."""
    detail: Dict[str, Any] = {"polls": 0}
    started = time.perf_counter()
    submitted = client.submit_campaign(request)
    acked = time.perf_counter()
    spans = client.trace(client.last_trace_id)["spans"] if traced else None
    while True:
        status = client.campaign_status(submitted.campaign_id)
        detail["polls"] += 1
        if status.finished:
            break
        time.sleep(POLL_S)
    done = time.perf_counter()
    if status.status != "done":
        raise ServiceError(0, f"campaign {submitted.campaign_id} ended {status.status}")
    if binary:
        blob = client.campaign_columns_binary(submitted.campaign_id)
        fetched = time.perf_counter()
        result = FleetResult.from_binary(blob)
        detail["wire_bytes"] = len(blob)
        detail["fetch_s"] = fetched - done
        detail["decode_s"] = time.perf_counter() - fetched
    else:
        result = client.campaign_result(submitted.campaign_id)
    finished = time.perf_counter()
    detail.update(
        campaign_id=submitted.campaign_id,
        submit_ack_s=acked - started,
        run_s=done - acked,
        profile=dict(status.profile or {}),
        cells=status.cells,
        trace_hours=status.trace_hours,
        decoded_cells=result.num_cells,
        decoded_hours=result.trace_hours,
    )
    return Call(finished - started, [request], [result], spans=spans, detail=detail)


def run_campaigns(
    port: int, next_request: Callable[[], CampaignRequest], seconds: float,
    binary: bool, traced: bool, keep_rng: random.Random,
    after: Optional[Callable[[AllocationClient, Call], None]] = None,
) -> Window:
    """Sequential campaigns for ``seconds``; keeps one result, chosen by the seed.

    Each finished campaign is deleted after its columns are fetched (outside
    the timed call) so the server's memory reflects one campaign at a time,
    not how many campaigns a run happened to complete.  ``after`` runs
    untimed on each call while the campaign still exists (traced runs use
    it to measure the columns stream on its own).
    """
    client = AllocationClient(port=port, timeout_s=CALL_TIMEOUT_S)
    calls: List[Call] = []
    kept: Optional[Call] = None
    completed = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        request = next_request()
        call_started = time.perf_counter()
        try:
            call = _campaign_once(client, request, binary, traced)
        except CALL_ERRORS as error:
            calls.append(Call(time.perf_counter() - call_started, [request],
                              error=repr(error)))
            continue
        calls.append(call)
        completed += 1
        try:
            if after is not None:
                after(client, call)
            client.delete_campaign(call.detail["campaign_id"])
        except CALL_ERRORS as error:
            call.error = repr(error)
        # Reservoir sampling: every completed campaign is equally likely
        # to be the one checked against a local run; only that one's
        # decoded result is kept in memory.
        if keep_rng.randrange(completed) == 0:
            if kept is not None:
                kept.replies = None
            kept = call
        else:
            call.replies = None
    wall = time.perf_counter() - started
    return Window(calls, wall, kept)
