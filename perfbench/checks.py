"""Correctness of every recorded answer, checked after the timed windows.

* Every allocation reply is compared with an in-process
  :class:`~repro.core.batch.BatchAllocator` solve of the same request:
  objective and per-design-point times within :data:`TOL`.
* A seeded sample is compared with the Algorithm 1 oracle: the reduced
  formulation of :class:`~repro.core.allocator.ReapAllocator`, which runs
  :func:`~repro.core.simplex.simplex_max_leq`.
* One campaign per run, chosen by the seed, is compared cell by cell with a
  local :class:`~repro.simulation.fleet.FleetCampaign` run of the same
  ``CampaignRequest.build()``; every campaign must decode to its full grid.

Each check returns the set of call indices whose answers are wrong.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.allocator import ReapAllocator
from repro.service.batcher import EngineRegistry
from repro.simulation.fleet import FleetCampaign
from repro.simulation.metrics import CampaignColumns

#: Largest accepted difference (absolute, or relative above magnitude 1).
TOL = 1e-9
#: Replies per run compared with the simplex oracle.
ORACLE_SAMPLE = 64

_COLUMN_FIELDS = (
    "period_index", "energy_budget_j", "energy_consumed_j", "active_time_s",
    "off_time_s", "windows_total", "windows_observed", "windows_correct",
    "objective_value", "expected_accuracy", "times_by_design_point_s",
)


def _within(actual, expected) -> np.ndarray:
    """Elementwise: ``actual`` agrees with ``expected`` to :data:`TOL`."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.abs(actual - expected) <= TOL * np.maximum(1.0, np.abs(expected))


def _close(actual, expected) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return np.shape(actual) == np.shape(expected) and bool(np.all(_within(actual, expected)))


def check_allocations(calls, seed: int) -> Set[int]:
    """Indices of calls with any reply that disagrees with a local solve."""
    registry = EngineRegistry()
    names = [point.name for point in registry.default_points]
    wrong: Set[int] = set()
    # (call index, request, reply) grouped by alpha: one vectorized solve each.
    by_alpha: Dict[float, List[Tuple[int, object, object]]] = {}
    for index, call in enumerate(calls):
        if call.replies is None:
            continue
        if len(call.replies) != len(call.requests):
            wrong.add(index)
            continue
        for request, reply in zip(call.requests, call.replies):
            by_alpha.setdefault(request.alpha, []).append((index, request, reply))
    for alpha, entries in by_alpha.items():
        engine = registry.engine_for(entries[0][1])
        budgets = np.array([request.energy_budget_j for _, request, _ in entries])
        expected = engine.solve_arrays(budgets, alpha=alpha)
        got_objective = np.array([reply.objective for _, _, reply in entries])
        got_times = np.array(
            [[reply.times_s.get(name, np.nan) for name in names] for _, _, reply in entries]
        )
        objective_ok = _within(got_objective, expected.objective)
        times_ok = np.all(_within(got_times, expected.times_s), axis=1)
        for row, (index, request, reply) in enumerate(entries):
            if not (
                objective_ok[row] and times_ok[row]
                and reply.budget_feasible == bool(expected.feasible[row])
                and reply.energy_budget_j == request.energy_budget_j
                and reply.alpha == request.alpha
            ):
                wrong.add(index)
    return wrong | _check_oracle(calls, seed)


def _check_oracle(calls, seed: int) -> Set[int]:
    """Compare a seeded sample of replies with the Algorithm 1 simplex."""
    pairs = [
        (index, request, reply)
        for index, call in enumerate(calls) if call.replies is not None
        for request, reply in zip(call.requests, call.replies)
    ]
    sample = random.Random(f"{seed}:oracle").sample(pairs, min(ORACLE_SAMPLE, len(pairs)))
    oracle = ReapAllocator(formulation="reduced")
    registry = EngineRegistry()
    wrong: Set[int] = set()
    for index, request, reply in sample:
        reference = oracle.solve(registry.resolve(request).to_problem())
        if not (
            _close(reply.objective, reference.objective)
            and reply.budget_feasible == reference.budget_feasible
        ):
            wrong.add(index)
    return wrong


def check_campaigns(calls, kept) -> Set[int]:
    """Indices of campaigns that decoded short or disagree with a local run."""
    wrong: Set[int] = set()
    for index, call in enumerate(calls):
        if call.error is not None:
            continue
        request = call.requests[0]
        detail = call.detail
        if not (
            detail["cells"] == request.num_cells
            and detail["decoded_cells"] == request.num_cells
            and detail["trace_hours"] == detail["decoded_hours"] == request.hours
        ):
            wrong.add(index)
    for call in kept:
        if not _matches_local(call.requests[0], call.replies[0]):
            wrong.add(calls.index(call))
    return wrong


def _matches_local(request, remote) -> bool:
    scenarios, labels, policies, trace, config = request.build()
    local = FleetCampaign(scenarios, config, scenario_labels=labels).run(policies, trace)
    if (
        remote.policy_names != local.policy_names
        or remote.scenario_labels != local.scenario_labels
        or remote.trace_hours != local.trace_hours
        or remote.num_cells != local.num_cells
    ):
        return False
    for scenario_index, policy_index, cell in remote:
        reference = local.result(policy_index, scenario_index)
        ours, theirs = _columns(cell), _columns(reference)
        if ours.design_point_names != theirs.design_point_names:
            return False
        for name in _COLUMN_FIELDS:
            if not _close(getattr(ours, name), getattr(theirs, name)):
                return False
        if (cell.battery_charge_j is None) != (reference.battery_charge_j is None):
            return False
        if cell.battery_charge_j is not None and not _close(
            cell.battery_charge_j, reference.battery_charge_j
        ):
            return False
    return True


def _columns(result) -> CampaignColumns:
    if result.columns is not None:
        return result.columns
    return CampaignColumns.from_outcomes(result.outcomes)


def wrong_calls(workload: str, calls: Sequence, kept, seed: int) -> Set[int]:
    """Dispatch to the check of the workload's product."""
    if workload.startswith("campaign"):
        return check_campaigns(calls, kept)
    return check_allocations(calls, seed)
