"""Budget-aware scheduling of fleet runs across competing campaigns.

Every endpoint can afford only so much instrumentation per unit time (the
paper's "low overhead" constraint), so when several diagnosis campaigns
want monitored runs from the same fleet, *someone* has to decide whose
patches ride on the next round of production runs.  The
:class:`BudgetScheduler` makes that call each round:

- The fleet offers ``endpoints * quantum`` client runs per round — the
  hard per-round budget; allocations never sum past it, so no client ever
  executes more than ``quantum`` runs per round.
- ``infogain`` (default) apportions runs by a campaign's **expected
  information gain** per run: a campaign still bootstrapping needs runs
  just to see its failure once (floor weight); an unconverged campaign
  whose failure recurs often yields the most evidence per monitored run
  (weight grows with observed recurrences); a converged or finished
  campaign yields nothing and is starved to zero — its fleet share is
  immediately recycled to the stragglers.
- ``fair`` splits the round evenly across active campaigns — the control
  baseline the benchmark compares against.

Allocation is largest-remainder apportionment with deterministic
(campaign-key) tie-breaking, so a given set of campaign states always
yields the same split regardless of dict ordering.
"""

from __future__ import annotations

from typing import Dict, Mapping

SCHEDULER_KINDS = ("infogain", "fair")


class BudgetScheduler:
    """Per-round run-budget allocator (see module docstring)."""

    def __init__(self, kind: str = "infogain", endpoints: int = 8,
                 quantum: int = 8) -> None:
        if kind not in SCHEDULER_KINDS:
            raise ValueError(f"scheduler must be one of {SCHEDULER_KINDS}")
        if endpoints < 1 or quantum < 1:
            raise ValueError("need positive endpoints and quantum")
        self.kind = kind
        self.endpoints = endpoints
        self.quantum = quantum

    @property
    def round_budget(self) -> int:
        """Runs the fleet offers per round: ``endpoints * quantum``."""
        return self.endpoints * self.quantum

    # -- policy --------------------------------------------------------------

    def weight(self, campaign) -> float:
        """Expected-information-gain proxy for one campaign.

        Duck-typed over
        :class:`~repro.core.cooperative.CooperativeDeployment`:
        ``done``/``converged`` flags plus the weighted ``recurrences()``
        demand signal.  In streaming-statistics mode that signal is the
        campaign's *rolling-window* recurrence count rather than its
        all-time total, so infogain budget follows the bugs currently hot
        in the fleet instead of historical volume.
        """
        if campaign.done or campaign.converged:
            return 0.0
        if self.kind == "fair":
            return 1.0
        # infogain: bootstrap floor of 1; afterwards 1 + recurrences —
        # the hotter the bug, the more evidence each monitored run buys.
        return 1.0 + float(campaign.recurrences())

    def allocate(self, campaigns: Mapping[str, object]) -> Dict[str, int]:
        """Split this round's budget across campaigns by key.

        Guarantees: allocations are non-negative, sum to at most
        :attr:`round_budget`, zero for finished/converged campaigns, and
        at least 1 for every active campaign the budget can cover (a
        starving campaign could otherwise never finish bootstrapping).
        """
        weights = {key: self.weight(campaign)
                   for key, campaign in campaigns.items()}
        budget = self.round_budget
        alloc = {key: 0 for key in weights}
        active = sorted(key for key, w in weights.items() if w > 0.0)
        if not active or budget <= 0:
            return alloc
        total = sum(weights[key] for key in active)
        shares = {key: budget * weights[key] / total for key in active}
        for key in active:
            alloc[key] = int(shares[key])
        leftover = budget - sum(alloc[key] for key in active)
        # Largest remainder first; ties broken by key so the split is a
        # pure function of the campaign states.
        for key in sorted(active,
                          key=lambda k: (-(shares[k] - int(shares[k])), k)):
            if leftover <= 0:
                break
            alloc[key] += 1
            leftover -= 1
        # Participation floor: every active campaign gets >= 1 when the
        # round is big enough, taken from the current largest allocation.
        if budget >= len(active):
            for key in active:
                if alloc[key] > 0:
                    continue
                donor = max(active, key=lambda k: (alloc[k], k))
                if alloc[donor] <= 1:
                    break
                alloc[donor] -= 1
                alloc[key] = 1
        assert sum(alloc.values()) <= budget
        return alloc
