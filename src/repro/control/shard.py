"""One shard of the control plane: a campaign-agnostic campaign host.

A :class:`ShardServer` owns the diagnosis campaigns whose failure-cluster
keys hash to it.  It is deliberately thin: each campaign keeps its own
:class:`~repro.core.cooperative.CooperativeDeployment` and its
:class:`~repro.core.server.GistServer` (campaigns are isolated — one
bug's traffic can never perturb another's statistics), and the shard
contributes the parts that *must* aggregate across campaigns:

- the WER-style failure-report clusterer for its slice of the key space;
- the exportable shard state — per-campaign striped ranker snapshots plus
  the cluster table — encoded as a canonical ``shard_state`` wire
  envelope, so cross-shard merging at the control plane rides the exact
  digest-checked path fleet traffic does.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.clustering import DEFAULT_MAX_IDENTITIES, FailureClusterer
from ..core.cooperative import CooperativeDeployment
from ..fleet import wire


class ShardServer:
    """Hosts the campaigns hashed to one shard (see module docstring).

    ``stats`` mirrors the campaigns' statistics mode: ``"streaming"``
    bounds the shard clusterer's per-bucket identity histograms
    (:data:`~repro.core.clustering.DEFAULT_MAX_IDENTITIES`) so shard state
    stays O(buckets) at million-report scale; ``"exact"`` keeps the
    unbounded reference behaviour and byte-identical exports.
    """

    def __init__(self, shard_id: int, stats: str = "exact") -> None:
        self.shard_id = shard_id
        self.deployments: Dict[str, CooperativeDeployment] = {}
        self.clusterer = FailureClusterer(
            max_identities=DEFAULT_MAX_IDENTITIES
            if stats == "streaming" else None)

    def admit(self, key: str, deployment: CooperativeDeployment) -> None:
        """Take ownership of one campaign."""
        if key in self.deployments:
            raise ValueError(f"campaign {key!r} already on shard "
                             f"{self.shard_id}")
        self.deployments[key] = deployment

    def observe_failure(self, report) -> None:
        """Cluster one failure report from this shard's key slice."""
        self.clusterer.add(report)

    def campaign_keys(self) -> List[str]:
        return sorted(self.deployments)

    def active(self) -> List[str]:
        return [key for key in self.campaign_keys()
                if not self.deployments[key].done]

    # -- state export --------------------------------------------------------

    def export_state(self, epoch: Optional[int] = None) -> bytes:
        """This shard's mergeable state as one ``shard_state`` envelope.

        Campaigns still bootstrapping (no failure yet) export nothing —
        they have no ranker to merge.  Stripe snapshots are exported
        *unmerged*; the control plane folds them with
        :meth:`PredictorRanker.merge
        <repro.core.stats.PredictorRanker.merge>`, whose associativity and
        commutativity are what make the global view independent of shard
        count and merge order.
        """
        campaigns = []
        for key in self.campaign_keys():
            deployment = self.deployments[key]
            campaign = deployment.campaign
            if campaign is None:
                continue
            campaigns.append({
                "key": key,
                "bug": deployment.bug,
                "recurrences": campaign.total_failure_recurrences,
                "stripes": campaign.stripe_states(),
            })
        return wire.encode_shard_state(self.shard_id, campaigns,
                                       self.clusterer.state(), epoch=epoch)
