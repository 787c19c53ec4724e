"""Resumable, content-addressed campaign execution at statistical scale.

The paper's figures average a handful of trials per sweep point; this
package runs the 100k+-trial campaigns those figures gesture at (ROADMAP
item 5) without ever holding a campaign in memory or losing work to a
crash:

* :class:`CampaignSpec` -- canonical campaign identity (kind, axis,
  trials, models, params) with a content fingerprint; every trial gets
  a content key via :func:`trial_key`.  The kind is a key of
  :data:`repro.api.executor.TRIAL_KINDS`, the table the in-memory
  ``SweepExecutor`` plans, runs and reduces from as well.
* :class:`CampaignStore` -- append-only chunked columnar store (NumPy
  structured chunks + an NDJSON manifest with the journal's torn-tail
  discipline).
* :class:`CampaignRunner` -- pull-based dispatch over pluggable
  transports (``local`` process pool, ``tcp`` shards), bounded
  in-flight memory, heartbeat/timeout rescheduling with
  :class:`~repro.serve.retry.RetrySchedule` backoff, and resume-by-
  default: running against an existing store skips completed trials.
* :class:`StreamingReducer` / :class:`CampaignPoint` -- Welford
  mean/variance folded strictly in (point, trial) order, yielding
  per-point 95% confidence intervals; ``CampaignRunner.sweep_points``
  decodes rows back to the exact metrics objects for bit-identical
  legacy ``SweepPoint`` reductions.

Entry points: ``SweepExecutor.run(..., kind=..., campaign=dir)``,
``CampaignSpec.create`` with :class:`CampaignRunner`, and the
``repro-mesh campaign`` CLI verbs.
"""

from repro.campaign.reducers import (
    Z95,
    CampaignPoint,
    Moments,
    RowCodec,
    StreamingReducer,
    fold_moments,
)
from repro.campaign.runner import (
    DEFAULT_RETRY,
    CampaignRunner,
    campaign_status,
    format_status,
)
from repro.campaign.spec import (
    CODE_VERSION,
    CampaignError,
    CampaignSpec,
    TrialDescriptor,
    trial_key,
)
from repro.campaign.store import CampaignStore
from repro.campaign.transport import (
    LocalTransport,
    Task,
    TcpTransport,
    TransportSpec,
    available_transports,
    get_transport,
    register_transport,
    run_tcp_worker,
)

__all__ = [
    "CODE_VERSION",
    "DEFAULT_RETRY",
    "Z95",
    "CampaignError",
    "CampaignPoint",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStore",
    "LocalTransport",
    "Moments",
    "RowCodec",
    "StreamingReducer",
    "Task",
    "TcpTransport",
    "TransportSpec",
    "TrialDescriptor",
    "available_transports",
    "campaign_status",
    "fold_moments",
    "format_status",
    "get_transport",
    "register_transport",
    "run_tcp_worker",
    "trial_key",
]
