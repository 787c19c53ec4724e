"""Campaign identity: canonical specs, content-addressed trial keys.

A *campaign* is a sweep at statistical scale: one axis (fault counts or
offered loads), ``trials`` independently seeded trials per point, run
through the same per-trial workers as :class:`~repro.api.executor.
SweepExecutor` but streamed to a resumable on-disk store.

Identity is content-addressed at two levels:

* :meth:`CampaignSpec.fingerprint` hashes the canonical campaign
  description (kind, axis, trials, models, result-relevant parameters,
  code version).  A store directory belongs to exactly one fingerprint;
  resuming with a different spec is an error, not a silent mix.
* :func:`trial_key` hashes one trial's canonical fields (kind, the
  spec's result-relevant fields, seed, code version).  The store's
  completed-key set is consulted before dispatch, so re-running a
  campaign -- or a superset campaign sharing trials -- skips work that
  is already on disk.

The perf-only ``sim`` knob (the array simulator and its scalar oracle
are proven bit-identical, see ``tests/test_netsim.py``) and bookkeeping
(``point_index``/``trial``: the seed already encodes the position) are
excluded from both hashes.  Carried registry spec objects are excluded
too: they pickle builder *references*, which have no stable canonical
form; workers resolve them from their registries instead.

The campaign *kind* is a key of :data:`repro.api.executor.TRIAL_KINDS`:
the same table plans, runs and reduces in-memory sweeps, so a campaign
and a ``SweepExecutor`` run of the same parameters execute the same
trials.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import __version__

#: Code-version component of every content hash.  Bump the ``+campaign``
#: revision whenever trial semantics change without a package release --
#: stale results must never be reused across result-affecting changes.
CODE_VERSION = f"repro-{__version__}+campaign.1"

#: Parameters that never affect trial results (the simulator selector);
#: excluded from fingerprints and trial keys.
PERF_PARAMS = frozenset({"sim"})

#: Trial-spec fields excluded from trial keys: carried registry spec
#: objects (builder references, no canonical form), the perf selector, and
#: sweep-position bookkeeping (the seed already encodes it).
_KEY_EXCLUDED_FIELDS = frozenset(
    {"specs", "router_spec", "traffic_spec", "arrival_spec", "point_index", "trial"}
) | PERF_PARAMS


class CampaignError(RuntimeError):
    """An unusable campaign: spec mismatch, corrupt store, or failed run."""


def canonical_value(value: Any) -> Any:
    """Map *value* onto the JSON-stable form used by every content hash.

    Tuples become lists, typed option dataclasses become ``{"__type__":
    ClassName, ...fields}`` dicts (the class name matters: two option
    types could share field names), dict keys are forced to strings.
    Anything unhashable by this scheme is rejected loudly rather than
    hashed by repr.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded: Dict[str, Any] = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            encoded[f.name] = canonical_value(getattr(value, f.name))
        return encoded
    if isinstance(value, Mapping):
        return {str(key): canonical_value(val) for key, val in value.items()}
    raise TypeError(f"value {value!r} has no canonical form")


def _digest(payload: Any) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def trial_key(kind: str, spec: Any) -> str:
    """Content hash identifying one trial's result (32 hex chars).

    Hashes the trial spec's canonical result-relevant fields together
    with the campaign *kind* and :data:`CODE_VERSION`.  Stable across
    processes and machines.  The bookkeeping fields (``point_index`` /
    ``trial``) are excluded -- the derived seed already encodes the
    position -- so a campaign extended at the end of its axis, or
    deepened with more trials per point, plans a superset of the keys
    the shorter campaign stored and skips the shared work.
    """
    fields = {
        f.name: canonical_value(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name not in _KEY_EXCLUDED_FIELDS
    }
    return _digest({"kind": kind, "code": CODE_VERSION, "fields": fields})[:32]


@dataclass(frozen=True, slots=True)
class TrialDescriptor:
    """One planned trial: its content key, sweep position, and spec."""

    key: str
    point: int
    trial: int
    x: float
    seed: int
    spec: Any


@dataclass(frozen=True)
class CampaignSpec:
    """Canonical description of one campaign (picklable, JSON-stable).

    ``axis`` holds the sweep's x values (fault counts or offered loads,
    stored as floats), ``params`` the keyword arguments of
    ``SweepExecutor.iter_plan`` for the campaign's ``kind``.  Build specs
    with :meth:`create`: it validates registry keys eagerly, so typos
    fail before a single trial is planned.
    """

    kind: str
    axis: Tuple[float, ...]
    trials: int
    models: Tuple[str, ...]
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise CampaignError("campaign trials must be at least 1")
        if not self.axis:
            raise CampaignError("campaign axis must not be empty")

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        kind: str,
        axis: Sequence[Any],
        trials: int,
        models: Optional[Sequence[str]] = None,
        **params: Any,
    ) -> "CampaignSpec":
        """A campaign of one trial *kind* (``construction`` / ``routing`` /
        ``latency``) over *axis* (fault counts or offered loads).

        *models* default to the kind's; *params* are those of
        :meth:`~repro.api.executor.SweepExecutor.iter_plan` and enter the
        fingerprint as given, so pass only what differs from the
        defaults.  Registry keys are validated and normalised eagerly and
        one point is planned, so typos fail before a single trial runs.
        """
        from repro.api.executor import KEY_FIELDS, TRIAL_KINDS, resolve_key
        from repro.api.registry import get_construction

        trial_kind = TRIAL_KINDS[kind]
        if models is None:
            models = trial_kind.default_models
        params = dict(params)
        for name in KEY_FIELDS:
            if params.get(name) is not None:
                params[name] = resolve_key(name, params[name])[0]
        spec = cls(
            kind=trial_kind.key,
            axis=tuple(float(x) for x in axis),
            trials=int(trials),
            models=tuple(get_construction(key).key for key in models),
            params=params,
        )
        spec.plan_check()
        return spec

    # -- identity -------------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The JSON-stable campaign description (perf knobs excluded)."""
        params = {
            name: canonical_value(value)
            for name, value in sorted(self.params.items())
            if name not in PERF_PARAMS
        }
        return {
            "kind": self.kind,
            "axis": list(self.axis),
            "trials": self.trials,
            "models": list(self.models),
            "params": params,
            "code": CODE_VERSION,
        }

    def fingerprint(self) -> str:
        """Content hash of :meth:`canonical` (full sha256 hex digest)."""
        return _digest(self.canonical())

    @property
    def total_trials(self) -> int:
        """Planned trial count: ``len(axis) * trials``."""
        return len(self.axis) * self.trials

    # -- planning -------------------------------------------------------------------

    def plan_check(self) -> None:
        """Plan one point eagerly so bad params fail at spec build time."""
        list(dataclasses.replace(self, axis=self.axis[:1], trials=1).iter_plan())

    def plan(self) -> List[TrialDescriptor]:
        """Expand into keyed trial descriptors, in (point, trial) order."""
        return list(self.iter_plan())

    def iter_plan(self) -> Iterator[TrialDescriptor]:
        """Stream keyed trial descriptors in (point, trial) order.

        A million-trial campaign plans to ~hundreds of MB if held as a
        list; the runner and workers iterate this instead, keeping only
        the (point, trial) cells and completed-key set resident.
        """
        from repro.api.executor import SweepExecutor

        executor = SweepExecutor(self.models, workers=1)
        for spec in executor.iter_plan(
            self.axis, self.trials, kind=self.kind, **self.params
        ):
            yield TrialDescriptor(
                key=trial_key(self.kind, spec),
                point=spec.point_index,
                trial=spec.trial,
                x=self.axis[spec.point_index],
                seed=spec.seed,
                spec=spec,
            )

    def codec(self) -> Any:
        """The row codec of this campaign (columns from its kind)."""
        from repro.campaign.reducers import RowCodec

        return RowCodec(self)

    # -- wire form (TCP workers receive the canonical dict) -------------------------

    @classmethod
    def from_canonical(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from its :meth:`canonical` dict (wire form).

        Typed option values arrive as ``{"__type__": ClassName, ...}``
        dicts and are revived through the owning registry's
        ``make_options`` -- remote workers therefore support exactly the
        registered workloads (custom in-process registrations do not
        travel over the wire; run those through the local transport).
        """
        if payload.get("code") != CODE_VERSION:
            raise CampaignError(
                f"campaign code version {payload.get('code')!r} does not match "
                f"this worker's {CODE_VERSION!r}"
            )
        from repro.api.executor import TRIAL_KINDS

        kind = str(payload["kind"])
        if kind not in TRIAL_KINDS:
            raise CampaignError(f"unknown campaign kind {kind!r}")
        raw = dict(payload.get("params", {}))
        params = {name: _revive_param(kind, name, value, raw) for name, value in raw.items()}
        return cls(
            kind=kind,
            axis=tuple(float(x) for x in payload["axis"]),
            trials=int(payload["trials"]),
            models=tuple(str(m) for m in payload["models"]),
            params=params,
        )


def _revive_param(kind: str, name: str, value: Any, params: Mapping[str, Any]) -> Any:
    """Revive one canonical param value (see :meth:`CampaignSpec.from_canonical`).

    A typed option set revives through the registry of the key it
    configures (``traffic_options`` through ``traffic``, ...); a key the
    campaign left out takes the kind's trial-spec default.
    """
    if not isinstance(value, Mapping) or "__type__" not in value:
        return value
    from repro.api.executor import KEY_FIELDS, TRIAL_KINDS, resolve_key

    fields = {k: v for k, v in value.items() if k != "__type__"}
    owner = name[: -len("_options")]
    if name.endswith("_options") and owner in KEY_FIELDS:
        key = params.get(owner, TRIAL_KINDS[kind].defaults().get(owner))
        return resolve_key(owner, str(key))[1].make_options(None, fields)
    raise CampaignError(f"cannot revive campaign param {name!r} of type {value['__type__']!r}")
