"""Simulation-as-a-service: the in-process job service.

:class:`SimulationService` is the serving layer in front of the compute
backend (deployed crossbar models, the deterministic sweep engine, the
pipeline compiler/scheduler).  It is a plain ``asyncio`` object — tests
and embedders drive it directly; :mod:`repro.serve.server` wraps it in a
socket protocol.

Request lifecycle::

    submit(request) ──► admission control (bounded in-flight jobs)
        │                   └── QueueFullError (structured, never an
        │                       unbounded queue)
        ├── results cache?  (task kind, config fingerprint) ── hit ──►
        │       bit-identical cached payload, no compute
        ├── infer ──► artifact cache (deployed model, carries its tiles'
        │             LU caches) ──► request batcher (coalesced
        │             forward_batch, per-request demux)
        └── sweep / dse / pipeline / ecc / attention / train ──►
                      serialized compute (one heavy job at a time, off the
                      event loop thread) through :data:`repro.jobs.JOBS`

Every completed request carries a conservation-validated
:class:`~repro.utils.telemetry.RunReport`; reports of *computed* requests
merge into a server-lifetime report (cache hits did no work and are
counted separately).  Fault-injection/reprogramming requests mutate a
deployed artifact in place and invalidate every cached result tagged
with that model's fingerprint — stale results or LU factorizations are
never served.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.jobs import JOBS, REQUEST_KINDS
from repro.serve.batcher import RequestBatcher
from repro.serve.cache import ArtifactCache, ResultsCache, config_fingerprint
from repro.utils import telemetry
from repro.utils.telemetry import RunReport

__all__ = [
    "ServeError",
    "BadRequestError",
    "QueueFullError",
    "ServiceConfig",
    "SimulationService",
    "REQUEST_KINDS",
]


class ServeError(RuntimeError):
    """Structured service error; ``code`` is machine-readable."""

    code = "error"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details = details

    def payload(self) -> Dict[str, Any]:
        """JSON-able error body for protocol responses."""
        return {"code": self.code, "message": str(self), **self.details}


class BadRequestError(ServeError):
    """Malformed or unknown request."""

    code = "bad_request"


class QueueFullError(ServeError):
    """Admission control rejected the request: too many in-flight jobs.

    This is the bounded-queue contract: the server sheds load with a
    structured error instead of buffering unboundedly.
    """

    code = "queue_full"


@dataclass
class ServiceConfig:
    """Serving-layer knobs."""

    max_inflight: int = 64          # admission-control bound
    batch_window_s: float = 0.005   # coalescing window for inference
    max_batch: int = 16             # flush immediately at this many requests
    artifact_capacity: int = 32     # deployed models / graphs / allocations
    results_capacity: int = 256     # whole-response cache entries

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


#: Defaults for the deployable reference MLP; every field participates in
#: the model fingerprint, so two requests agree on a model artifact iff
#: their *normalized* configs are equal.
MODEL_DEFAULTS: Dict[str, Any] = {
    "n_features": 16,
    "n_classes": 6,
    "hidden": [12],
    "n_samples": 240,
    "separation": 1.5,
    "epochs": 30,
    "seed": 0,
    "tile_rows": 64,
    "tile_cols": 32,
    "adc_bits": 8,
    "wire_resistance": 0.0,
}


def _energy_spec(value: Any):
    """Parse a request's energy-model choice; canonicalized through
    :meth:`EnergyModelSpec.to_dict` it becomes part of the result-cache
    fingerprint, so static and value-aware runs of the same config can
    never share a warm hit."""
    from repro.costs.models import EnergyModelSpec

    try:
        return EnergyModelSpec.parse(value)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"bad energy_model: {exc}") from None


def _normalize(
    params: Dict[str, Any], defaults: Dict[str, Any], what: str
) -> Dict[str, Any]:
    """Fill defaults and reject unknown keys, so every equivalent request
    normalizes to the same fingerprint and typos never silently fork a
    cache entry."""
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BadRequestError(
            f"unknown {what} parameter(s): {', '.join(unknown)}",
            unknown=unknown,
            allowed=sorted(defaults),
        )
    out = dict(defaults)
    out.update(params)
    return out


@dataclass
class _DeployedModel:
    """A deployed-model artifact: the crossbar network plus the data it
    was calibrated on and a mutation version counter."""

    deployed: Any                   # CrossbarMLP
    x_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    fingerprint: str
    version: int = 0                # bumped on fault injection/reprogram


class SimulationService:
    """Async job service over the CIM simulation stack."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.artifacts = ArtifactCache(
            capacity=self.config.artifact_capacity, name="artifact_cache"
        )
        self.results = ResultsCache(capacity=self.config.results_capacity)
        self.batcher = RequestBatcher(
            window_s=self.config.batch_window_s,
            max_batch=self.config.max_batch,
        )
        self.lifetime_report = RunReport(label="server_lifetime")
        self.requests_total = 0
        self.requests_completed = 0
        self.requests_rejected = 0
        self.requests_failed: Dict[str, int] = {}     # error code -> count
        self.requests_by_kind: Dict[str, int] = {}
        self.results_hits = 0
        self.results_misses = 0
        self._inflight = 0
        self._compute_lock = asyncio.Lock()

    # ------------------------------------------------------------ admission
    @property
    def inflight(self) -> int:
        """Requests currently admitted and not yet completed."""
        return self._inflight

    def _admit(self, kind: str) -> None:
        self.requests_total += 1
        self.requests_by_kind[kind] = self.requests_by_kind.get(kind, 0) + 1
        if self._inflight >= self.config.max_inflight:
            self.requests_rejected += 1
            telemetry.current().incr("serve.rejected")
            raise QueueFullError(
                f"server is at its in-flight job limit "
                f"({self.config.max_inflight}); retry later",
                inflight=self._inflight,
                limit=self.config.max_inflight,
            )
        self._inflight += 1

    # ------------------------------------------------------------- dispatch
    async def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle one request dict ``{"kind": ..., "params": {...}}``.

        Returns a response dict ``{"ok": True, "kind", "cache",
        "result", "report"}``.  Raises :class:`ServeError` subclasses on
        rejection/malformed input (the socket server maps them onto
        structured error responses).
        """
        if not isinstance(request, dict):
            raise BadRequestError("request must be a JSON object")
        kind = request.get("kind")
        if kind not in REQUEST_KINDS:
            raise BadRequestError(
                f"unknown request kind {kind!r}", allowed=list(REQUEST_KINDS)
            )
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequestError("params must be a JSON object")
        self._admit(kind)
        try:
            if kind in JOBS:
                response = await self._run_job(kind, params)
            else:
                response = await getattr(self, f"_handle_{kind}")(params)
        except Exception as exc:
            # Same codes the socket server sends back for this exception.
            code = exc.code if isinstance(exc, ServeError) else "internal"
            self.requests_failed[code] = self.requests_failed.get(code, 0) + 1
            raise
        finally:
            self._inflight -= 1
        self.requests_completed += 1
        return response

    # ------------------------------------------------------- result caching
    def _cached(self, kind: str, cfg: Dict[str, Any]) -> Tuple[Any, Optional[Dict]]:
        key = ResultsCache.key(kind, cfg)
        hit = self.results.get(key)
        if hit is not None:
            self.results_hits += 1
        else:
            self.results_misses += 1
        return key, hit

    def _finish(
        self,
        kind: str,
        key: Any,
        result: Any,
        report: RunReport,
        tags: Tuple[str, ...] = (),
        cache: bool = True,
    ) -> Dict[str, Any]:
        """Validate + merge the report, cache the payload, and build the
        response from the cache's canonical copy (so a later warm hit is
        bit-identical to this cold response)."""
        report.validate()
        self.lifetime_report = self.lifetime_report.merge(report)
        payload = {"result": result, "report": report.to_dict()}
        if cache:
            payload = self.results.put(key, payload, tags=tags)
        return self._response(kind, "miss" if cache else "none", payload)

    @staticmethod
    def _response(kind: str, cache: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ok": True,
            "kind": kind,
            "cache": cache,
            "result": payload["result"],
            "report": payload["report"],
        }

    # ------------------------------------------------------------ kind:jobs
    async def _run_job(self, kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one :data:`~repro.jobs.JOBS` kind: normalize, look up the
        results cache, else run the job under the compute lock off the
        event loop thread.  A ``ValueError`` from the job's inputs is the
        client's fault: it becomes a ``bad_request``."""
        job = JOBS[kind]
        params = dict(params)
        uncached = {name: params.pop(name) for name in job.uncached if name in params}
        cfg = _normalize(params, job.defaults, kind)
        cfg["energy_model"] = _energy_spec(cfg["energy_model"]).to_dict()
        try:
            if job.check is not None:
                job.check(cfg)
            key, hit = self._cached(kind, cfg)
            if hit is not None:
                return self._response(kind, "hit", hit)
            async with self._compute_lock:
                result, report = await asyncio.to_thread(
                    job.run, cfg, artifacts=self.artifacts, **uncached
                )
        except ValueError as exc:
            raise BadRequestError(f"bad {kind} request: {exc}") from None
        return self._finish(kind, key, result, report)

    # ------------------------------------------------------ model artifacts
    @staticmethod
    def _build_model(cfg: Dict[str, Any], fingerprint: str) -> _DeployedModel:
        """Train and deploy the reference MLP described by ``cfg`` (a pure
        function of the normalized config)."""
        from repro.apps.datasets import gaussian_blobs
        from repro.apps.nn import MLP, CrossbarMLP
        from repro.core.accelerator import AcceleratorParams

        gen = np.random.default_rng(int(cfg["seed"]))
        x, y = gaussian_blobs(
            n_samples=int(cfg["n_samples"]),
            n_features=int(cfg["n_features"]),
            n_classes=int(cfg["n_classes"]),
            separation=float(cfg["separation"]),
            rng=gen,
        )
        split = int(0.7 * int(cfg["n_samples"]))
        hidden = [int(h) for h in cfg["hidden"]]
        mlp = MLP(
            [int(cfg["n_features"]), *hidden, int(cfg["n_classes"])], rng=gen
        )
        mlp.train(x[:split], y[:split], epochs=int(cfg["epochs"]), rng=gen)
        deployed = CrossbarMLP(
            mlp,
            calibration=x[:split],
            accel_params=AcceleratorParams(
                tile_rows=int(cfg["tile_rows"]),
                tile_cols=int(cfg["tile_cols"]),
                adc_bits=int(cfg["adc_bits"]),
                wire_resistance=float(cfg["wire_resistance"]),
            ),
            rng=gen,
        )
        return _DeployedModel(
            deployed=deployed,
            x_train=x[:split],
            x_test=x[split:],
            y_test=y[split:],
            fingerprint=fingerprint,
        )

    def model_artifact(self, model_params: Dict[str, Any]) -> Tuple[_DeployedModel, bool]:
        """The deployed-model artifact for ``model_params`` (normalized),
        deploying on first use.  Returns ``(artifact, cache_hit)``."""
        cfg = _normalize(model_params, MODEL_DEFAULTS, "model")
        fp = config_fingerprint(cfg, prefix="model")
        return self.artifacts.get_or_create(
            ("model", fp),
            lambda: self._build_model(cfg, fp),
            tags=(fp,),
        )

    def invalidate_model(self, model_params: Dict[str, Any]) -> Dict[str, int]:
        """Drop a model's artifact and every cached result derived from
        it (the reprogram hook: call after mutating a deployment through
        a side channel)."""
        cfg = _normalize(model_params, MODEL_DEFAULTS, "model")
        fp = config_fingerprint(cfg, prefix="model")
        return {
            "artifacts": self.artifacts.invalidate_tag(fp),
            "results": self.results.invalidate_tag(fp),
        }

    # ----------------------------------------------------------- kind:infer
    async def _handle_infer(self, params: Dict[str, Any]) -> Dict[str, Any]:
        params = dict(params)
        x_raw = params.pop("x", None)
        if x_raw is None:
            raise BadRequestError("infer requires 'x' (one or more inputs)")
        noisy = bool(params.pop("noisy", False))
        spec = _energy_spec(params.pop("energy_model", "static"))
        model_params = params.pop("model", {})
        if params:
            raise BadRequestError(
                f"unknown infer parameter(s): {', '.join(sorted(params))}"
            )
        x = np.asarray(x_raw, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise BadRequestError(
                f"x must be one input vector or a list of them, got "
                f"shape {x.shape}"
            )
        artifact, _ = self.model_artifact(model_params)
        fp = artifact.fingerprint
        # Key on the model *fingerprint* (injective for normalized
        # configs) rather than re-embedding the whole config — request
        # keying is per-request fixed cost on the hot inference path.
        request_cfg = {
            "model_fp": fp,
            "x": x.tolist(),
            "noisy": noisy,
            "model_version": artifact.version,
            "energy_model": spec.to_dict(),
        }
        key, hit = self._cached("infer", request_cfg)
        if hit is not None and not noisy:
            return self._response("infer", "hit", hit)

        deployed = artifact.deployed

        def _forward(stacked: np.ndarray) -> Any:
            from repro.costs.models import use_model

            with use_model(spec):
                return deployed.forward_batch(stacked, noisy=noisy)

        # The spec is part of the coalescing key: a flush runs under ONE
        # model, so only same-priced requests may share a batch.
        out, counters = await self.batcher.submit(
            ("model", fp, artifact.version, noisy, spec),
            x,
            _forward,
        )
        report = RunReport.from_counters(counters, label="infer")
        result = {
            "logits": out.tolist(),
            "prediction": [int(k) for k in np.argmax(out, axis=-1)],
            "model_fingerprint": fp,
            "model_version": artifact.version,
        }
        # Noisy inference draws fresh read noise per flush, so only the
        # deterministic path is cached (and later served bit-identically).
        return self._finish(
            "infer", key, result, report, tags=(fp,), cache=not noisy
        )

    # ---------------------------------------------------------- kind:faults
    async def _handle_faults(self, params: Dict[str, Any]) -> Dict[str, Any]:
        params = dict(params)
        cell_yield = float(params.pop("cell_yield", 0.9))
        seed = int(params.pop("seed", 0))
        model_params = params.pop("model", {})
        if params:
            raise BadRequestError(
                f"unknown faults parameter(s): {', '.join(sorted(params))}"
            )
        if not 0.0 < cell_yield <= 1.0:
            raise BadRequestError(
                f"cell_yield must be in (0, 1], got {cell_yield}"
            )
        artifact, _ = self.model_artifact(model_params)
        fp = artifact.fingerprint
        with telemetry.scoped() as scope:
            rate = artifact.deployed.inject_yield_faults(
                cell_yield, rng=np.random.default_rng(seed)
            )
        # The deployment mutated in place: anything derived from its
        # previous state is stale.  Bump the version (future infer keys
        # diverge) and sweep out every cached result tagged with it.
        artifact.version += 1
        invalidated = self.results.invalidate_tag(fp)
        telemetry.current().incr("serve.model_mutations")
        report = RunReport.from_counters(
            scope.snapshot(include_timers=False)["counters"], label="faults"
        )
        result = {
            "fault_rate": rate,
            "cell_yield": cell_yield,
            "model_fingerprint": fp,
            "model_version": artifact.version,
            "invalidated_results": invalidated,
        }
        # Mutations are never cached.
        return self._finish(
            "faults", None, result, report, cache=False
        )

    # ----------------------------------------------------------- kind:stats
    async def _handle_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if params:
            raise BadRequestError("stats takes no parameters")
        report = self.lifetime_report
        report.validate()
        return {
            "ok": True,
            "kind": "stats",
            "cache": "none",
            "result": self.stats(),
            "report": report.to_dict(),
        }

    # ------------------------------------------------------------ telemetry
    def stats(self) -> Dict[str, Any]:
        """Serving-layer statistics: admission, caches, batcher."""
        return {
            "requests_total": self.requests_total,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_failed": dict(sorted(self.requests_failed.items())),
            "requests_by_kind": dict(sorted(self.requests_by_kind.items())),
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "results_cache": {
                **self.results.stats(),
                "request_hits": self.results_hits,
                "request_misses": self.results_misses,
            },
            "artifact_cache": self.artifacts.stats(),
            "batcher": self.batcher.stats.as_dict(),
        }
