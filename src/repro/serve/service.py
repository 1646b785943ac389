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
import os
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.costs.models import EnergyModelSpec, use_model
from repro.jobs import JOBS, REQUEST_KINDS, ServiceConfig
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


#: Parameters of the server-only kinds.  ``x`` has no default: a
#: ``None`` default is required and typed by its handler.
INFER_DEFAULTS: Dict[str, Any] = {
    "x": None,
    "noisy": False,
    "energy_model": "static",
    "model": {},
}
FAULTS_DEFAULTS: Dict[str, Any] = {"cell_yield": 0.9, "seed": 0, "model": {}}

_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    list: "an array",
}


def _typed(what: str, name: str, value: Any, default: Any) -> Any:
    """``value`` in its default's JSON type: a bool, str or dict as is,
    an integral number as ``int``, any number as ``float``, and an array
    item by item like ``default[0]`` (a string if the default is empty).
    A ``None`` default leaves the value to its handler.  ``name`` is the
    parameter's, also for an item of an array."""
    kind = type(default)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if default is None or (kind in (bool, str, dict) and isinstance(value, kind)):
        return value
    if kind is float and number:
        return float(value)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is list and isinstance(value, list):
        item = default[0] if default else ""
        return [_typed(what, name, v, item) for v in value]
    raise BadRequestError(
        f"{what} parameter {name} must be {_TYPE_NAMES[kind]}, got {value!r}",
        parameter=name,
    )


def _normalize(
    params: Dict[str, Any], defaults: Dict[str, Any], what: str
) -> Dict[str, Any]:
    """Fill defaults, reject unknown keys and give every given value its
    default's type (:func:`_typed`), so every equivalent request
    normalizes to the same fingerprint and a typo or a mistyped value is
    a ``bad_request``, never a forked cache entry or a crash in the job.
    ``energy_model`` becomes its parsed spec's canonical dict: in the
    fingerprint, static and value-aware runs never share a warm hit."""
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BadRequestError(
            f"unknown {what} parameter(s): {', '.join(unknown)}",
            unknown=unknown,
            allowed=sorted(defaults),
        )
    out = dict(defaults)
    for name, value in params.items():
        out[name] = (
            value
            if name == "energy_model"
            else _typed(what, name, value, defaults[name])
        )
    if "energy_model" in out:
        try:
            spec = EnergyModelSpec.parse(out["energy_model"])
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"bad energy_model: {exc}") from None
        out["energy_model"] = spec.to_dict()
    return out


def _input_rows(x_raw: Any, width: int) -> np.ndarray:
    """``infer``'s ``x`` as ``(n_rows, width)`` floats: one input vector
    of ``width`` numbers or a list of them."""
    try:
        x = np.asarray(x_raw)
    except ValueError:                  # ragged rows
        x = np.asarray(None)
    if x.dtype.kind not in "iuf" or x.ndim not in (1, 2) or x.shape[-1] != width:
        raise BadRequestError(
            f"x must be one input vector of {width} numbers or a list of them",
            parameter="x",
        )
    return np.atleast_2d(x).astype(float, copy=False)


def _validated(report: RunReport) -> RunReport:
    """``report`` after its conservation check.  A failed check is the
    server's fault, so it is raised as an ``internal`` error, never as the
    ``ValueError`` that :meth:`SimulationService.submit` reads as a bad
    request."""
    try:
        report.validate()
    except ValueError as exc:
        raise RuntimeError(f"{report.label} report: {exc}") from exc
    return report


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
        self.requests_failed: Dict[str, int] = Counter()  # error code -> count
        self.requests_by_kind: Dict[str, int] = {}
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
        except ValueError as exc:
            # A ValueError from the request's inputs (a job or model
            # config, a seed) is the client's fault, in every kind.
            self.requests_failed["bad_request"] += 1
            raise BadRequestError(f"bad {kind} request: {exc}") from None
        except asyncio.CancelledError:
            # Cancelled in flight (a client timeout): counted, and the
            # cancellation propagates.
            self.requests_failed["cancelled"] += 1
            raise
        except Exception as exc:
            # Same codes the socket server sends back for this exception.
            code = exc.code if isinstance(exc, ServeError) else "internal"
            self.requests_failed[code] += 1
            raise
        finally:
            self._inflight -= 1
        self.requests_completed += 1
        return response

    # ------------------------------------------------------- result caching
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
        _validated(report)
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
        event loop thread."""
        job = JOBS[kind]
        cfg = _normalize(params, {**job.defaults, **job.uncached}, kind)
        uncached = {name: cfg.pop(name) for name in job.uncached}
        # Results and reports are the same at any worker count, so the
        # cap only bounds the processes one request starts.
        workers = uncached.get("workers", 0)
        if workers < -1:
            raise BadRequestError(
                f"workers must be >= -1, got {workers}", parameter="workers"
            )
        if workers > 0:
            uncached["workers"] = min(workers, os.cpu_count() or 1)
        if job.check is not None:
            job.check(cfg)
        key = ResultsCache.key(kind, cfg)
        hit = self.results.get(key)
        if hit is not None:
            return self._response(kind, "hit", hit)
        async with self._compute_lock:
            result, report = await asyncio.to_thread(
                job.run, cfg, artifacts=self.artifacts, **uncached
            )
        return self._finish(kind, key, result, report)

    # ------------------------------------------------------ model artifacts
    @staticmethod
    def _build_model(cfg: Dict[str, Any], fingerprint: str) -> _DeployedModel:
        """Train and deploy the reference MLP described by ``cfg`` (a pure
        function of the normalized config)."""
        from repro.apps.datasets import gaussian_blobs
        from repro.apps.nn import MLP, CrossbarMLP
        from repro.core.accelerator import AcceleratorParams

        gen = np.random.default_rng(cfg["seed"])
        x, y = gaussian_blobs(
            n_samples=cfg["n_samples"],
            n_features=cfg["n_features"],
            n_classes=cfg["n_classes"],
            separation=cfg["separation"],
            rng=gen,
        )
        split = int(0.7 * cfg["n_samples"])
        mlp = MLP(
            [cfg["n_features"], *cfg["hidden"], cfg["n_classes"]], rng=gen
        )
        mlp.train(x[:split], y[:split], epochs=cfg["epochs"], rng=gen)
        deployed = CrossbarMLP(
            mlp,
            calibration=x[:split],
            accel_params=AcceleratorParams(
                tile_rows=cfg["tile_rows"],
                tile_cols=cfg["tile_cols"],
                adc_bits=cfg["adc_bits"],
                wire_resistance=cfg["wire_resistance"],
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
        cfg = _normalize(params, INFER_DEFAULTS, "infer")
        if cfg["x"] is None:
            raise BadRequestError("infer requires 'x' (one or more inputs)")
        artifact, _ = self.model_artifact(cfg["model"])
        x = _input_rows(cfg["x"], artifact.x_train.shape[1])
        noisy, energy_model = cfg["noisy"], cfg["energy_model"]
        fp = artifact.fingerprint
        # Key on the model *fingerprint* (injective for normalized
        # configs) rather than re-embedding the whole config — request
        # keying is per-request fixed cost on the hot inference path.
        request_cfg = {
            "model_fp": fp,
            "x": x.tolist(),
            "noisy": noisy,
            "model_version": artifact.version,
            "energy_model": energy_model,
        }
        key = ResultsCache.key("infer", request_cfg)
        hit = self.results.get(key)
        if hit is not None and not noisy:
            return self._response("infer", "hit", hit)

        deployed = artifact.deployed

        def _forward(stacked: np.ndarray) -> Any:
            with use_model(energy_model):
                return deployed.forward_batch(stacked, noisy=noisy)

        # The energy model is part of the coalescing key: a flush runs
        # under ONE model, so only same-priced requests may share a batch.
        out, counters = await self.batcher.submit(
            ("model", fp, artifact.version, noisy, tuple(energy_model.items())),
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
        cfg = _normalize(params, FAULTS_DEFAULTS, "faults")
        cell_yield = cfg["cell_yield"]
        if not 0.0 < cell_yield <= 1.0:
            raise BadRequestError(
                f"cell_yield must be in (0, 1], got {cell_yield}"
            )
        artifact, _ = self.model_artifact(cfg["model"])
        fp = artifact.fingerprint
        with telemetry.scoped() as scope:
            rate = artifact.deployed.inject_yield_faults(
                cell_yield, rng=np.random.default_rng(cfg["seed"])
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
        report = _validated(self.lifetime_report)
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
        results = self.results.stats()
        return {
            "requests_total": self.requests_total,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_failed": dict(sorted(self.requests_failed.items())),
            "requests_by_kind": dict(sorted(self.requests_by_kind.items())),
            "inflight": self._inflight,
            "max_inflight": self.config.max_inflight,
            "results_cache": {
                **results,
                "request_hits": results["hits"],
                "request_misses": results["misses"],
            },
            "artifact_cache": self.artifacts.stats(),
            "batcher": self.batcher.stats.as_dict(),
        }
