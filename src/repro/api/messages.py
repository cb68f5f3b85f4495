"""Frozen request/response messages: the redesigned mining surface.

One request shape — :class:`MiningRequest` — describes every unit of
work the system performs, whether it enters through the library
(``DecoMine.get_pattern_count`` builds one internally), the daemon's
JSON-lines socket (``repro submit``), or a test harness.  One response
shape — :class:`MiningResponse` — carries everything a caller can ask
about a finished run: the count, whether the plan came out of the
persistent plan cache, the run id the ledger recorded, the metrics
snapshot, and the salvage view for cancelled runs.

Both are frozen dataclasses with deterministic wire codecs
(:meth:`MiningRequest.to_wire` / :meth:`MiningRequest.from_wire`), so
the in-process and over-the-socket paths share one validation point.
Patterns travel as ``{"n": ..., "edges": [...], "labels": ...}`` (or a
bare catalog name like ``"house"``); callables — emit UDFs, constraint
predicates — cannot cross the wire and therefore live *outside* the
request: ``DecoMine.submit`` takes them as separate arguments, and the
daemon only accepts ``mode="count"`` requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.exceptions import ReproError
from repro.patterns import catalog
from repro.patterns.pattern import Pattern

__all__ = [
    "MiningRequest",
    "MiningResponse",
    "batch_requests_from_wire",
    "batch_requests_to_wire",
    "pattern_from_wire",
    "pattern_to_wire",
]

#: Catalog names accepted as a bare-string pattern on the wire.
_NAMED_PATTERNS = {
    "triangle": catalog.triangle,
    "tailed_triangle": catalog.tailed_triangle,
    "diamond": catalog.diamond,
    "house": catalog.house,
    "gem": catalog.gem,
    "bowtie": catalog.bowtie,
    "net": catalog.net,
}
_PARAMETRIC_PATTERNS = {
    "chain": catalog.chain,
    "cycle": catalog.cycle,
    "clique": catalog.clique,
    "star": catalog.star,
}


def pattern_to_wire(pattern: Pattern) -> dict:
    """A JSON-able encoding of a pattern (exact, not canonicalized)."""
    return {
        "n": pattern.n,
        "edges": sorted([u, v] for u, v in pattern.edge_set),
        "labels": list(pattern.labels) if pattern.labels is not None else None,
        "name": pattern.name,
    }


def pattern_from_wire(spec) -> Pattern:
    """Decode a wire pattern: a dict, a catalog name, or a Pattern.

    Accepts ``"house"``, ``"5-cycle"``/``"4-clique"``-style parametric
    names, or the dict :func:`pattern_to_wire` produces.
    """
    if isinstance(spec, Pattern):
        return spec
    if isinstance(spec, str):
        if spec in _NAMED_PATTERNS:
            return _NAMED_PATTERNS[spec]()
        head, _, tail = spec.partition("-")
        if tail in _PARAMETRIC_PATTERNS and head.isdigit():
            return _PARAMETRIC_PATTERNS[tail](int(head))
        raise ReproError(f"unknown pattern name {spec!r}")
    if isinstance(spec, dict):
        try:
            return Pattern(
                int(spec["n"]),
                [(int(u), int(v)) for u, v in spec["edges"]],
                labels=spec.get("labels"),
                name=spec.get("name"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed wire pattern: {exc}") from None
    raise ReproError(f"cannot decode pattern from {type(spec).__name__}")


@dataclass(frozen=True)
class MiningRequest:
    """One unit of mining work, independent of how it arrives.

    ``engine`` and ``deadline_s`` are *overrides*: None means "use the
    session's / daemon's defaults".  ``constraints`` holds only the
    wire-safe structure (tuples of pattern-vertex ids); the matching
    predicates travel out-of-band.
    """

    pattern: Pattern
    mode: str = "count"
    induced: bool = False
    constraints: tuple[tuple[int, ...], ...] = ()
    engine: "object | None" = None  # EngineOptions, kept untyped for wire
    deadline_s: float | None = None
    client_id: str = "local"
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("count", "mine", "constrained"):
            raise ReproError(
                f"MiningRequest.mode must be count/mine/constrained, "
                f"got {self.mode!r}"
            )
        if self.mode != "constrained" and self.constraints:
            raise ReproError("constraints require mode='constrained'")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ReproError("deadline_s must be positive")

    def to_wire(self) -> dict:
        if self.mode != "count":
            # UDFs/predicates cannot be serialized; only counting
            # requests are daemon-eligible.
            raise ReproError(
                f"mode={self.mode!r} requests cannot cross the wire"
            )
        wire = {
            "pattern": pattern_to_wire(self.pattern),
            "mode": self.mode,
            "induced": self.induced,
            "client_id": self.client_id,
            "request_id": self.request_id,
        }
        if self.deadline_s is not None:
            wire["deadline_s"] = self.deadline_s
        if self.engine is not None:
            wire["engine"] = _engine_to_wire(self.engine)
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "MiningRequest":
        if not isinstance(wire, dict):
            raise ReproError("request must be a JSON object")
        unknown = set(wire) - {
            "pattern", "mode", "induced", "deadline_s", "engine",
            "client_id", "request_id",
        }
        if unknown:
            raise ReproError(f"unknown request fields: {sorted(unknown)}")
        if "pattern" not in wire:
            raise ReproError("request is missing 'pattern'")
        engine = wire.get("engine")
        return cls(
            pattern=pattern_from_wire(wire["pattern"]),
            mode=str(wire.get("mode", "count")),
            induced=bool(wire.get("induced", False)),
            engine=_engine_from_wire(engine) if engine is not None else None,
            deadline_s=(
                float(wire["deadline_s"])
                if wire.get("deadline_s") is not None else None
            ),
            client_id=str(wire.get("client_id", "local")),
            request_id=str(wire.get("request_id", "")),
        )


@dataclass(frozen=True)
class MiningResponse:
    """Everything a caller can ask about one finished request."""

    request_id: str
    client_id: str
    ok: bool
    count: int | None = None
    raw_count: int = 0
    mode: str = "count"
    run_id: str = ""
    plan_key: str = ""
    plan_cache_hit: bool = False
    seconds: float = 0.0
    cancelled: str | None = None
    salvage: dict | None = None
    metrics: dict = field(default_factory=dict)
    error: str | None = None
    #: Non-empty when the response came out of a batch DAG run
    #: (``DecoMine.submit_batch`` / the daemon's ``submit_batch`` op):
    #: every response of one batch shares the id the ledger tagged the
    #: node executions with.
    batch_id: str = ""

    def to_wire(self) -> dict:
        wire = {f.name: getattr(self, f.name) for f in fields(self)}
        wire["salvage"] = dict(self.salvage) if self.salvage else None
        wire["metrics"] = dict(self.metrics)
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "MiningResponse":
        if not isinstance(wire, dict):
            raise ReproError("response must be a JSON object")
        names = {f.name for f in fields(cls)}
        unknown = set(wire) - names
        if unknown:
            raise ReproError(f"unknown response fields: {sorted(unknown)}")
        kwargs = {name: wire[name] for name in names if name in wire}
        if "constraints" in kwargs:  # pragma: no cover - defensive
            kwargs["constraints"] = tuple(
                tuple(v) for v in kwargs["constraints"])
        return cls(**kwargs)


def batch_requests_to_wire(requests) -> list[dict]:
    """Encode a request batch for the daemon's ``submit_batch`` op."""
    requests = list(requests)
    if not requests:
        raise ReproError("a batch needs at least one request")
    return [request.to_wire() for request in requests]


def batch_requests_from_wire(wire) -> list[MiningRequest]:
    """Decode and validate a ``submit_batch`` request payload.

    The payload must be a non-empty JSON array; every element goes
    through the single-request validation (unknown fields rejected,
    count mode only).
    """
    if not isinstance(wire, list):
        raise ReproError("batch must be a JSON array of requests")
    if not wire:
        raise ReproError("batch must contain at least one request")
    return [MiningRequest.from_wire(item) for item in wire]


def _engine_to_wire(engine) -> dict:
    from dataclasses import asdict

    wire = asdict(engine)
    wire.pop("faults", None)  # fault plans are a local testing affordance
    wire.pop("progress", None)
    return wire


def _engine_from_wire(wire: dict):
    from repro.runtime.engine import EngineOptions

    if not isinstance(wire, dict):
        raise ReproError("engine override must be a JSON object")
    allowed = {
        "workers", "chunks_per_worker", "executor", "cache", "orientation",
    }
    unknown = set(wire) - allowed
    if unknown:
        raise ReproError(f"unknown engine fields: {sorted(unknown)}")
    return EngineOptions(**{k: wire[k] for k in allowed if k in wire})
