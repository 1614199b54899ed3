"""The unified engine registry: every ``engine=`` selector in one place.

Three execution domains grew their own engine plumbing — the device
measurement fast path (``repro.core.fastpath``), the batched mesh kernel
(``repro.noc.mesh.fastmesh``) and now the batched VC/credit mesh
(``repro.noc.mesh.vcmesh_batched``) — each with a hand-maintained name
tuple, a fail-fast resolver and an ad-hoc cache fingerprint.  This
module replaces those per-site checks with ONE registry:

* :func:`register` declares an engine under a *domain* (``"device"``,
  ``"mesh"``, ``"vcmesh"``) with an optional version fingerprint and
  capability flags;
* :func:`resolve` validates an ``engine=`` argument against a domain
  (``None`` means the domain default);
* :func:`fingerprint` / :func:`fingerprint_for` produce the cache-key
  fragment :func:`repro.exec.cache.cache_key` folds in, so a cached
  result is invalidated exactly when the engine that produced it is
  re-versioned;
* :func:`describe` lists the catalogue for ``repro engines`` and the
  serve endpoint parameter schemas.

The golden ``"scalar"`` engine of every domain is *version-free by
design*: its results define correctness, so its fingerprint is just the
name.  Every non-golden engine MUST register a ``version`` plus the
``version_field`` under which it appears in fingerprints — the REP009
lint rule fails the build otherwise (a missing version silently serves
stale cache entries across kernel changes).

Version constants live here (the registry owns fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Bumped whenever the vectorized measurement engine changes in a way
#: that *could* alter results; folded into ResultCache keys.
FASTPATH_VERSION = 1

#: Same contract for the batched mesh kernel.
FASTMESH_VERSION = 1

#: Same contract for the batched VC/credit mesh kernel.
VCMESH_VERSION = 1


@dataclass(frozen=True)
class Engine:
    """One registered engine implementation."""
    domain: str
    name: str
    version: int | None = None
    version_field: str | None = None
    capabilities: frozenset = field(default_factory=frozenset)
    summary: str = ""
    default: bool = False

    @property
    def qualified(self) -> str:
        return f"{self.domain}:{self.name}"

    @property
    def golden(self) -> bool:
        """Version-free engines define correctness for their domain."""
        return self.version is None

    def fingerprint(self) -> dict:
        if self.version is None:
            return {"name": self.name}
        return {"name": self.name, self.version_field: self.version}


_REGISTRY: dict[tuple[str, str], Engine] = {}
_DEFAULTS: dict[str, str] = {}


def register(domain: str, name: str, *, version: int | None = None,
             version_field: str | None = None,
             capabilities: tuple = (), summary: str = "",
             default: bool = False) -> Engine:
    """Declare an engine; duplicate (domain, name) pairs are rejected.

    Non-golden engines (``version is not None``) must name the
    ``version_field`` their fingerprint carries; a ``version_field``
    ending in ``_version`` keeps fingerprints self-describing.
    """
    if (domain, name) in _REGISTRY:
        raise ConfigurationError(
            f"engine {domain}:{name} registered twice")
    if version is not None and not (version_field or "").endswith("_version"):
        raise ConfigurationError(
            f"engine {domain}:{name} has a version but no *_version "
            "fingerprint field")
    if version is None and version_field is not None:
        raise ConfigurationError(
            f"engine {domain}:{name} names a version_field without a "
            "version")
    engine = Engine(domain=domain, name=name, version=version,
                    version_field=version_field,
                    capabilities=frozenset(capabilities),
                    summary=summary, default=default)
    _REGISTRY[(domain, name)] = engine
    if default:
        if domain in _DEFAULTS:
            raise ConfigurationError(
                f"domain {domain!r} already has default engine "
                f"{_DEFAULTS[domain]!r}")
        _DEFAULTS[domain] = name
    return engine


def domains() -> tuple:
    """Registered domain names, in registration order."""
    seen: list[str] = []
    for domain, _name in _REGISTRY:
        if domain not in seen:
            seen.append(domain)
    return tuple(seen)


def names(domain: str) -> tuple:
    """Engine names of a domain, in registration order."""
    found = tuple(n for d, n in _REGISTRY if d == domain)
    if not found:
        raise ConfigurationError(f"unknown engine domain {domain!r}")
    return found


def get(domain: str, name: str) -> Engine:
    engine = _REGISTRY.get((domain, name))
    if engine is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; use one of "
            f"{', '.join(names(domain))}")
    return engine


def default_name(domain: str) -> str:
    """The domain's default engine (what ``engine=None`` resolves to)."""
    name = _DEFAULTS.get(domain)
    if name is None:
        raise ConfigurationError(
            f"engine domain {domain!r} has no default engine")
    return name


def resolve(domain: str, engine: str | None) -> str:
    """Validate an ``engine=`` argument against a domain.

    ``None`` resolves to the domain's registered default.  Unknown
    names fail fast with the accepted vocabulary, exactly like the
    per-site checks this replaces.
    """
    if engine is None:
        engine = default_name(domain)
    return get(domain, engine).name


def fingerprint(domain: str, engine: str | None) -> dict:
    """Cache-key fragment identifying a domain engine."""
    return get(domain, resolve(domain, engine)).fingerprint()


def fingerprint_for(ref: str) -> dict:
    """Fingerprint from an engine reference string.

    ``"domain:name"`` is exact; a bare name is accepted when it is
    unambiguous — either unique across domains or (like ``"scalar"``)
    fingerprint-identical everywhere it appears.
    """
    domain, sep, name = ref.partition(":")
    if sep:
        return get(domain, name).fingerprint()
    matches = [e for e in _REGISTRY.values() if e.name == ref]
    if not matches:
        raise ConfigurationError(f"unknown engine {ref!r}")
    prints = [e.fingerprint() for e in matches]
    if any(p != prints[0] for p in prints[1:]):
        candidates = ", ".join(e.qualified for e in matches)
        raise ConfigurationError(
            f"ambiguous engine {ref!r}; qualify as one of {candidates}")
    return prints[0]


def describe() -> list[dict]:
    """JSON catalogue of every registered engine (for CLI/serve).

    The batched mesh engine's entry also says which step it runs on
    this host (``"step"``): ``"compiled"``, or ``"numpy: <why>"`` when
    the compiled one-VC step could not be built or trusted.  Asking
    builds it if needed.
    """
    catalogue = [{"domain": e.domain, "name": e.name, "version": e.version,
                  "version_field": e.version_field, "golden": e.golden,
                  "default": e.default,
                  "capabilities": sorted(e.capabilities),
                  "summary": e.summary}
                 for e in _REGISTRY.values()]
    for entry in catalogue:
        if (entry["domain"], entry["name"]) == ("mesh", "batched"):
            from repro.noc.mesh import onevc_step
            entry["step"] = onevc_step.status()
    return catalogue


# ---------------------------------------------------------------------------
# The registrations.  Implementations stay in their packages; only the
# declaration lives here so one file answers "what engines exist".
# ---------------------------------------------------------------------------

# The ``zerocopy`` capability marks engines whose sharded sweep entry
# points return ndarray-valued shard results, eligible for the
# shared-memory transport of repro.exec.shm when run with jobs > 1.

register("device", "scalar",
         capabilities=("golden", "zerocopy"),
         summary="interpreter warps via repro.runtime (golden model)")
register("device", "vectorized", default=True,
         version=FASTPATH_VERSION, version_field="fastpath_version",
         capabilities=("vectorized", "device-state", "zerocopy"),
         summary="batched NumPy Algorithm 1/2 fast path "
                 "(repro.core.fastpath)")

register("mesh", "scalar",
         capabilities=("golden",),
         summary="per-flit one-VC VCMesh interpreter (golden model, "
                 "repro.noc.mesh.vc.one_vc_mesh)")
register("mesh", "batched", default=True,
         version=FASTMESH_VERSION, version_field="fastmesh_version",
         capabilities=("batched", "lockstep-lanes"),
         summary="struct-of-arrays lockstep mesh kernel "
                 "(repro.noc.mesh.fastmesh)")

register("vcmesh", "scalar",
         capabilities=("golden", "virtual-channels", "credit-flow",
                       "zerocopy"),
         summary="credit-based wormhole VC router interpreter "
                 "(repro.noc.mesh.vc)")
register("vcmesh", "batched", default=True,
         version=VCMESH_VERSION, version_field="vcmesh_version",
         capabilities=("batched", "lockstep-lanes", "virtual-channels",
                       "credit-flow", "zerocopy"),
         summary="struct-of-arrays lockstep VC/credit mesh kernel "
                 "(repro.noc.mesh.vcmesh_batched)")
