"""GPUSpec <-> JSON serialization.

Lets users define custom devices in a file and point any experiment (or
the CLI's ``--spec``) at them, instead of editing Python:

    spec = load_spec("my_gpu.json")
    gpu = SimulatedGPU(spec)

The JSON is a flat object of :class:`~repro.gpu.specs.GPUSpec` field
names; omitted fields take the dataclass defaults, unknown fields are
rejected loudly.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.gpu.specs import GPUSpec, get_spec

_FIELDS = {f.name: f for f in dataclasses.fields(GPUSpec)}


def spec_to_dict(spec: GPUSpec) -> dict:
    """Flat JSON-ready dict of every spec field."""
    out = dataclasses.asdict(spec)
    out["gpc_partition"] = list(spec.gpc_partition)
    return out


@functools.lru_cache(maxsize=None)
def spec_dict(name: str) -> dict:
    """:func:`spec_to_dict` of the built-in spec ``name``, built once.

    Built-in specs are frozen, so cache keys can fold in one shared dict
    per GPU name instead of deep-copying the spec on every request.  The
    dict is shared: callers must not mutate it.
    """
    return spec_to_dict(get_spec(name))


def spec_from_dict(data: dict) -> GPUSpec:
    """Build a validated GPUSpec from a flat dict."""
    if not isinstance(data, dict):
        raise ConfigurationError("spec document must be a JSON object")
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown spec fields: {', '.join(sorted(unknown))}")
    if "name" not in data:
        raise ConfigurationError("spec needs a 'name'")
    kwargs = dict(data)
    if "gpc_partition" in kwargs:
        kwargs["gpc_partition"] = tuple(kwargs["gpc_partition"])
    return GPUSpec(**kwargs)


def dump_spec(spec: GPUSpec, path) -> None:
    """Write a spec as pretty JSON."""
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2,
                                     sort_keys=True) + "\n")


def load_spec(path) -> GPUSpec:
    """Read and validate a spec JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid spec JSON in {path}: {exc}") \
            from None
    return spec_from_dict(data)
