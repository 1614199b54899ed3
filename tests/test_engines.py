"""repro.engines: the unified registry every engine resolves through."""

from __future__ import annotations

import pytest

from repro import engines
from repro.errors import ConfigurationError


# ------------------------------------------------------------- catalogue

def test_domains_and_names():
    assert engines.domains() == ("device", "mesh", "vcmesh")
    assert engines.names("device") == ("scalar", "vectorized")
    assert engines.names("mesh") == ("scalar", "batched")
    assert engines.names("vcmesh") == ("scalar", "batched")


def test_every_domain_has_a_scalar_golden_and_a_default():
    for domain in engines.domains():
        golden = engines.get(domain, "scalar")
        assert golden.golden
        assert golden.fingerprint() == {"name": "scalar"}
        default = engines.get(domain, engines.default_name(domain))
        assert default.default


def test_defaults():
    assert engines.default_name("device") == "vectorized"
    assert engines.default_name("mesh") == "batched"
    assert engines.default_name("vcmesh") == "batched"


def test_describe_is_json_catalogue():
    catalogue = engines.describe()
    assert all(set(entry) >= {"domain", "name", "golden", "default",
                              "version", "capabilities"}
               for entry in catalogue)
    assert any(entry["domain"] == "vcmesh" and entry["name"] == "batched"
               for entry in catalogue)


# ------------------------------------------------------------- resolution

def test_resolve_fills_domain_default():
    assert engines.resolve("mesh", None) == "batched"
    assert engines.resolve("mesh", "scalar") == "scalar"


def test_resolve_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown engine"):
        engines.resolve("mesh", "turbo")
    with pytest.raises(ConfigurationError, match="unknown engine domain"):
        engines.names("warp")


# ----------------------------------------------------------- fingerprints

def test_fingerprints_match_preregistry_shapes():
    # cache keys derive from these dicts: byte-stable across the
    # registry refactor so existing cache entries stay valid
    assert engines.fingerprint("device", "scalar") == {"name": "scalar"}
    assert engines.fingerprint("device", "vectorized") == {
        "name": "vectorized", "fastpath_version": engines.FASTPATH_VERSION}
    assert engines.fingerprint("mesh", "batched") == {
        "name": "batched", "fastmesh_version": engines.FASTMESH_VERSION}
    assert engines.fingerprint("vcmesh", "batched") == {
        "name": "batched", "vcmesh_version": engines.VCMESH_VERSION}


def test_fingerprint_for_qualified_refs():
    assert engines.fingerprint_for("mesh:batched") == \
        engines.fingerprint("mesh", "batched")
    assert engines.fingerprint_for("vcmesh:batched") == \
        engines.fingerprint("vcmesh", "batched")
    assert engines.fingerprint_for("vectorized") == \
        engines.fingerprint("device", "vectorized")


def test_fingerprint_for_bare_scalar_is_unambiguous():
    # every domain's scalar fingerprint is identical, so the bare name
    # resolves even though three domains match
    assert engines.fingerprint_for("scalar") == {"name": "scalar"}


def test_fingerprint_for_ambiguous_bare_name():
    # mesh:batched and vcmesh:batched fingerprint differently
    with pytest.raises(ConfigurationError, match="ambiguous engine"):
        engines.fingerprint_for("batched")


# ------------------------------------------------------------ registration

def test_register_rejects_duplicates_and_bad_versions():
    with pytest.raises(ConfigurationError, match="registered twice"):
        engines.register("mesh", "batched")
    with pytest.raises(ConfigurationError,
                       match=r"no \*_version fingerprint field"):
        engines.register("mesh", "halfversioned", version=1)
    with pytest.raises(ConfigurationError,
                       match=r"no \*_version fingerprint field"):
        engines.register("mesh", "badfield", version=1,
                         version_field="revision")
    with pytest.raises(ConfigurationError,
                       match="version_field without a version"):
        engines.register("mesh", "fieldonly",
                         version_field="field_version")
