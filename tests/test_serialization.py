"""GPUSpec JSON round-trips."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.gpu.serialization import (dump_spec, load_spec, spec_dict,
                                     spec_from_dict, spec_to_dict)
from repro.gpu.specs import A100, H100, V100


@pytest.mark.parametrize("spec", [V100, A100, H100])
def test_roundtrip_builtin_specs(spec, tmp_path):
    path = tmp_path / "spec.json"
    dump_spec(spec, path)
    loaded = load_spec(path)
    assert loaded == spec


@pytest.mark.parametrize("spec", [V100, A100, H100])
def test_spec_dict_is_memoized_spec_to_dict(spec):
    assert spec_dict(spec.name) == spec_to_dict(spec)
    assert spec_dict(spec.name) is spec_dict(spec.name)


def test_spec_dict_rejects_unknown_gpu():
    with pytest.raises(ConfigurationError):
        spec_dict("NOPE")


def test_partial_document_uses_defaults():
    spec = spec_from_dict({"name": "MINI", "num_gpcs": 2,
                           "tpcs_per_gpc": 3})
    assert spec.num_sms == 12
    assert spec.sms_per_tpc == 2          # dataclass default


def test_unknown_fields_rejected():
    with pytest.raises(ConfigurationError):
        spec_from_dict({"name": "X", "num_gpcs": 2, "tpcs_per_gpc": 2,
                        "warp_size": 32})


def test_name_required():
    with pytest.raises(ConfigurationError):
        spec_from_dict({"num_gpcs": 2, "tpcs_per_gpc": 2})


def test_invalid_values_still_validated():
    """GPUSpec's own validation runs on loaded documents."""
    with pytest.raises(ConfigurationError):
        spec_from_dict({"name": "bad", "num_gpcs": 0, "tpcs_per_gpc": 2})


def test_bad_files(tmp_path):
    with pytest.raises(ConfigurationError):
        load_spec(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_spec(broken)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        load_spec(array)


def test_dict_is_json_ready(tmp_path):
    text = json.dumps(spec_to_dict(A100))
    assert json.loads(text)["gpc_partition"] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_loaded_spec_runs_experiments(tmp_path):
    """A file-defined device works end to end."""
    from repro.gpu.device import SimulatedGPU
    path = tmp_path / "custom.json"
    dump_spec(V100, path)
    data = json.loads(path.read_text())
    data["name"] = "V100-CUSTOM"
    data["num_gpcs"] = 4
    data["gpc_partition"] = [0, 0, 0, 0]
    path.write_text(json.dumps(data))
    gpu = SimulatedGPU(load_spec(path))
    assert gpu.num_sms == 56
    profile = gpu.latency.latency_matrix(sms=[0], slices=[0, 5])
    assert profile.shape == (1, 2)
