"""Boundary validation: every malformed request is a clean 400-class error."""

import json
import math

import pytest

from repro.cache.keys import canonical_json
from repro.service.advisor import advise_key
from repro.service.protocol import (
    OBJECTIVES,
    ValidationError,
    parse_advise_request,
)

BASE = {"platform": "24-Intel-2-V100", "op": "gemm", "precision": "double"}


def test_minimal_request_gets_defaults():
    req = parse_advise_request({"platform": "24-Intel-2-V100"})
    assert req.op == "gemm"
    assert req.precision == "double"
    assert req.scale == "small"
    assert req.scheduler == "dmdas"
    assert req.seed == 0
    assert req.objective == "efficiency"
    assert req.energy_budget_j is None
    assert req.configs is None
    assert req.cpu_caps is None


def test_request_doc_is_canonical_json_safe():
    req = parse_advise_request({**BASE, "energy_budget_j": 123.5,
                               "cpu_caps": {"1": 60.0}})
    text = canonical_json(req.doc())  # must not raise (allow_nan=False)
    assert json.loads(text)["energy_budget_j"] == 123.5


def test_missing_platform_rejected():
    with pytest.raises(ValidationError, match="platform"):
        parse_advise_request({"op": "gemm"})


def test_non_object_body_rejected():
    with pytest.raises(ValidationError, match="JSON object"):
        parse_advise_request([1, 2, 3])


def test_unknown_field_rejected():
    with pytest.raises(ValidationError, match="unknown fields.*platfrom"):
        parse_advise_request({**BASE, "platfrom": "typo"})


@pytest.mark.parametrize("doc", [
    {"platform": "x" * 200_000},
    {**BASE, "x" * 200_000: 1},
    {**BASE, "seed": "7" * 200_000},
    {**BASE, "objective": "x" * 200_000},
    {**BASE, "configs": ["H" * 200_000]},
    {**BASE, "cpu_caps": {"x" * 200_000: 60.0}},
])
def test_huge_values_are_echoed_bounded(doc):
    # A bounded echo plus the message's own text (at most the allowed list).
    with pytest.raises(ValidationError) as err:
        parse_advise_request(doc)
    assert len(str(err.value)) < 250


def test_huge_platform_names_the_field_in_a_short_message():
    with pytest.raises(ValidationError, match="unknown platform 'xxx") as err:
        parse_advise_request({"platform": "x" * 200_000})
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("field,value", [
    ("platform", "no-such-node"),
    ("op", "fft"),
    ("precision", "half"),
    ("scale", "huge"),
    ("scheduler", "slurm"),
])
def test_unknown_enum_values_rejected(field, value):
    with pytest.raises(ValidationError, match=field):
        parse_advise_request({**BASE, field: value})


def test_combo_without_table2_row_rejected():
    # The platform, op and precision all exist, but Table II has no row
    # for this combination at paper fidelity... every (platform, op,
    # precision) triple in TABLE2_PAPER is valid, so fabricate the gap by
    # an op/precision pair that never co-occurs: none exist today, so
    # assert the positive path instead.
    req = parse_advise_request({**BASE, "op": "potrf", "precision": "single"})
    assert req.op == "potrf"


def test_seed_must_be_int_not_bool():
    with pytest.raises(ValidationError, match="seed"):
        parse_advise_request({**BASE, "seed": True})
    with pytest.raises(ValidationError, match="seed"):
        parse_advise_request({**BASE, "seed": 1.5})


# ----------------------------------------------------------- budget floats

def test_negative_zero_budget_canonicalised():
    a = parse_advise_request({**BASE, "energy_budget_j": -0.0})
    b = parse_advise_request({**BASE, "energy_budget_j": 0.0})
    assert a == b
    assert math.copysign(1.0, a.energy_budget_j) == 1.0  # +0.0, not -0.0
    assert advise_key(a, "f" * 64) == advise_key(b, "f" * 64)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_budget_rejected_with_field_name(bad):
    with pytest.raises(ValidationError, match="energy_budget_j"):
        parse_advise_request({**BASE, "energy_budget_j": bad})


def test_negative_budget_rejected():
    with pytest.raises(ValidationError, match="non-negative"):
        parse_advise_request({**BASE, "energy_budget_j": -10.0})


def test_string_budget_rejected():
    with pytest.raises(ValidationError, match="energy_budget_j"):
        parse_advise_request({**BASE, "energy_budget_j": "100"})


# ---------------------------------------------------------------- objective

def test_every_documented_objective_parses():
    for objective in OBJECTIVES:
        doc = {**BASE, "objective": objective}
        if objective == "weighted":
            doc["weights"] = {"energy": 0.7, "time": 0.3}
        assert parse_advise_request(doc).objective == objective


def test_unknown_objective_rejected():
    with pytest.raises(ValidationError, match="objective"):
        parse_advise_request({**BASE, "objective": "vibes"})


def test_weighted_requires_weights():
    with pytest.raises(ValidationError, match="weights"):
        parse_advise_request({**BASE, "objective": "weighted"})


def test_weights_on_other_objectives_rejected():
    with pytest.raises(ValidationError, match="weights"):
        parse_advise_request(
            {**BASE, "objective": "energy", "weights": {"energy": 1.0}}
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_rejected_with_field_name(bad):
    with pytest.raises(ValidationError, match=r"weights\[energy\]"):
        parse_advise_request({
            **BASE, "objective": "weighted",
            "weights": {"energy": bad, "time": 0.5},
        })


def test_all_zero_weights_rejected():
    with pytest.raises(ValidationError, match="positive"):
        parse_advise_request({
            **BASE, "objective": "weighted",
            "weights": {"energy": 0.0, "time": 0.0},
        })


def test_negative_weight_rejected():
    with pytest.raises(ValidationError, match="non-negative"):
        parse_advise_request({
            **BASE, "objective": "weighted",
            "weights": {"energy": -1.0, "time": 1.0},
        })


def test_unknown_weight_key_rejected():
    with pytest.raises(ValidationError, match="power"):
        parse_advise_request({
            **BASE, "objective": "weighted", "weights": {"power": 1.0},
        })


# ------------------------------------------------------------------ configs

def test_configs_normalised_upper_and_deduped():
    req = parse_advise_request({**BASE, "configs": ["hb", "HB", "LL"]})
    assert req.configs == ("HB", "LL")


def test_config_wrong_gpu_count_rejected():
    with pytest.raises(ValidationError, match="2-GPU"):
        parse_advise_request({**BASE, "configs": ["HHBB"]})


def test_config_bad_letters_rejected():
    with pytest.raises(ValidationError, match="invalid cap states"):
        parse_advise_request({**BASE, "configs": ["HX"]})


def test_empty_configs_rejected():
    with pytest.raises(ValidationError, match="configs"):
        parse_advise_request({**BASE, "configs": []})


# ----------------------------------------------------------------- cpu caps

def test_cpu_caps_parsed_and_sorted():
    req = parse_advise_request({**BASE, "cpu_caps": {"1": 60.0, "0": 90.0}})
    assert req.cpu_caps == ((0, 90.0), (1, 60.0))
    assert req.cpu_caps_dict() == {0: 90.0, 1: 60.0}


def test_cpu_caps_non_finite_rejected():
    with pytest.raises(ValidationError, match=r"cpu_caps\[1\]"):
        parse_advise_request({**BASE, "cpu_caps": {"1": float("nan")}})


def test_cpu_caps_non_positive_rejected():
    with pytest.raises(ValidationError, match="positive"):
        parse_advise_request({**BASE, "cpu_caps": {"1": 0.0}})


def test_cpu_caps_bad_index_rejected():
    with pytest.raises(ValidationError, match="package"):
        parse_advise_request({**BASE, "cpu_caps": {"one": 60.0}})


# -------------------------------------------------------------- determinism

def test_key_independent_of_field_order():
    a = parse_advise_request(
        {"platform": "24-Intel-2-V100", "seed": 3, "objective": "edp"}
    )
    b = parse_advise_request(
        {"objective": "edp", "platform": "24-Intel-2-V100", "seed": 3}
    )
    assert a == b
    assert advise_key(a, "0" * 64) == advise_key(b, "0" * 64)


def test_key_varies_with_identity_fields():
    base = parse_advise_request(dict(BASE))
    fingerprint = "0" * 64
    seen = {advise_key(base, fingerprint)}
    for variant in (
        {**BASE, "seed": 1},
        {**BASE, "objective": "energy"},
        {**BASE, "scale": "tiny"},
        {**BASE, "energy_budget_j": 50.0},
        {**BASE, "configs": ["HL"]},
    ):
        key = advise_key(parse_advise_request(variant), fingerprint)
        assert key not in seen, f"key collision for {variant}"
        seen.add(key)
    assert advise_key(base, "1" * 64) not in seen  # fingerprint matters
