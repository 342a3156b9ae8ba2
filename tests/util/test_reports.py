"""The shape checks every report validator shares: each of the four
validators rejects the same violations with its own message."""

import copy
import json
import pathlib

import pytest

from repro.experiments import (
    validate_adversary_report,
    validate_latency_report,
    validate_scale_report,
)
from repro.net.loadgen import run_loadgen, validate_net_report

ROOT = pathlib.Path(__file__).parents[2]


def _committed(name):
    return json.loads((ROOT / name).read_text())


@pytest.fixture(scope="module")
def reports():
    """One valid report per validator."""
    net = run_loadgen(
        {"protocol": "cycloid", "dimension": 3, "seed": 1},
        servers=2,
        clients=4,
        lookups=6,
        puts=2,
        seed=3,
    )
    return {
        "latency": _committed("BENCH_latency.json"),
        "adversary": _committed("BENCH_adversary.json"),
        "scale": _committed("BENCH_scale.json"),
        "net": net,
    }


VALIDATORS = {
    "latency": validate_latency_report,
    "adversary": validate_adversary_report,
    "scale": validate_scale_report,
    "net": validate_net_report,
}


def _not_an_object(report):
    return [report]


def _wrong_schema(report):
    report["schema"] = "repro/other/v1"
    return report


def _missing_seed(report):
    del report["seed"]
    return report


def _empty_cells(report):
    report["cells"] = []
    return report


def _bad_digest(report):
    if "cells" in report:
        report["cells"][0]["digest"] = "not-a-hash"
    else:
        report["digest"]["live"] = "not-a-hash"
    return report


#: (violation, validator) -> the message it has always raised.  A net
#: report has no cells; its digest violation is the engine-parity one.
CASES = {
    (_not_an_object, "latency"): "latency report must be a JSON object",
    (_not_an_object, "adversary"): "adversary report must be a JSON object",
    (_not_an_object, "scale"): "scale report must be a JSON object",
    (_not_an_object, "net"): "net report must be a JSON object",
    (_wrong_schema, "latency"): "latency report schema is "
    "'repro/other/v1', expected 'repro/latency-bench/v1'",
    (_wrong_schema, "adversary"): "adversary report schema is "
    "'repro/other/v1', expected 'repro/adversary-bench/v1'",
    (_wrong_schema, "scale"): "scale report schema is "
    "'repro/other/v1', expected 'repro/scale-bench/v1'",
    (_wrong_schema, "net"): "net report schema is "
    "'repro/other/v1', expected 'repro/net-bench/v1'",
    (_missing_seed, "latency"): "latency report is missing 'seed'",
    (_missing_seed, "adversary"): "adversary report is missing 'seed'",
    (_missing_seed, "scale"): "scale report is missing 'seed'",
    (_missing_seed, "net"): "net report is missing 'seed'",
    (_empty_cells, "latency"): "latency report has no cells",
    (_empty_cells, "adversary"): "adversary report has no cells",
    (_empty_cells, "scale"): "scale report has no cells",
    (_bad_digest, "latency"): "latency cell 'cycloid' digest is not a "
    "sha256 hex digest",
    (_bad_digest, "adversary"): "adversary cell 'cycloid/f=0' digest is "
    "not a sha256 hex digest",
    (_bad_digest, "scale"): "scale cell 'cycloid'/10000 digest is not a "
    "sha256 hex digest",
    (_bad_digest, "net"): "net report digest.live is not a sha256 hex "
    "digest",
}


@pytest.mark.parametrize(
    "violation, kind",
    list(CASES),
    ids=[f"{kind}-{violation.__name__[1:]}" for violation, kind in CASES],
)
def test_shared_violation_is_rejected_with_its_message(
    reports, violation, kind
):
    VALIDATORS[kind](reports[kind])  # the unbroken report passes
    broken = violation(copy.deepcopy(reports[kind]))
    with pytest.raises(ValueError) as raised:
        VALIDATORS[kind](broken)
    assert str(raised.value) == CASES[violation, kind]


def test_digest_must_be_hex_not_just_64_characters(reports):
    report = copy.deepcopy(reports["latency"])
    report["cells"][0]["digest"] = "z" * 64
    with pytest.raises(ValueError, match="sha256 hex digest"):
        validate_latency_report(report)
