"""Protocol layer: envelopes, validation, normalization, bit-exactness."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.specs import ALL_GPUS
from repro.kernels.base import workload_names
from repro.serve.protocol import (
    ERROR_CODES,
    ProtocolError,
    QUERY_KINDS,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    names_shard,
    normalize_params,
)


class TestRequestRoundTrip:
    def test_minimal(self):
        req = decode_request('{"kind": "ping"}')
        assert req.kind == "ping"
        assert req.params == {}
        assert req.id is None and req.deadline_s is None and not req.fresh

    def test_full_round_trip(self):
        req = Request(kind="quadrant",
                      params=normalize_params("quadrant",
                                              {"workload": "gemv"}),
                      id="q7", deadline_s=2.5, fresh=True)
        line = encode_request(req)
        assert line.endswith("\n") and "\n" not in line[:-1]
        back = decode_request(line)
        assert back == req

    def test_perf_defaults_filled(self):
        req = decode_request('{"kind": "perf"}')
        assert req.params == {"workloads": None,
                              "gpus": ["A100", "H200", "B200"]}

    def test_equivalent_requests_normalize_identically(self):
        a = normalize_params("perf", {"workloads": ["gemv"]})
        b = normalize_params("perf", {"workloads": ["gemv"],
                                      "gpus": ["A100", "H200", "B200"]})
        assert a == b

    def test_gpu_name_canonicalized(self):
        p = normalize_params("accuracy", {"workload": "gemv",
                                          "gpu": "h200"})
        assert p["gpu"] == "H200"


class TestRequestValidation:
    @pytest.mark.parametrize("line,code", [
        ("not json", "bad_request"),
        ("[1,2]", "bad_request"),
        ('{"params": {}}', "bad_request"),
        ('{"kind": "nope"}', "unknown_kind"),
        ('{"kind": "ping", "deadline_s": -1}', "bad_request"),
        ('{"kind": "ping", "fresh": "yes"}', "bad_request"),
        ('{"kind": "ping", "id": 7}', "bad_request"),
        ('{"kind": "quadrant", "params": {}}', "bad_params"),
        ('{"kind": "quadrant", "params": {"workload": "nope"}}',
         "bad_params"),
        ('{"kind": "quadrant", "params": {"workload": "gemv", '
         '"extra": 1}}', "bad_params"),
        ('{"kind": "perf", "params": {"gpus": ["Z100"]}}', "bad_params"),
        ('{"kind": "perf", "params": {"workloads": []}}', "bad_params"),
        ('{"kind": "edp", "params": {"workload": "gemv", '
         '"repeats": 0}}', "bad_params"),
        ('{"kind": "whatif", "params": {"scales": {"sms": 2.0}}}',
         "bad_params"),
        ('{"kind": "whatif", "params": {"scales": {"tc_fp64": -1}}}',
         "bad_params"),
        ('{"kind": "whatif", "params": {"scales": {"tc_fp64": 2}, '
         '"variant": "turbo"}}', "bad_params"),
        ('{"kind": "metrics", "params": {"x": 1}}', "bad_params"),
        # every number must be finite: json.loads reads NaN and Infinity,
        # 1e400 as inf, and float() overflows on an integer past 1e308
        ('{"kind": "ping", "deadline_s": NaN}', "bad_request"),
        ('{"kind": "ping", "deadline_s": Infinity}', "bad_request"),
        ('{"kind": "ping", "deadline_s": 1e400}', "bad_request"),
        pytest.param('{"kind": "ping", "deadline_s": 1' + "0" * 400 + "}",
                     "bad_request", id="deadline-past-float-range"),
        ('{"kind": "whatif", "params": {"scales": {"dram_bw": NaN}}}',
         "bad_params"),
        ('{"kind": "whatif", "params": {"scales": {"dram_bw": Infinity}}}',
         "bad_params"),
        ('{"kind": "whatif", "params": {"scales": {"dram_bw": 1e400}}}',
         "bad_params"),
        pytest.param('{"kind": "whatif", "params": {"scales": '
                     '{"dram_bw": 1' + "0" * 400 + "}}}", "bad_params",
                     id="scale-past-float-range"),
        # json.loads raises ValueError past its integer digit limit and
        # RecursionError past its nesting depth
        pytest.param('{"kind": "ping", "deadline_s": ' + "1" * 5000 + "}",
                     "bad_request", id="integer-past-digit-limit"),
        pytest.param('{"kind": "ping", "params": ' + "[" * 5000
                     + "]" * 5000 + "}", "bad_request", id="deep-nesting"),
    ])
    def test_rejects(self, line, code):
        with pytest.raises(ProtocolError) as err:
            decode_request(line)
        assert err.value.code == code

    def test_every_code_is_registered(self):
        with pytest.raises(ValueError):
            ProtocolError("not_a_code", "boom")
        assert "model_error" in ERROR_CODES

    def test_every_kind_has_a_normalizer(self):
        for kind in QUERY_KINDS:
            # each normalizer accepts its own canonical output
            if kind in ("metrics", "ping", "observations"):
                assert normalize_params(kind, {}) == {}

    def test_whatif_normalizes_scales(self):
        p = normalize_params("whatif", {"base": "b200",
                                        "scales": {"tc_fp64": 2}})
        assert p["base"] == "B200"
        assert p["scales"] == {"tc_fp64": 2.0}
        assert isinstance(p["scales"]["tc_fp64"], float)
        assert p["variant"] == "tc"


#: every parameter name some query kind accepts
_PARAM_NAMES = ["base", "gpu", "gpus", "repeats", "scales", "variant",
                "workload", "workloads"]
_NAMES = st.sampled_from(workload_names() + [g.name for g in ALL_GPUS]
                         + ["h200", "nope", "tc", "cc", "turbo"])
_NUMBERS = st.integers() | st.floats()  # NaN and infinities included
_LEAVES = _NAMES | _NUMBERS
#: a parameter's value: a leaf, a list of leaves, or a whatif-shaped map
_PARAM_VALUES = _LEAVES | st.lists(_LEAVES, max_size=3) | st.dictionaries(
    st.sampled_from(["dram_bw", "tc_fp64", "launch_overhead_s", "sms"]),
    _LEAVES, max_size=3)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=4)
#: each envelope member takes any JSON value, weighted toward its own type
_ENVELOPES = st.fixed_dictionaries(
    {"kind": st.sampled_from(sorted(QUERY_KINDS)) | st.text(max_size=8)},
    optional={
        "params": st.dictionaries(st.sampled_from(_PARAM_NAMES),
                                  _PARAM_VALUES, max_size=4),
        "deadline_s": _NUMBERS | _ANY_JSON,
        "fresh": st.booleans() | _ANY_JSON,
        "id": st.text(max_size=6) | _ANY_JSON,
    })


class TestRequestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(env=_ENVELOPES)
    @example(env={"kind": "ping", "deadline_s": math.nan})
    @example(env={"kind": "whatif",
                  "params": {"scales": {"dram_bw": math.inf}}})
    def test_decoded_requests_are_finite_and_canonical(self, env):
        """A request envelope decodes to a ProtocolError or to a request
        whose numbers are finite and whose params are canonical."""
        try:
            req = decode_request(json.dumps(env))
        except ProtocolError:
            return
        assert req.deadline_s is None \
            or (math.isfinite(req.deadline_s) and req.deadline_s > 0)
        if req.kind == "whatif":
            assert all(math.isfinite(v)
                       for v in req.params["scales"].values())
        assert normalize_params(req.kind, req.params) == req.params


class TestResponseRoundTrip:
    def test_ok_round_trip(self):
        resp = Response(id="q1", ok=True, result={"x": 1},
                        served_by="cache", trace={"total_s": 0.1})
        back = decode_response(encode_response(resp))
        assert back == resp

    def test_error_round_trip(self):
        resp = Response(id=None, ok=False,
                        error={"code": "overloaded", "message": "full"},
                        stale=False)
        back = decode_response(encode_response(resp))
        assert back.error == {"code": "overloaded", "message": "full"}
        assert not back.ok

    def test_floats_survive_bit_exactly(self):
        values = [math.pi, 1.0 / 3.0, 6.02214076e23, 5e-324,
                  3.7025836958577646e-06]
        resp = Response(id="f", ok=True, result=values)
        back = decode_response(encode_response(resp))
        assert [v.hex() for v in back.result] == [v.hex() for v in values]

    def test_malformed_response_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response("{}")
        with pytest.raises(ProtocolError):
            decode_response("garbage")

    def test_failover_replays_written_only_when_nonzero(self):
        plain = encode_response(Response(id="a", ok=True, result=1,
                                         shard_id="s1"))
        assert "failover_replays" not in json.loads(plain)
        assert decode_response(plain).failover_replays == 0
        replayed = Response(id="a", ok=True, result=1, shard_id="s1",
                            failover_replays=2)
        assert decode_response(encode_response(replayed)) == replayed

    def test_names_shard_reads_only_the_top_level_stamp(self):
        nested = {"shard_id": "s1"}
        stamped = encode_response(Response(
            id="a", ok=True, result=nested, shard_id="s1")).encode()
        assert names_shard(stamped, "s1")
        assert not names_shard(stamped, "s2")
        unstamped = encode_response(Response(
            id="a", ok=True, result=nested)).encode()
        assert not names_shard(unstamped, "s1")
        replayed = encode_response(Response(
            id="a", ok=True, result=1, shard_id="s1",
            failover_replays=1)).encode()
        assert not names_shard(replayed, "s1")

    def test_wire_is_single_compact_line(self):
        line = encode_response(Response(id="a", ok=True, result=[1, 2]))
        assert line.endswith("\n")
        payload = json.loads(line)
        assert payload["result"] == [1, 2]
        assert payload["stale"] is False
