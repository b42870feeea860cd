import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graph_set
from sct import check_sct_criterion
from sct.jsonio import (
    SchemaError,
    dumps,
    graph_set_to_json,
    load_graph_set,
    load_graph_set_file,
    verdict_to_json,
)
from sct.reduction import spp_reduction_family


class TestRoundTrip:
    def test_fixture_round_trips(self, ack_graphs):
        assert load_graph_set(graph_set_to_json(ack_graphs)) == ack_graphs

    def test_random_sets_round_trip(self):
        rng = random.Random(61)
        for _ in range(30):
            gs = random_graph_set(rng, max_funs=3, max_arity=3, max_graphs=4)
            assert load_graph_set(graph_set_to_json(gs)) == gs

    def test_names_default_when_missing(self, ack_graphs):
        data = graph_set_to_json(ack_graphs)
        for g in data["graphs"]:
            del g["name"]
        assert load_graph_set(data).names == ("g0", "g1")


class TestSchemaErrors:
    def base(self, ack_graphs):
        return graph_set_to_json(ack_graphs)

    def test_unknown_arc_parameter(self, ack_graphs):
        data = self.base(ack_graphs)
        data["graphs"][0]["arcs"][0]["from"] = "zz"
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/graphs/0/arcs/0/from"

    def test_unknown_source_function(self, ack_graphs):
        data = self.base(ack_graphs)
        data["graphs"][1]["source"] = "B"
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/graphs/1/source"

    def test_bad_kind(self, ack_graphs):
        data = self.base(ack_graphs)
        data["graphs"][0]["arcs"][0]["kind"] = "wobbly"
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/graphs/0/arcs/0/kind"

    def test_duplicate_arc(self, ack_graphs):
        data = self.base(ack_graphs)
        data["graphs"][0]["arcs"].append(dict(data["graphs"][0]["arcs"][0]))
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/graphs/0/arcs/1"

    def test_missing_key(self):
        with pytest.raises(SchemaError) as exc:
            load_graph_set({"functions": []})
        assert "graphs" in str(exc.value)

    def test_duplicate_function(self):
        data = {
            "functions": [
                {"name": "f", "params": ["x"]},
                {"name": "f", "params": ["y"]},
            ],
            "graphs": [],
        }
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/functions/1/name"

    def test_empty_params(self):
        data = {"functions": [{"name": "f", "params": []}], "graphs": []}
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/functions/0/params"

    def test_repeated_params(self):
        data = {"functions": [{"name": "f", "params": ["x", "x"]}], "graphs": []}
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/functions/0/params"

    def test_unknown_arc_target_parameter(self, ack_graphs):
        data = self.base(ack_graphs)
        data["graphs"][1]["arcs"][0]["to"] = "zz"
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/graphs/1/arcs/0/to"

    def test_duplicate_graph_name(self, ack_graphs):
        data = self.base(ack_graphs)
        data["graphs"][1]["name"] = data["graphs"][0]["name"]
        with pytest.raises(SchemaError) as exc:
            load_graph_set(data)
        assert exc.value.pointer == "/graphs"

    @pytest.mark.parametrize("wrap", ["{}", '{{"functions": {}, "graphs": []}}'])
    def test_nested_too_deeply(self, tmp_path, wrap):
        path = tmp_path / "deep.json"
        path.write_text(wrap.format("[" * 100_000 + "]" * 100_000), encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_graph_set_file(path)
        assert (exc.value.pointer, exc.value.message) == ("", "invalid JSON: nested too deeply")
        assert str(exc.value) == "/: invalid JSON: nested too deeply"


class TestVerdictJson:
    def test_sct_shape(self, ack_graphs):
        verdict = check_sct_criterion(ack_graphs)
        assert verdict_to_json(verdict, ack_graphs) == {"sct": True}

    def test_counterexample_shape(self, swap_graphs):
        verdict = check_sct_criterion(swap_graphs)
        data = verdict_to_json(verdict, swap_graphs)
        assert data["sct"] is False
        assert data["lasso"] == {"prefix": [], "period": ["S", "S"]}
        failing = data["failing_idempotent"]
        assert failing["witness"] == ["S", "S"]
        assert failing["arcs"] == [
            {"from": "x", "kind": "nonstrict", "to": "x"},
            {"from": "y", "kind": "nonstrict", "to": "y"},
        ]


def reference_dumps(data):
    return json.dumps(data, indent=2) + "\n"


# non-ASCII, quotes, backslashes and control characters among plain letters
text = st.text(max_size=6) | st.text(
    st.sampled_from("ab\"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600"), max_size=6
)
leaves = st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70) | text
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(text, inner, max_size=4),
    max_leaves=20,
)


class TestDumps:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(documents)
    def test_matches_json_dumps(self, data):
        assert dumps(data) == reference_dumps(data)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_family_graph_set(self, k):
        data = graph_set_to_json(spp_reduction_family(k))
        assert dumps(data) == reference_dumps(data)

    def test_float_leaf(self):
        data = {"x": [1.5, -0.0, 1e300, float("inf"), float("nan")]}
        assert dumps(data) == reference_dumps(data)

    def test_json_dumps_sees_only_leaves(self, monkeypatch):
        data = {"a": [1.5, {"b": ("c", 2)}], "d": None}
        expected, seen, real = reference_dumps(data), [], json.dumps
        monkeypatch.setattr(json, "dumps", lambda value: seen.append(value) or real(value))
        assert dumps(data) == expected
        assert seen == [1.5]

    def test_integers_past_the_digit_limit(self):
        # zeros at either end of a split, a sign, and just past the limit
        limit = sys.get_int_max_str_digits()
        values = [10**limit, 10**limit - 1, -(10**6000) - 7, 2**16384, 7 * 10**9000 + 10**4000]
        data = {"big": values + [random.Random(0).getrandbits(60_000)]}
        sys.set_int_max_str_digits(0)
        try:
            expected = reference_dumps(data)
        finally:
            sys.set_int_max_str_digits(limit)
        assert dumps(data) == expected

    def test_other_leaf_and_key_raise_type_error(self):
        with pytest.raises(TypeError):
            dumps({"x": {1, 2}})
        with pytest.raises(TypeError):
            dumps({1: "x"})
