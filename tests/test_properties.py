"""Property tests: descriptors round-trip and verify themselves, and malformed
channel specs exit 1 with a message."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import adder_mac, adder_mac3, parallel_mac
from macresolve.cli import main
from macresolve.encoder import build_mac_code, code_from_descriptor, \
    code_to_descriptor
from macresolve.probcore import Dist, channel_to_json, make_rng

SETTINGS = settings(max_examples=25, deadline=None, database=None)
BUILD = "0123456789abcdef"   # stands in for a build config's hash


@st.composite
def small_codes(draw):
    """A case-1, case-2 or multi code at N in {2, 4, 8} and k in 1..3."""
    mode = draw(st.sampled_from(["case1", "case2", "multi"]))
    kw = {"xi": 0.05}
    if mode == "case1":
        ch, inputs = adder_mac(), [Dist.bernoulli(0.5)] * 2
        kw["eps_split"] = draw(st.floats(0.0, 1.0))
    elif mode == "case2":
        ch, inputs = parallel_mac(), [Dist.bernoulli(0.3), Dist.bernoulli(0.6)]
    else:
        ch = adder_mac3()
        inputs = [Dist.bernoulli(p) for p in (0.2, 0.3, 0.4)]
        kw["order"] = tuple(draw(st.permutations(range(3))))
    if draw(st.booleans()):
        kw["xi"], kw["delta"] = draw(
            st.tuples(*[st.sampled_from([0.0, 0.05, 0.5])] * 2))
    return build_mac_code(
        ch, inputs, mode=mode, block_len=draw(st.sampled_from([2, 4, 8])),
        k=draw(st.integers(1, 3)), rng=make_rng(
            draw(st.integers(0, 2 ** 32 - 1))), **kw)


@SETTINGS
@given(small_codes())
def test_descriptor_round_trip(code):
    desc = code_to_descriptor(code, BUILD)
    again = code_to_descriptor(
        code_from_descriptor(json.loads(json.dumps(desc)), BUILD), BUILD)
    assert again == desc
    assert json.dumps(again) == json.dumps(desc)


def _edited(value):
    """A JSON value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "_"


@SETTINGS
@given(small_codes(), st.data())
def test_edited_derived_leaf_is_named(code, data):
    desc = json.loads(json.dumps(code_to_descriptor(code, BUILD)))
    leaves = [("streams", i, key) for i, s in enumerate(desc["streams"])
              for key in s]
    leaves += [("eps",), ("asymptotic_only",)]
    if desc["split"] is not None:
        leaves += [("split", key) for key in desc["split"] if key != "eps"]
    path = data.draw(st.sampled_from(leaves))
    owner = desc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = _edited(owner[path[-1]])
    where = "".join(f"[{key!r}]" for key in path)
    with pytest.raises(ValueError, match=re.escape(f"descriptor field {where} ")):
        code_from_descriptor(desc, BUILD)


@SETTINGS
@given(small_codes(), st.data())
def test_mistyped_chosen_leaf_is_named(code, data):
    desc = json.loads(json.dumps(code_to_descriptor(code, BUILD)))
    leaves = [("block_len",), ("k",), ("xi",), ("delta",)]
    if desc["split"] is not None:
        leaves.append(("split", "eps"))
    leaves += [(table, name, key) for table, key in (("profiles", "beta"),
                                                      ("hashes", "hex"))
               for name in desc[table]]
    # the containers the loader reads, and the JSON types each may take
    takes = {("split",): (dict, type(None)), ("user_order",): (list, type(None))}
    leaves += [(key,) for key in ("channel", "input_dists", "profiles",
                                  "hashes", "split", "user_order")]
    path = data.draw(st.sampled_from(leaves))
    owner = desc
    for key in path[:-1]:
        owner = owner[key]
    value = owner[path[-1]]
    owner[path[-1]] = data.draw(st.sampled_from(
        [other for other in (str(value), None, True, 1, 1.5, [value],
                             {"v": value})
         if type(other) not in takes.get(path, (type(value),))]))
    where = "".join(f"[{key!r}]" for key in path)
    with pytest.raises(ValueError, match=re.escape(f"descriptor field {where} ")):
        code_from_descriptor(desc, BUILD)


_ADDER = channel_to_json(adder_mac(), [Dist.bernoulli(0.5)] * 2)


@st.composite
def malformed_specs(draw):
    """(spec, extra flags, text the error names) of a channel spec that no
    command may accept."""
    spec = json.loads(json.dumps(_ADDER))
    kind = draw(st.sampled_from(["non_finite", "shape", "ragged", "ternary",
                                 "mistyped"]))
    if kind == "non_finite":
        field = draw(st.sampled_from(["transition", "input_dists"]))
        row = draw(st.integers(0, len(spec[field]) - 1))
        col = draw(st.integers(0, len(spec[field][row]) - 1))
        spec[field][row][col] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
        return spec, [], "non-finite"
    if kind == "shape":
        rows = draw(st.integers(1, 6).filter(lambda n: n != 4))
        width = draw(st.integers(1, 5))
        spec["transition"] = [[1.0] + [0.0] * (width - 1)] * rows
        return spec, [], "transition"
    if kind == "ragged":
        row = draw(st.integers(0, 3))
        spec["transition"][row] = spec["transition"][row][
            :draw(st.sampled_from([1, 2]))]
        return spec, [], "transition"
    if kind == "mistyped":   # a field of another JSON type
        field = draw(st.sampled_from(["inputs", "output", "transition",
                                      "input_dists"]))
        value = spec[field]
        spec[field] = draw(st.sampled_from(
            [other for other in (str(value), None, True, 1, 1.5, [value],
                                 {"v": value})
             if type(other) is not type(value)]))
        return spec, [], f"channel spec field ['{field}'] "
    # Y ternary: Z = X + Y over {0..3}; rate splitting needs binary inputs
    spec = {"inputs": [2, 3], "output": 4,
            "transition": [[1.0 if z == x + y else 0.0 for z in range(4)]
                           for x in range(2) for y in range(3)],
            "input_dists": [[0.5, 0.5], [0.2, 0.3, 0.5]]}
    return spec, ["--mode", "case1"], ""


@SETTINGS
@given(malformed_specs())
def test_malformed_spec_exits_with_a_message(spec_flags):
    spec, flags, named = spec_flags
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["build", "--channel", str(path), "--out-dir",
                       str(Path(tmp) / "o"), "--n", "4", "--idealized", *flags])
        assert rc == 1
        assert "error: " in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert named in err.getvalue()
        assert not (Path(tmp) / "o").exists()
