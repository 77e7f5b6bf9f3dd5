"""Finite category validation and serialization tests."""

import re
import time

import pytest

from garnet.errors import MalformedInput
from garnet.fincat import (
    FinCategory,
    category_from_json,
    category_to_json,
    discrete_category,
    validate_category,
)


def terminal_category():
    return FinCategory(["*"], [], {})


def walking_cospan():
    return FinCategory(
        ["b", "a", "b'"],
        [("t_b", "b", "a"), ("t_b'", "b'", "a")],
        {})


def walking_arrow():
    return FinCategory(["x", "y"], [("f", "x", "y")], {})


def test_terminal_category_is_valid():
    assert validate_category(terminal_category()) == []


def test_walking_cospan_is_valid():
    cat = walking_cospan()
    assert validate_category(cat) == []
    assert [m.name for m in cat.non_identity_morphisms()] == ["t_b", "t_b'"]
    assert cat.compose("t_b", "id_b") == "t_b"
    assert cat.compose("id_a", "t_b'") == "t_b'"


def test_identities_are_auto_inserted():
    cat = walking_arrow()
    assert cat.has_morphism("id_x") and cat.has_morphism("id_y")
    assert cat.is_identity("id_x")
    assert not cat.is_identity("f")


def test_corrupted_associativity_is_reported():
    # the constructor refuses the category with validate_category's report
    with pytest.raises(MalformedInput, match=re.escape(
            "associativity fails at ('h', 'g', 'f')")):
        FinCategory(
            ["w", "x", "y", "z"],
            [("f", "w", "x"), ("g", "x", "y"), ("h", "y", "z"),
             ("gf", "w", "y"), ("hg", "x", "z"), ("p", "w", "z"),
             ("q", "w", "z")],
            {("g", "f"): "gf", ("h", "g"): "hg",
             ("h", "gf"): "p", ("hg", "f"): "q",
             ("p", "id_w"): "p", ("q", "id_w"): "q"})


def test_missing_composite_is_reported():
    with pytest.raises(MalformedInput, match=re.escape(
            "compose missing for ('g', 'f')")):
        FinCategory(["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z")], {})


def test_dangling_reference_raises():
    with pytest.raises(MalformedInput):
        FinCategory(["x"], [("f", "x", "nowhere")], {})
    with pytest.raises(MalformedInput):
        FinCategory(["x"], [], {("f", "id_x"): "id_x"})


def test_small_category_validation_is_fast():
    cat = walking_cospan()
    start = time.perf_counter()
    for _ in range(200):
        validate_category(cat)
    assert (time.perf_counter() - start) / 200 < 0.001


def test_discrete_category():
    cat = discrete_category(["u", "v"])
    assert cat.non_identity_morphisms() == ()
    assert validate_category(cat) == []
    assert walking_arrow().non_identity_morphisms()


def test_category_json_round_trip():
    cat = walking_cospan()
    data = category_to_json(cat)
    assert category_from_json(data) == cat
    # identities stay implicit in the serialized form
    assert [m["name"] for m in data["morphisms"]] == ["t_b", "t_b'"]


def test_category_json_rejects_bad_entries():
    with pytest.raises(MalformedInput):
        category_from_json({"objects": ["x"], "morphisms": [{"name": "f"}]})
    with pytest.raises(MalformedInput):
        category_from_json({"objects": ["x"], "morphisms": [],
                            "compose": [{"g": "id_x"}]})
