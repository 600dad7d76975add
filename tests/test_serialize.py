import pytest

from lya.errors import InputError
from lya.exactlin import Matrix, Subspace
from lya.lyalg import CATALOG_NAMES, catalog
from lya.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    canonical_json,
    leibniz_from_dict,
    lie_bracket_from_dict,
    map_from_dict,
    map_to_dict,
    parse_vector_arg,
    raw_algebra_from_dict,
    subspace_from_dict,
    subspace_to_dict,
)


def test_algebra_round_trip_on_catalog():
    for name in CATALOG_NAMES:
        a = catalog(name)
        b = algebra_from_dict(algebra_to_dict(a))
        assert b.dim == a.dim
        assert b.labels == a.labels
        assert b.c == a.c
        assert b.d == a.d


def test_algebra_dict_lists_only_upper_pairs():
    a = catalog("sl2")
    data = algebra_to_dict(a)
    assert all(i < j for i, j, _ in data["binary"])
    assert all(i < j for i, j, _, _ in data["ternary"])


def test_abelian_export_is_empty():
    data = algebra_to_dict(catalog("abelian3"))
    assert data["binary"] == [] and data["ternary"] == []


def test_lts_export_has_only_ternary():
    data = algebra_to_dict(catalog("lts_sl2"))
    assert data["binary"] == [] and data["ternary"] != []


def test_loader_expands_alternating_symmetry():
    data = {"dim": 2, "labels": ["x", "y"], "binary": [[0, 1, ["1", "0"]]], "ternary": []}
    n, labels, (scale, binary, ternary) = raw_algebra_from_dict(data)
    assert (n, labels, scale, ternary) == (2, ("x", "y"), 1, {})
    assert binary == {(0, 1, 0): 1, (1, 0, 0): -1}


def test_loader_rejects_lower_triangle_entries():
    data = {"dim": 2, "binary": [[1, 0, ["1", "0"]]], "ternary": []}
    with pytest.raises(InputError):
        raw_algebra_from_dict(data)


def test_loader_rejects_duplicates_and_bad_lengths():
    with pytest.raises(InputError):
        raw_algebra_from_dict({"dim": 2, "binary": [[0, 1, ["1"]]]})
    with pytest.raises(InputError):
        raw_algebra_from_dict(
            {"dim": 2, "binary": [[0, 1, ["1", "0"]], [0, 1, ["0", "1"]]]})
    with pytest.raises(InputError):
        raw_algebra_from_dict({"dim": "3"})


def test_map_round_trip():
    f = Matrix.from_rows([["1/2", 0], [3, "-2/7"]])
    assert map_from_dict(map_to_dict(f)) == f


def test_subspace_round_trip():
    s = Subspace.span(3, [[1, 0, 2], [0, 1, "1/3"]])
    assert subspace_from_dict(subspace_to_dict(s)) == s


def test_subspace_loader_canonicalizes():
    s = subspace_from_dict({"ambient": 2, "basis": [["2", "2"]]})
    assert s == Subspace.span(2, [[1, 1]])


def test_lie_input_must_not_carry_ternary():
    data = algebra_to_dict(catalog("sl2"))
    with pytest.raises(InputError):
        lie_bracket_from_dict(data)


def test_leibniz_loader_keeps_asymmetry():
    data = {"dim": 2, "labels": ["x", "z"], "product": [[0, 0, ["0", "1"]]]}
    # x.x = z is kept, and no z.x or x.z is made up for it
    assert leibniz_from_dict(data) == (2, (1, {(0, 0, 1): 1}), ("x", "z"))


def test_vector_parsing():
    assert parse_vector_arg("1,-2/3,0") == parse_vector_arg(" 1 , -2/3 , 0 ")
    with pytest.raises(InputError):
        parse_vector_arg("1,oops")
    with pytest.raises(InputError):
        parse_vector_arg("1,2", expect_len=3)


def test_canonical_json_is_stable():
    obj = {"b": [1, 2], "a": {"y": "1/2", "x": None}}
    assert canonical_json(obj) == canonical_json({"a": {"x": None, "y": "1/2"}, "b": [1, 2]})
    assert canonical_json(obj).endswith("\n")
