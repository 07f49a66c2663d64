import json
from fractions import Fraction

import pytest

from tropint.formats import (
    FormatError,
    canonical_json,
    cycle_to_doc,
    parse_document,
    serialize,
)
from tropint.functions import max_poly_function, ray_function
from tropint.intersect import Morphism, identity_morphism
from tropint.linspace import (
    build_lnk,
    diagonal_product_form,
    fnk_cycle,
    rewrite_diagonal,
    rn_cycle,
    star_diagonal,
)
from tropint.polyhedra import (
    VerificationError,
    cone_from_generators,
    empty_cycle,
    make_cell,
    make_cycle,
)


def roundtrip(obj):
    text = serialize(obj)
    back = parse_document(text)
    assert serialize(back) == text
    return back


def test_cycle_roundtrip_fans():
    for x in [build_lnk(3, 2), build_lnk(2, 0), fnk_cycle(2, 1), rn_cycle(2)]:
        assert roundtrip(x) == x


def test_cycle_roundtrip_affine_and_empty():
    seg = make_cell(2, vertices=[(Fraction(1, 2), 0), (1, 1)])
    tail = make_cell(2, vertices=[(1, 1)], rays=[(1, 0)])
    x = make_cycle(2, 1, [(seg, -7), (tail, 7)])
    assert roundtrip(x) == x
    assert roundtrip(empty_cycle(3)) == empty_cycle(3)


def test_cycle_doc_shape():
    doc = cycle_to_doc(build_lnk(2, 1))
    assert doc["kind"] == "cycle"
    assert doc["ambient_dim"] == 2 and doc["dim"] == 1
    # pools are sorted and all values are decimal strings
    assert doc["rays"] == [["-1", "0"], ["0", "-1"], ["1", "1"]]
    assert doc["vertices"] == [["0", "0"]]
    assert [c["weight"] for c in doc["cells"]] == ["1", "1", "1"]


def test_function_roundtrip():
    l32 = build_lnk(3, 2)
    phi = ray_function(l32, {(1, 1, 1): 2, (-1, 0, 0): 1})
    back = roundtrip(phi)
    assert back.cells == phi.cells and back.forms == phi.forms
    half = (Fraction(1, 2),)
    carrier = make_cycle(
        1,
        1,
        [
            (make_cell(1, vertices=[half], rays=[(-1,)]), 1),
            (make_cell(1, vertices=[half], rays=[(1,)]), 1),
        ],
    )
    psi = max_poly_function(carrier, [((0,), 0), ((1,), Fraction(-1, 2))])
    back = roundtrip(psi)
    assert back.cells == psi.cells and back.forms == psi.forms


def test_morphism_roundtrip():
    f = Morphism([(1, 2), (0, 1), (3, -1)], (0, Fraction(1, 2), -3))
    back = roundtrip(f)
    assert back.matrix == f.matrix and back.translation == f.translation
    g = identity_morphism(2)
    assert roundtrip(g).matrix == g.matrix


def test_diagonal_roundtrip_and_reverify():
    rep = rewrite_diagonal(2, 1)
    back = roundtrip(rep)
    assert back.tuples == rep.tuples
    assert back.n == 2 and back.space_dim == 1
    assert back.verified  # recorded flag survives
    back.verify()  # and the reconstruction satisfies the identity


def test_star_representations_have_no_document():
    # a document names no cell, so a star would come back as the whole space
    rep = star_diagonal(3, 2, cone_from_generators(3, [(1, 1, 1)]))
    with pytest.raises(FormatError, match="star"):
        serialize(rep)
    for rep in (rewrite_diagonal(3, 1), diagonal_product_form(2, 1)):
        text = serialize(rep)
        assert serialize(parse_document(text)) == text


def test_parsed_bundle_is_checked_on_the_fan():
    # a bundle that says it was verified is checked again when parsed
    doc = json.loads(serialize(rewrite_diagonal(3, 1)))
    term = doc["terms"][0]
    term["coefficient"] = str(-int(term["coefficient"]))
    with pytest.raises(VerificationError):
        parse_document(canonical_json(doc))
    doc["verified"] = False
    back = parse_document(canonical_json(doc))
    assert not back.verified
    with pytest.raises(VerificationError):
        back.verify()


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [1, 2]}
    assert canonical_json(doc) == canonical_json({"a": [1, 2], "b": 1})
    assert canonical_json(doc).endswith("\n")
    x = build_lnk(2, 2)
    assert serialize(x) == serialize(build_lnk(2, 2))


def test_parse_rejects_bad_json_with_line_context():
    with pytest.raises(FormatError, match="line 2"):
        parse_document('{\n  "kind": bad\n}')


def test_parse_rejects_unknown_kind_and_missing_fields():
    with pytest.raises(FormatError, match="unknown kind"):
        parse_document('{"kind": "nonsense"}')
    with pytest.raises(FormatError, match="missing field"):
        parse_document('{"kind": "cycle"}')


def test_parse_rejects_schema_violations():
    import json

    good = cycle_to_doc(build_lnk(2, 1))

    def corrupt(mutate, match):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(FormatError, match=match):
            parse_document(json.dumps(doc))

    def weight_number(doc):
        doc["cells"][0]["weight"] = 1

    def ray_index(doc):
        doc["cells"][0]["rays"] = [99]

    def ray_length(doc):
        doc["rays"][0] = ["1"]

    def dim_lie(doc):
        doc["dim"] = 0

    corrupt(weight_number, "integer string")
    corrupt(ray_index, "out of range")
    corrupt(ray_length, "length 2")
    corrupt(dim_lie, "not pure")


def test_parse_rejects_bad_diagonal_symbols():
    import json

    from tropint.formats import diagonal_to_doc

    doc = diagonal_to_doc(rewrite_diagonal(2, 1))
    doc["terms"][0]["factors"][0]["Q7"] = "1"
    with pytest.raises(FormatError, match="factors"):
        parse_document(json.dumps(doc))
    doc = diagonal_to_doc(rewrite_diagonal(2, 1))
    doc["base"] = "sideways"
    with pytest.raises(FormatError, match="base"):
        parse_document(json.dumps(doc))


def test_unbalanced_doc_still_parses():
    # balancing is a semantic check, not a schema check
    x = make_cycle(2, 1, [(cone_from_generators(2, [(1, 0)]), 1)])
    assert roundtrip(x) == x


def _docs():
    """Fresh documents of every kind to corrupt."""
    from tropint.formats import to_document

    return {
        "cycle": to_document(build_lnk(2, 1)),
        "function": to_document(ray_function(build_lnk(2, 1), {(1, 1): 1})),
        "morphism": to_document(identity_morphism(2)),
        "diagonal": to_document(rewrite_diagonal(2, 1)),
    }


def _set(*path):
    """A mutation that sets the entry at path[:-1] to path[-1]."""

    def mutate(doc):
        for key in path[:-2]:
            doc = doc[key]
        doc[path[-2]] = path[-1]

    return mutate


MALFORMED = [
    # (kind, mutation, a match that names the field)
    ("cycle", _set("cells", 0, "weight", "1.5"), r"cells\[0\]: expected an integer string"),
    ("cycle", _set("rays", 0, 0, "one"), r"rays\[0\]: expected an integer string"),
    ("cycle", _set("vertices", 0, 0, "1/0"), r"vertices\[0\]: expected a rational string"),
    ("cycle", _set("cells", 0, []), r"cells\[0\]: expected an object"),
    ("cycle", _set("ambient_dim", "2"), r"ambient_dim: expected an integer"),
    ("cycle", _set("dim", True), r"\.dim: expected an integer"),
    ("cycle", _set("rays", {}), r"\.rays: expected a list"),
    ("cycle", _set("cells", 0, "lineality", "0"), r"\.lineality: expected a list"),
    ("cycle", _set("ambient_dim", -1), r"ambient_dim: must be nonnegative"),
    ("function", _set("ambient_dim", -2), r"ambient_dim: must be nonnegative"),
    ("function", lambda d: d["cells"].append(d["cells"][0]), "carrier cells must be distinct"),
    ("function", _set("cells", 0, "covector", ["1"]), r"covector: expected a vector"),
    ("function", _set("cells", 0, "offset", "1/x"), r"offset: expected a rational string"),
    ("morphism", _set("source_dim", -1), "dimensions must be nonnegative"),
    ("morphism", lambda d: d["matrix"].pop(), r"matrix: expected 2 rows"),
    ("morphism", _set("target_dim", 1.0), r"target_dim: expected an integer"),
    ("diagonal", _set("k", 2), "k <= n and space_dim = n - k"),
    ("diagonal", _set("verified", "yes"), r"verified: expected a boolean"),
    ("diagonal", _set("terms", 0, "factors", 0, {}), r"factors\[0\]: expected a nonempty symbol"),
    ("diagonal", _set("terms", 0, "factors", 0, "T7", "1"), r"factors\[0\]: symbol T7 exceeds n"),
]


@pytest.mark.parametrize("kind, mutate, match", MALFORMED)
def test_parse_rejects_malformed_documents_naming_the_field(kind, mutate, match):
    doc = _docs()[kind]
    mutate(doc)
    with pytest.raises(FormatError, match=match):
        parse_document(json.dumps(doc))


def test_parse_and_serialize_reject_what_has_no_document():
    for text in ("[]", '"cycle"', "3"):
        with pytest.raises(FormatError, match="document: expected an object"):
            parse_document(text)
    with pytest.raises(FormatError, match="no interchange form for object"):
        serialize(object())


def test_malformed_document_exits_one_naming_the_field(tmp_path, capsys):
    from tropint import cli

    doc = _docs()["cycle"]
    doc["ambient_dim"] = -1
    path = tmp_path / "bad.cycle"
    path.write_text(json.dumps(doc))
    assert cli.main(["degree", str(path)]) == 1
    assert "ambient_dim: must be nonnegative" in capsys.readouterr().err
