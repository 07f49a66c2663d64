"""Canonical interchange documents for cycles, functions, morphisms and
diagonal representations of L^n_k (a star representation has none).

Every document is a JSON object carrying a "kind" tag.  Exact values
(coordinates, weights, covectors, offsets) are encoded as decimal strings
such as "-3" or "1/2" so that nothing passes through floating point.
Emission is canonical: object keys sorted, shared vector pools sorted,
cells in canonical cell order, two-space indent, one trailing newline.
Parsing the serialization of a value reproduces the value exactly.
"""

import json
from fractions import Fraction

from .functions import PLFunction
from .intersect import Morphism
from .linspace import (
    DiagonalRepresentation,
    parse_symbol,
    symbol_name,
)
from .polyhedra import (
    TropicalCycle,
    TropicalGeometryError,
    make_cell,
    make_cycle,
)


class FormatError(TropicalGeometryError):
    """An interchange document violates its schema."""


def canonical_json(doc):
    """Byte-stable rendering: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _enc_int(v):
    return str(int(v))


def _enc_rat(v):
    return str(Fraction(v))


def _dec_int(s, where):
    if isinstance(s, str):
        try:
            return int(s, 10)
        except ValueError:
            pass
    raise FormatError("%s: expected an integer string, got %r" % (where, s))


def _dec_rat(s, where):
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise FormatError("%s: expected a rational string, got %r" % (where, s))


def _field(doc, name, where):
    if not isinstance(doc, dict):
        raise FormatError("%s: expected an object" % where)
    if name not in doc:
        raise FormatError("%s: missing field %r" % (where, name))
    return doc[name]


def _int_field(doc, name, where):
    v = _field(doc, name, where)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FormatError("%s.%s: expected an integer" % (where, name))
    return v

def _bool_field(doc, name, where):
    v = _field(doc, name, where)
    if not isinstance(v, bool):
        raise FormatError("%s.%s: expected a boolean" % (where, name))
    return v


def _list_field(doc, name, where):
    v = _field(doc, name, where)
    if not isinstance(v, list):
        raise FormatError("%s.%s: expected a list" % (where, name))
    return v


def _vector(row, length, dec, where):
    if not isinstance(row, list) or len(row) != length:
        raise FormatError("%s: expected a vector of length %d" % (where, length))
    return tuple(dec(s, where) for s in row)


def _pool(doc, name, length, dec, where):
    return [
        _vector(row, length, dec, "%s.%s[%d]" % (where, name, i))
        for i, row in enumerate(_list_field(doc, name, where))
    ]


def _indices(entry, name, pool, where):
    out = []
    for j in _list_field(entry, name, where):
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < len(pool):
            raise FormatError("%s.%s: index %r out of range" % (where, name, j))
        out.append(pool[j])
    return out


def _cell_pools(cells):
    """Sorted shared pools of direction vectors and vertices."""
    rays = sorted(
        {r for c in cells for r in c.rays} | {l for c in cells for l in c.lineality}
    )
    verts = sorted({v for c in cells for v in c.vertices})
    rindex = {r: i for i, r in enumerate(rays)}
    vindex = {v: i for i, v in enumerate(verts)}
    return rays, verts, rindex, vindex


def _cell_entry(cell, rindex, vindex):
    return {
        "vertices": [vindex[v] for v in sorted(cell.vertices)],
        "rays": sorted(rindex[r] for r in cell.rays),
        "lineality": sorted(rindex[l] for l in cell.lineality),
    }


def _pool_docs(rays, verts):
    return (
        [[_enc_int(c) for c in r] for r in rays],
        [[_enc_rat(c) for c in v] for v in verts],
    )


def cycle_to_doc(x):
    cells = [c for c, _ in x.cells]
    rays, verts, rindex, vindex = _cell_pools(cells)
    entries = []
    for cell, w in sorted(x.cells, key=lambda cw: cw[0].key()):
        e = _cell_entry(cell, rindex, vindex)
        e["weight"] = _enc_int(w)
        entries.append(e)
    ray_doc, vert_doc = _pool_docs(rays, verts)
    return {
        "kind": "cycle",
        "ambient_dim": x.ambient_dim,
        "dim": x.dim,
        "rays": ray_doc,
        "vertices": vert_doc,
        "cells": entries,
    }


def _cells(doc, where):
    """The ambient dimension of a cycle or function document, and an
    iterator that reads the shared pools and then its cells, one at a
    time, as (place, entry, cell)."""
    amb = _int_field(doc, "ambient_dim", where)
    if amb < 0:
        raise FormatError("%s.ambient_dim: must be nonnegative" % where)

    def cells():
        rays = _pool(doc, "rays", amb, _dec_int, where)
        verts = _pool(doc, "vertices", amb, _dec_rat, where)
        for i, entry in enumerate(_list_field(doc, "cells", where)):
            here = "%s.cells[%d]" % (where, i)
            yield here, entry, make_cell(
                amb,
                _indices(entry, "vertices", verts, here),
                _indices(entry, "rays", rays, here),
                _indices(entry, "lineality", rays, here),
            )

    return amb, cells()


def cycle_from_doc(doc, where="cycle"):
    amb, cells = _cells(doc, where)
    dim = _int_field(doc, "dim", where)
    items = [
        (cell, _dec_int(_field(entry, "weight", here), here))
        for here, entry, cell in cells
    ]
    try:
        return make_cycle(amb, dim, items)
    except TropicalGeometryError as err:
        raise FormatError("%s: %s" % (where, err)) from None


def function_to_doc(phi):
    rays, verts, rindex, vindex = _cell_pools(phi.cells)
    entries = []
    for cell, (cov, off) in zip(phi.cells, phi.forms):
        e = _cell_entry(cell, rindex, vindex)
        e["covector"] = [_enc_int(c) for c in cov]
        e["offset"] = _enc_rat(off)
        entries.append(e)
    ray_doc, vert_doc = _pool_docs(rays, verts)
    return {
        "kind": "function",
        "ambient_dim": phi.ambient_dim,
        "rays": ray_doc,
        "vertices": vert_doc,
        "cells": entries,
    }


def function_from_doc(doc, where="function"):
    amb, entries = _cells(doc, where)
    cells = []
    forms = []
    for here, entry, cell in entries:
        cells.append(cell)
        cov = _vector(_field(entry, "covector", here), amb, _dec_int, here + ".covector")
        off = _dec_rat(_field(entry, "offset", here), here + ".offset")
        forms.append((cov, off))
    try:
        return PLFunction(cells, forms)
    except TropicalGeometryError as err:
        raise FormatError("%s: %s" % (where, err)) from None


def morphism_to_doc(f):
    return {
        "kind": "morphism",
        "source_dim": f.source_dim,
        "target_dim": f.target_dim,
        "matrix": [[_enc_int(c) for c in row] for row in f.matrix],
        "translation": [_enc_rat(c) for c in f.translation],
    }


def morphism_from_doc(doc, where="morphism"):
    source = _int_field(doc, "source_dim", where)
    target = _int_field(doc, "target_dim", where)
    if source < 0 or target < 0:
        raise FormatError("%s: dimensions must be nonnegative" % where)
    matrix = _pool(doc, "matrix", source, _dec_int, where)
    if len(matrix) != target:
        raise FormatError("%s.matrix: expected %d rows" % (where, target))
    translation = _vector(
        _field(doc, "translation", where), target, _dec_rat, where + ".translation"
    )
    return Morphism(matrix, translation, source_dim=source)


def _combo_doc(combo):
    return {symbol_name(sym): _enc_int(c) for sym, c in combo.items()}


def diagonal_to_doc(rep):
    if rep.tau is not None:  # a document names no cell
        raise FormatError("no interchange form for a star diagonal representation")
    k = rep.n - rep.space_dim
    return {
        "kind": "diagonal",
        "n": rep.n,
        "k": k,
        "space_dim": rep.space_dim,
        "base": "complete" if rep.complete else "space",
        "terms": [
            {
                "coefficient": _enc_int(coef),
                "factors": [_combo_doc(combo) for combo in combos],
            }
            for coef, combos in rep.tuples
        ],
        "verified": rep.verified,
    }


def diagonal_from_doc(doc, where="diagonal"):
    n = _int_field(doc, "n", where)
    k = _int_field(doc, "k", where)
    space_dim = _int_field(doc, "space_dim", where)
    if not 0 <= k <= n or space_dim != n - k:
        raise FormatError("%s: need 0 <= k <= n and space_dim = n - k" % where)
    base_tag = _field(doc, "base", where)
    if base_tag not in ("space", "complete"):
        raise FormatError("%s.base: expected 'space' or 'complete'" % where)
    tuples = []
    for i, term in enumerate(_list_field(doc, "terms", where)):
        here = "%s.terms[%d]" % (where, i)
        coef = _dec_int(_field(term, "coefficient", here), here)
        combos = []
        for j, cdoc in enumerate(_list_field(term, "factors", here)):
            spot = "%s.factors[%d]" % (here, j)
            if not isinstance(cdoc, dict) or not cdoc:
                raise FormatError("%s: expected a nonempty symbol combination" % spot)
            combo = {}
            for name, val in cdoc.items():
                try:
                    sym = parse_symbol(name)
                except TropicalGeometryError as err:
                    raise FormatError("%s: %s" % (spot, err)) from None
                if sym[1] > n:
                    raise FormatError("%s: symbol %s exceeds n" % (spot, name))
                combo[sym] = _dec_int(val, spot)
            combos.append(combo)
        tuples.append((coef, tuple(combos)))
    rep = DiagonalRepresentation(
        n, space_dim, tuple(tuples), complete=base_tag == "complete"
    )
    if _bool_field(doc, "verified", where):
        rep.verify()
    return rep


_PARSERS = {
    "cycle": cycle_from_doc,
    "function": function_from_doc,
    "morphism": morphism_from_doc,
    "diagonal": diagonal_from_doc,
}


def to_document(obj):
    if isinstance(obj, TropicalCycle):
        return cycle_to_doc(obj)
    if isinstance(obj, PLFunction):
        return function_to_doc(obj)
    if isinstance(obj, Morphism):
        return morphism_to_doc(obj)
    if isinstance(obj, DiagonalRepresentation):
        return diagonal_to_doc(obj)
    raise FormatError("no interchange form for %s" % type(obj).__name__)


def serialize(obj):
    return canonical_json(to_document(obj))


def parse_document(text, where="document"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(
            "%s: line %d column %d: %s" % (where, err.lineno, err.colno, err.msg)
        ) from None
    kind = _field(doc, "kind", where)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise FormatError("%s: unknown kind %r" % (where, kind))
    return parser(doc, where)


def load_path(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as err:
        raise FormatError(str(err)) from None
    return parse_document(text, where=str(path))
