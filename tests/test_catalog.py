"""Builtin catalog contents."""

import pytest

from siegeltoric.catalog import (
    PRINCIPAL_GENUS_MAX,
    UnknownCatalogEntryError,
    catalog_get,
    catalog_names,
    principal_cone,
)
from siegeltoric.cone_lattice import edge_class, is_regular, lattice_volume, sym_dim


E11 = ((1, 0), (0, 0))
E22 = ((0, 0), (0, 1))
ZETA12 = ((1, -1), (-1, 1))


def test_principal_g2_generators():
    entry = catalog_get("principal-g2")
    assert entry.cone.generators == (E11, E22, ZETA12)
    assert entry.cone.labels == ("z11", "z22", "z12")


def test_principal_g3_has_six_generators():
    cone = catalog_get("principal-g3").cone
    assert len(cone.generators) == 6
    # diagonal edges first, then the off-diagonal pair generators
    assert cone.labels == ("z11", "z22", "z33", "z12", "z13", "z23")


def test_unknown_name():
    with pytest.raises(UnknownCatalogEntryError):
        catalog_get("nope")


def test_level_entries_parameterized():
    cone = catalog_get("principal-g2-level-4").cone
    assert cone.scale == 4
    assert cone.generators[0] == ((4, 0), (0, 0))
    assert lattice_volume(cone) == 1 and is_regular(cone)


def test_genus_family_resolves_unlisted():
    for g in (1, 4, 7):
        entry = catalog_get(f"principal-g{g}")
        assert entry.cone == principal_cone(g) and len(entry.cone.generators) == sym_dim(g)
        assert lattice_volume(entry.cone) == 1 and is_regular(entry.cone)
        assert entry.provenance.endswith(f"genus {g}, full level")
    assert catalog_names() == ["principal-g2", "principal-g3", "principal-g2-level-3"]
    for name in ("principal-g0", f"principal-g{PRINCIPAL_GENUS_MAX + 1}", "principal-g-2"):
        with pytest.raises(UnknownCatalogEntryError):
            catalog_get(name)


def test_listed_provenance_bytes():
    for g in (2, 3):
        assert catalog_get(f"principal-g{g}").provenance == (
            "principal cone of the central cone decomposition (Igusa, Namikawa), "
            f"genus {g}, full level")


def test_all_listed_entries_are_regular_with_boundary_edges():
    for name in catalog_names():
        cone = catalog_get(name).cone
        assert is_regular(cone)
        assert lattice_volume(cone) == 1
        for k in range(len(cone.generators)):
            assert edge_class(cone, k).kind == "boundary"
