"""Builtin cone catalog.

Ships only the classically described cones: the principal cone of the
central cone decomposition (Igusa, Namikawa), which is the perfect cone of
the root lattice A_g, at every genus up to PRINCIPAL_GENUS_MAX, and its
genus-2 level-n rescaling n * Sym_g(Z) for principal congruence level
structures.
Generator order is diagonal edges first, then off-diagonal pairs in
lexicographic order.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .cone_lattice import MarkedCone, quote, zeta_matrix
from .jsonio import decode_int


class CatalogEntry(NamedTuple):
    cone: MarkedCone
    provenance: str


def principal_cone(g: int, scale: int = 1) -> MarkedCone:
    """Principal cone: edges E_ii and -E_ij - E_ji + E_ii + E_jj, all on the
    boundary of the positive-definite cone, scaled into scale*Sym_g(Z)."""
    pairs = [(i, i) for i in range(g)]
    pairs += [(i, j) for i in range(g) for j in range(i + 1, g)]
    gens = []
    labels = []
    for i, j in pairs:
        base = zeta_matrix(g, i, j)
        gens.append(tuple(tuple(scale * v for v in row) for row in base))
        labels.append(f"z{i + 1}{j + 1}")
    return MarkedCone(g=g, scale=scale, generators=tuple(gens),
                      labels=tuple(labels))


# resolving a name builds and validates all N = g(g+1)/2 generators of the
# cone, in 0.033 s at g = 12 and 0.14 s at g = 16 (in process, 2-CPU
# machine); the bound is the documented range of catalog names, not a cost
PRINCIPAL_GENUS_MAX = 12

# ASCII digits only: \d would also match "principal-g\u0663"
_GENUS_PATTERN = re.compile(r"principal-g([0-9]+)")
_LEVEL_PATTERN = re.compile(r"principal-g2-level-([0-9]+)")


def _number(digits: str, what: str, name: str) -> int:
    """digits read as decode_int reads them; a number too long to convert
    names no entry."""
    try:
        return decode_int(digits)
    except ValueError:
        raise ValueError(f"{what} is too long in {quote(name)}") from None


def catalog_get(name: str) -> CatalogEntry:
    m = _GENUS_PATTERN.fullmatch(name)
    if m:
        g = _number(m.group(1), "genus", name)
        if not 1 <= g <= PRINCIPAL_GENUS_MAX:
            raise ValueError(
                f"genus must be in [1, {PRINCIPAL_GENUS_MAX}] in {quote(name)}")
        return CatalogEntry(
            cone=principal_cone(g, 1),
            provenance="principal cone of the central cone decomposition "
                       f"(Igusa, Namikawa), genus {g}, full level")
    m = _LEVEL_PATTERN.fullmatch(name)
    if m:
        level = _number(m.group(1), "level", name)
        if level < 1:
            raise ValueError(f"level must be positive in {quote(name)}")
        return CatalogEntry(
            cone=principal_cone(2, level),
            provenance="principal cone of the central cone decomposition, "
                       f"genus 2, principal congruence level {level}")
    raise ValueError(f"no catalog entry named {quote(name)}")


def catalog_names() -> list[str]:
    """Concrete catalog names; the level family is listed at level 3 (any
    'principal-g2-level-<n>' resolves), and of the genus family only genus
    2 and 3 (any 'principal-g<n>' up to PRINCIPAL_GENUS_MAX resolves)."""
    return ["principal-g2", "principal-g3", "principal-g2-level-3"]
