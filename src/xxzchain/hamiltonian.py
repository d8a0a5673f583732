"""Hamiltonian assembly for open XXZ chains.

H = sum_i J_i (hop 01<->10 on bond i) + (Delta/2) sum_i s_i s_{i+1}
    + sum_i B_i s_i,          s_i = +/-1 per the spin convention.

H on the span of a set of basis states is assembled in one form: its
hopping as (row, col, value) lists (``_hopping``) and the two parts of its
diagonal (``_diagonal_terms``), all by bit arithmetic; there is no
operator-algebra layer to get tensor order wrong.  ``_dense`` makes a stack
of plain float64 matrices of them on demand, which differ only in their
diagonal.  Every hopping entry is listed in both positions with the
same coupling constant, so H[i, j] == H[j, i] holds exactly (never
symmetrized after the fact).  ``_block_parts`` splits S^z blocks into the
parts of their mirror and spin-flip symmetries, every block in one pass.
"""

from __future__ import annotations

import numpy as np

from .chain import FULL_SPACE_CAP, ChainSpec, SectorBasis
from .errors import DomainError, ResourceCapError


def _site_bits(n_sites: int, states: np.ndarray) -> np.ndarray:
    """The (N, d) 0/1 array whose row s - 1 holds the bit of site s in each
    of ``states``."""
    if states.dtype == object:
        # Python ints beyond 63 sites: unpacked from their big-endian bytes,
        # so that no shifted copy of a long label is made
        width = (n_sites + 7) // 8
        raw = b"".join(state.to_bytes(width, "big") for state in states.tolist())
        table = np.frombuffer(raw, dtype=np.uint8).reshape(len(states), width)
        return np.unpackbits(table, axis=1)[:, 8 * width - n_sites :].T
    return (states >> np.arange(n_sites - 1, -1, -1)[:, None]) & 1


# the characters of {1}, {1, g} and {1, g, h, gh}, one row each, on the
# elements in that order (the leading square of the table):
# chi_c(e) = (-1)^(the number of bits c and e share)
_CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
# 1 / sqrt(|orbit|) by orbit size, with 1/sqrt(2) rounded down: the squared
# amplitudes of an orbit sum to at most 1 in floating point, so unfolding
# never scales a squared amplitude up (a singlet's concurrence stays <= 1)
_ORBIT_AMP = np.array([np.nan, 1.0, np.nextafter(np.sqrt(0.5), 0.0), np.nan, 0.5])


def _palindromic(spec: ChainSpec) -> bool:
    """Whether mirror reflection commutes with the chain's H: couplings and
    fields read the same from either end."""
    return spec.couplings == spec.couplings[::-1] and spec.fields == spec.fields[::-1]


def _reflected(states: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The labels of the mirror images of ``states`` (site s's bit moved to
    site N + 1 - s), of the same dtype; ``bits`` are their site bits."""
    n = len(bits)
    if states.dtype == object:
        return np.array([int(f"{s:0{n}b}"[::-1], 2) for s in states.tolist()], dtype=object)
    return (bits << np.arange(n)[:, None]).sum(axis=0)


def _diagonal_terms(spec: ChainSpec, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of the diagonal on states of site bits ``bits``
    (``_site_bits``): the Ising bond sum sum_i s_i s_{i+1} (int64,
    multiplied by Delta/2) and the Zeeman energy sum_i B_i s_i.

    The bond sum is exact; the Zeeman energy is a running sum site by site
    from 0, so a sector block equals the same rows and columns of the full
    matrix bit for bit.
    """
    # s_i s_(i+1) is -1 on a bond whose two bits differ and +1 elsewhere
    zz = (spec.n_sites - 1) - 2 * (bits[:-1] ^ bits[1:]).sum(axis=0, dtype=np.int64)
    fields = np.asarray(spec.fields, dtype=float)[:, None]
    zeeman = np.where(bits, fields, -fields)
    return zz, 0.0 + np.cumsum(zeeman, axis=0, out=zeeman)[-1]


def _hopping(spec: ChainSpec, states: np.ndarray, bits: np.ndarray):
    """Off-diagonal entries of H on the span of ``states`` (distinct labels
    in any order, closed under hopping; ``bits`` their site bits) as (row,
    col, value) arrays of positions in ``states``, bond by bond and by row
    within a bond; partners are located by binary search.  Bond b couples
    sites b + 1 and b + 2, and both hop directions get the same constant, so
    symmetry is exact by construction."""
    n = spec.n_sites
    bonds, rows = np.nonzero(bits[:-1] != bits[1:])
    # exact Python ints for labels beyond 63 sites
    flips = np.array([3 << (n - 2 - b) for b in range(n - 1)], dtype=states.dtype)
    order = np.argsort(states, kind="stable")
    cols = order[np.searchsorted(states[order], states[rows] ^ flips[bonds])]
    return rows, cols, np.asarray(spec.couplings, dtype=float)[bonds]


def _dense(size: int, entries, diagonal: np.ndarray) -> np.ndarray:
    """The stack of symmetric matrices from (row, col, value) lists, summed
    in list order where a position repeats, plus each of a stack of
    diagonals (shape (..., size))."""
    rows, cols, values = entries
    m = np.empty((*np.shape(diagonal)[:-1], size * size))
    m[...] = np.bincount(rows * size + cols, weights=values, minlength=size * size)
    m[..., :: size + 1] += diagonal
    return m.reshape(*m.shape[:-1], size, size)


def _assemble(spec: ChainSpec, states: np.ndarray) -> np.ndarray:
    """Dense H on the span of ``states``."""
    bits = _site_bits(spec.n_sites, states)
    zz, zeeman = _diagonal_terms(spec, bits)
    return _dense(len(states), _hopping(spec, states, bits), [0.5 * spec.delta * zz + zeeman])[0]


def build_full(spec: ChainSpec) -> np.ndarray:
    """Full 2^N x 2^N matrix of the chain Hamiltonian."""
    n = spec.n_sites
    if n > FULL_SPACE_CAP:
        raise ResourceCapError(
            f"n_sites={n} exceeds the full-space cap of {FULL_SPACE_CAP} sites"
        )
    return _assemble(spec, np.arange(1 << n, dtype=np.int64))


def build_sector(spec: ChainSpec, basis: SectorBasis) -> np.ndarray:
    """Hamiltonian restricted to one magnetization sector.

    Equals the full matrix sliced to the sector's rows/columns, but is
    assembled directly so large-N chains never touch the 2^N space.
    """
    if basis.n_sites != spec.n_sites:
        raise DomainError(
            f"basis is for {basis.n_sites} sites, spec has {spec.n_sites}"
        )
    return _assemble(spec, basis.state_array())


def _block_parts(template: ChainSpec, sectors, sizes, labels, bits) -> list:
    """H of ``template`` on the S^z blocks ``sectors`` (of ``sizes`` states,
    their ``labels`` concatenated block after block, with their site
    ``bits``) split into symmetry parts, built in one pass over every
    block: each block's parts and the index of its lead part.

    Each block is split into the characters chi of one abelian group G of
    bit maps that commute with H and keep it: mirror reflection R (bit
    reversal) when couplings and fields are palindromic, and the global
    flip F (bit complement) on the half-filled block when every field is 0,
    with their product; G = {1} when neither applies.  One image table over
    {1, R, F, RF}, R or F read as the identity where it does not apply,
    serves every block: an identity only repeats an element, and a
    character that is -1 on it holds nothing.  Each orbit of G has its
    smallest state r as representative; the part of chi holds the r whose
    stabilizer chi maps to 1, each spanning sum chi(h_s) |s> / sqrt(|orbit|)
    over its orbit, h_s the map taking r to s (A. W. Sandvik, AIP Conf.
    Proc. 1297, 135 (2010)).  A character that holds no r is dropped.

    A part is (representatives, entries, orbit, amp): the positions in
    ``labels`` of the representatives it holds; its matrix as (row, col,
    value) lists, summed where a position repeats, to which a delta adds
    the diagonal at those representatives; and amp * x[orbit], which maps
    its eigenvector x to sector amplitudes, O(d) per vector.  The hopping
    list is grouped stably by block and character, so each part keeps its
    entries in (bond, row) order and ``_dense`` sums them in that order.
    The lead part holds the block's lowest level when every coupling is
    nonzero (``_lead_characters``); it is the first part otherwise."""
    n = template.n_sites
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    # the positions of every state's images under 1, R, F and RF, R or F
    # the identity where it does not apply (RF s = F (R s))
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    image = np.tile(np.arange(len(labels)), (4, 1))
    if _palindromic(template):
        image[1] = order[np.searchsorted(ordered, _reflected(labels, bits))]
    half = np.repeat([2 * k == n and not any(template.fields) for k in sectors], sizes)
    image[2, half] = order[np.searchsorted(ordered, labels[half] ^ ((1 << n) - 1))]
    image[3] = image[2, image[1]]
    rep = image.min(axis=0)
    reps = np.flatnonzero(rep == np.arange(len(labels)))
    orbit = np.searchsorted(reps, rep)
    stabilizer = image[:, reps] == reps
    # held[c, a]: chi_c is 1 on the stabilizer of representative a
    held = _CHARACTERS @ stabilizer == stabilizer.sum(axis=0)
    orbit_size = (4 // stabilizer.sum(axis=0))[orbit]
    sign = _CHARACTERS[:, (image == rep).argmax(axis=0)]  # chi(h_s), h_s r = s
    amp = np.where(held[:, orbit], sign * _ORBIT_AMP[orbit_size], 0.0)
    # the index of each representative in its part (the last held one's
    # for one not held, whose amp is 0): the held ones of its block before it
    index = np.cumsum(held, axis=1)
    first = np.searchsorted(reps, starts)
    index -= 1 + np.hstack((np.zeros((4, 1), int), index))[:, first][:, block_of[reps]]

    # each hopping entry H[r_a, j] out of a representative adds
    # chi(h_j) sqrt(|orbit a| / |orbit b|) H[r_a, j] to part entry
    # (a, b = orbit(j)) where chi holds both orbits; the entries and the held
    # representatives are grouped by (block, chi), stably
    rows, cols, values = _hopping(template, labels, bits)
    out = rep[rows] == rows
    rows, cols, values = rows[out], cols[out], values[out]
    chars, e = np.nonzero(held[:, orbit[rows]] & held[:, orbit[cols]])
    group = 4 * block_of[rows[e]] + chars
    by = np.argsort(group, kind="stable")
    chars, rows, cols, values = chars[by], rows[e[by]], cols[e[by]], values[e[by]]
    values *= sign[chars, cols] * np.sqrt(orbit_size[rows] / orbit_size[cols])
    entries = index[chars, orbit[rows]], index[chars, orbit[cols]], values
    entry_ends = [0, *np.cumsum(np.bincount(group, minlength=4 * len(sizes))).tolist()]
    chars, r = np.nonzero(held)
    group = 4 * block_of[reps[r]] + chars
    part_reps = reps[r[np.argsort(group, kind="stable")]]
    rep_ends = [0, *np.cumsum(np.bincount(group, minlength=4 * len(sizes))).tolist()]

    blocks, unfold = [], index[:, orbit]
    leads = _lead_characters(template, labels[image[:3, starts]])
    for k, (start, end) in enumerate(zip(starts.tolist(), np.cumsum(sizes).tolist())):
        groups = [g for g in range(4 * k, 4 * k + 4) if rep_ends[g + 1] > rep_ends[g]]
        parts = [
            (part_reps[rep_ends[g] : rep_ends[g + 1]],
             tuple(column[entry_ends[g] : entry_ends[g + 1]] for column in entries),
             unfold[g % 4, start:end], amp[g % 4, start:end, None])
            for g in groups
        ]
        blocks.append((parts, groups.index(4 * k + leads[k])))
    return blocks


def _lead_characters(template: ChainSpec, firsts: np.ndarray) -> list[int]:
    """The character of the part that holds each block's lowest level, from
    the (3, blocks) labels ``firsts`` of the first state of each block and
    its images under R and F; 0 when a coupling is 0.

    With every coupling nonzero the block's hopping graph is connected, and
    the gauge u(s) = product of theta_i over the up sites of s, with
    theta_i theta_i+1 = -sign(J_i), makes every off-diagonal entry -|J_i|:
    the lowest level is simple, with vector u(s) phi(s), phi > 0 (E. Lieb
    and D. Mattis, J. Math. Phys. 3, 749 (1962)).  So its character is
    chi(g) = u(g s) u(s) at any one state s: the table row with bit j set
    where that is -1 on generator j (element 2^j)."""
    if not all(template.couplings):
        return [0] * firsts.shape[1]
    mask, negative = 0, False  # the bits of the sites with theta -1
    for bit, coupling in zip(range(template.n_sites - 2, -1, -1), template.couplings):
        negative ^= coupling > 0
        mask |= negative << bit
    # u(g s) = -1 where g s has an odd number of up sites in the mask
    odd = [[(label & mask).bit_count() % 2 for label in row] for row in firsts.tolist()]
    return [(r != s) + 2 * (f != s) for s, r, f in zip(*odd)]
