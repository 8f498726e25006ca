"""Scene-feature storage layouts and bank mapping (paper Sec. 4.4, Fig. 6).

Scene features have shape (S, Hs, Ws, C).  How their elements map onto
DRAM/SRAM banks decides whether a point patch's footprint — a compact 2D
region per source view (projection locality, Property-3) — can be
fetched from all banks in parallel:

* ``row_major``       — Fig. 6(a): consecutive feature rows fill a bank
  before moving on; a local 2D footprint lands on one or two banks.
* ``row_interleaved`` — Var-2 of Fig. 12: whole feature rows round-robin
  over banks; a footprint with few rows loads few banks.
* ``view_interleaved``— Var-3: banks partitioned by source view, so at
  most S banks ever serve a prefetch and per-view footprint imbalance
  concentrates traffic further.
* ``spatial_interleaved`` — the paper's scheme, Fig. 6(b): neighbouring
  (h, w) locations map to different banks along both axes via a skewed
  assignment ``bank = (skew * row + col) mod B``, so any local 2D region
  — even a one-or-two-row epipolar stripe — spreads evenly.

A patch footprint is a rectangle of feature locations per view; bank
loads for a rectangle are computed exactly, never by enumerating its
area.  The batched path the frame simulator runs
(:meth:`FeatureStore.rectangle_bank_load_batched`) costs O(banks) per
rectangle under every layout — the spatial layout reads a closed form
from a per-call window table — which keeps full-frame schedules cheap.
The scalar :meth:`FeatureStore.rectangle_bank_load` is the reference it
is pinned against; its spatial branch stays O(rows), one window start
per feature row.

The resulting per-bank (bytes, activations) arrays feed
:class:`repro.hardware.dram.DramModel`; their imbalance is what Fig. 12's
Var-2/Var-3 ablation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

LAYOUTS = ("row_major", "row_interleaved", "view_interleaved",
           "spatial_interleaved")


@dataclass(frozen=True)
class FootprintRegion:
    """A patch's feature footprint on one source view (feature pixels)."""

    view: int
    row0: int
    row1: int          # exclusive
    col0: int
    col1: int          # exclusive

    @property
    def num_rows(self) -> int:
        """Feature rows spanned (0 for a degenerate rectangle)."""
        return max(0, self.row1 - self.row0)

    @property
    def num_cols(self) -> int:
        """Feature columns spanned (0 for a degenerate rectangle)."""
        return max(0, self.col1 - self.col0)

    @property
    def num_locations(self) -> int:
        """(h, w) feature locations covered — the fetch granularity."""
        return self.num_rows * self.num_cols


def spatial_skew(num_banks: int) -> int:
    """Row skew of the spatial interleaving ``bank = (skew*row + col) mod B``.

    Starts at ``max(1, B // 2 - 1)`` and steps down past divisors of B
    (stopping at 1): 3 for 8 banks, 7 for 16, 15 for 32.  Only divisors
    are rejected, so the skew is not guaranteed coprime with B — 10
    banks get 4 (gcd 2), and a one-column stripe then reaches only 5 of
    the 10 banks.  The accelerator's 8 DRAM banks and 16 prefetch-SRAM
    banks get coprime skews, so a stripe spreads over all of them.
    """
    skew = max(1, num_banks // 2 - 1)
    while num_banks % skew == 0 and skew > 1:
        skew -= 1
    return skew


def _spatial_window_table(num_banks: int) -> np.ndarray:
    """Per-bank remainder loads of up to one period of spatially
    interleaved rows, bank-major.

    Column ``(s, p, c)`` of the returned (B, B*(B+1)*B) int64 table, at
    index ``(s*(B+1) + p)*B + c``, counts for each bank how many of
    ``p`` consecutive feature rows cover it with their length-``c``
    column window when the first of those rows starts on bank ``s``
    (each next row starts ``spatial_skew(B)`` banks later).
    """
    bank = np.arange(num_banks, dtype=np.int64)
    # covers[t, c, b]: the length-c window starting on bank t covers b.
    covers = ((bank[None, None, :] - bank[:, None, None]) % num_banks
              < bank[None, :, None])
    # Row j of a run whose first row starts on bank s starts on bank
    # (s + skew*j) mod B.
    row_starts = (bank[:, None]
                  + spatial_skew(num_banks) * bank[None, :]) % num_banks
    table = np.zeros((num_banks, num_banks + 1, num_banks, num_banks),
                     dtype=np.int64)
    np.cumsum(covers[row_starts], axis=1, out=table[:, 1:])
    return np.ascontiguousarray(table.reshape(-1, num_banks).T)


def _residue_counts(start: int, stop: int, modulus: int) -> np.ndarray:
    """How many integers in [start, stop) fall in each residue class."""
    length = max(0, stop - start)
    counts = np.full(modulus, length // modulus, dtype=np.int64)
    remainder = length % modulus
    if remainder:
        first = start % modulus
        wrapped = (first + np.arange(remainder)) % modulus
        np.add.at(counts, wrapped, 1)
    return counts


@dataclass(frozen=True)
class FeatureStore:
    """Geometry and layout of the stored scene features."""

    num_views: int
    height: int               # Hs (feature map rows)
    width: int                # Ws
    channels: int             # C
    bytes_per_element: int = 1
    layout: str = "spatial_interleaved"

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; "
                             f"choose from {LAYOUTS}")

    @property
    def location_bytes(self) -> int:
        """Bytes of one (h, w) feature vector (C channels, packed)."""
        return self.channels * self.bytes_per_element

    @property
    def total_bytes(self) -> int:
        """Whole stored feature volume: S * Hs * Ws * C * bytes/elem."""
        return self.num_views * self.height * self.width * self.location_bytes

    # ------------------------------------------------------------------
    def rectangle_bank_load(self, region: FootprintRegion, num_banks: int
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-bank (location counts, row activations) for a
        rectangular footprint under this layout.

        Row activations count distinct (bank, feature-row) pairs — each
        feature row a bank touches costs one DRAM row activation in the
        aggregate model (feature rows are row-buffer sized or smaller at
        the paper's map sizes).
        """
        loads = np.zeros(num_banks, dtype=np.int64)
        acts = np.zeros(num_banks, dtype=np.int64)
        rows, cols = region.num_rows, region.num_cols
        if rows <= 0 or cols <= 0:
            return loads, acts

        if self.layout == "row_major":
            rows_per_bank = max(1, (self.num_views * self.height)
                                // num_banks)
            flat0 = region.view * self.height + region.row0
            banks = np.minimum(np.arange(flat0, flat0 + rows)
                               // rows_per_bank, num_banks - 1)
            row_counts = np.bincount(banks, minlength=num_banks)
            loads += row_counts * cols
            acts += row_counts
            return loads, acts

        if self.layout == "row_interleaved":
            flat0 = region.view * self.height + region.row0
            row_counts = _residue_counts(flat0, flat0 + rows, num_banks)
            loads += row_counts * cols
            acts += row_counts
            return loads, acts

        if self.layout == "view_interleaved":
            bank = region.view % num_banks
            loads[bank] = rows * cols
            acts[bank] = rows
            return loads, acts

        # spatial_interleaved: skewed mapping
        # bank = (skew * row + col) mod num_banks.  Within one feature
        # row the columns sweep residues contiguously: every row loads
        # ``cols // B`` on every bank plus one extra on the ``cols % B``
        # residues starting at its own offset.  The window starts are
        # counted one per feature row, with a bincount — the direct
        # form the batched closed form is pinned against.
        skew = spatial_skew(num_banks)
        base, remainder = divmod(cols, num_banks)
        loads += rows * base
        if remainder:
            # extra[b] = #rows whose length-``remainder`` residue
            # window, starting at that row's offset, covers bank b — a
            # circular windowed sum of the start histogram, computed on
            # a doubled cumulative sum.
            starts = (skew * np.arange(region.row0, region.row1)
                      + region.col0) % num_banks
            start_hist = np.bincount(starts, minlength=num_banks)
            csum = np.concatenate(
                [[0], np.cumsum(np.concatenate([start_hist, start_hist]))])
            idx = np.arange(num_banks) + num_banks
            extra = csum[idx + 1] - csum[idx - remainder + 1]
            loads += extra
            acts += rows if base > 0 else extra
        elif base > 0:
            acts += rows
        return loads, acts


    # ------------------------------------------------------------------
    def rectangle_bank_load_batched(self, regions: np.ndarray,
                                    num_banks: int
                                    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`rectangle_bank_load` for N rectangles in one array pass.

        ``regions`` is an (N, 5) int64 array of ``(view, row0, row1,
        col0, col1)`` rows — one row per :class:`FootprintRegion`.
        Returns ``(loads, acts)`` as (N, num_banks) int64 arrays whose
        per-element arithmetic matches the scalar method exactly, so
        row *i* equals ``rectangle_bank_load(regions[i], num_banks)``
        bit for bit (everything here is integer math).  Both are
        transposes of bank-major (num_banks, N) C-contiguous arrays:
        one bank's loads over consecutive regions sit in contiguous
        memory, which is how :func:`batched_bank_load` sums them.

        This is the frame simulator's hot path: an 800x800 frame plan
        holds ~10^5 (patch, view) rectangles, and the former per-patch
        Python loop over :func:`bank_load_for_footprints` dominated
        ``simulate_frame`` (see ``docs/performance.md``).  Every layout
        costs O(num_banks) per rectangle, whatever its area: the
        spatial layout gathers two columns of
        :func:`_spatial_window_table` per rectangle, a table of
        B*(B+1)*B columns of B ints built per call in well under a
        millisecond.
        """
        regions = np.asarray(regions, dtype=np.int64).reshape(-1, 5)
        n = regions.shape[0]
        loads = np.zeros((num_banks, n), dtype=np.int64)
        acts = np.zeros((num_banks, n), dtype=np.int64)
        if n == 0:
            return loads.T, acts.T
        view = regions[:, 0]
        row0, row1 = regions[:, 1], regions[:, 2]
        col0, col1 = regions[:, 3], regions[:, 4]
        rows = np.maximum(0, row1 - row0)
        cols = np.maximum(0, col1 - col0)
        valid = (rows > 0) & (cols > 0)
        if not valid.any():
            return loads.T, acts.T
        bank = np.arange(num_banks, dtype=np.int64)[:, None]

        if self.layout == "row_major":
            rows_per_bank = max(1, (self.num_views * self.height)
                                // num_banks)
            flat0 = view * self.height + row0
            flat1 = flat0 + rows
            # Bank b < B-1 owns feature rows [b*rpb, (b+1)*rpb); the
            # last bank absorbs the tail (the scalar path's min(.., B-1)
            # clamp).  Row counts are interval overlaps.
            starts = bank * rows_per_bank
            ends = starts + rows_per_bank
            ends[-1] = np.iinfo(np.int64).max
            acts = np.maximum(0, np.minimum(flat1, ends)
                              - np.maximum(flat0, starts))
            acts[:, ~valid] = 0
            return (acts * cols).T, acts.T

        if self.layout == "row_interleaved":
            flat0 = view * self.height + row0
            flat1 = flat0 + rows
            # Closed-form residue counts: #x in [s, e) with x % B == b
            # is ceil((e-b)/B) - ceil((s-b)/B); numerators stay >= 0
            # here so plain floor division implements the ceilings.
            acts = ((flat1 - bank + num_banks - 1) // num_banks
                    - (flat0 - bank + num_banks - 1) // num_banks)
            acts[:, ~valid] = 0
            return (acts * cols).T, acts.T

        if self.layout == "view_interleaved":
            idx = np.flatnonzero(valid)
            owner = view[idx] % num_banks
            loads[owner, idx] = rows[idx] * cols[idx]
            acts[owner, idx] = rows[idx]
            return loads.T, acts.T

        # spatial_interleaved, in closed form.  Every row loads
        # ``cols // B`` on every bank plus one on each bank of its
        # length-``cols % B`` window.  Row r's window starts on bank
        # (skew*r + col0) mod B, which repeats every B rows, so a
        # region's windows are ``rows // B`` whole periods plus one
        # partial period, each a whole column of the window table.  An
        # empty span has no rows or a zero-length window: it loads
        # nothing.
        base, remainder = np.divmod(cols, num_banks)
        periods, partial = np.divmod(rows, num_banks)
        first = (spatial_skew(num_banks) * row0 + col0) % num_banks
        whole = (first * (num_banks + 1) + num_banks) * num_banks + remainder
        part = (first * (num_banks + 1) + partial) * num_banks + remainder
        windows = _spatial_window_table(num_banks)
        extra = (periods * windows.take(whole, axis=1)
                 + windows.take(part, axis=1))
        loads = rows * base + extra
        acts = np.where(base > 0, rows, extra)
        return loads.T, acts.T


def bank_load_for_footprints(store: FeatureStore,
                             footprints: Sequence[FootprintRegion],
                             num_banks: int
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate per-bank (bytes, activations) over several footprints."""
    bytes_per_bank = np.zeros(num_banks, dtype=np.float64)
    acts_per_bank = np.zeros(num_banks, dtype=np.int64)
    for region in footprints:
        loads, acts = store.rectangle_bank_load(region, num_banks)
        bytes_per_bank += loads * float(store.location_bytes)
        acts_per_bank += acts
    return bytes_per_bank, acts_per_bank


def regions_as_array(footprints: Sequence[FootprintRegion]) -> np.ndarray:
    """Pack footprint objects into the (N, 5) int64 array the batched
    bank-load path consumes: ``(view, row0, row1, col0, col1)`` rows."""
    if not footprints:
        return np.zeros((0, 5), dtype=np.int64)
    return np.array([(fp.view, fp.row0, fp.row1, fp.col0, fp.col1)
                     for fp in footprints], dtype=np.int64)


def batched_bank_load(store: FeatureStore, regions: np.ndarray,
                      counts: np.ndarray, num_banks: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`bank_load_for_footprints` for many footprint groups at once.

    ``regions`` is (N, 5) int64 with the groups stored contiguously:
    group ``p`` owns ``counts[p]`` consecutive rows (any count, zero
    included).  Returns ``(bytes, acts)`` as C-contiguous (P, num_banks)
    float64/int64 arrays; row ``p`` equals ``bank_load_for_footprints``
    over group ``p``'s regions — exactly, not approximately: the
    per-region loads are integers, so the float accumulation order of
    the scalar loop cannot change the sums, and the activation counts
    are pure int64 math.  The groups are summed along each bank's
    contiguous row of the bank-major loads, one ``reduceat`` per bank
    row, rather than across the (N, banks) rows.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_groups = counts.shape[0]
    loads, acts = store.rectangle_bank_load_batched(regions, num_banks)
    group_loads = np.zeros((num_groups, num_banks), dtype=np.int64)
    group_acts = np.zeros((num_groups, num_banks), dtype=np.int64)
    if loads.shape[0] and num_groups:
        offsets = np.zeros(num_groups, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        nonempty = np.flatnonzero(counts > 0)
        if nonempty.size:
            group_loads[nonempty] = np.add.reduceat(
                loads.T, offsets[nonempty], axis=1).T
            group_acts[nonempty] = np.add.reduceat(
                acts.T, offsets[nonempty], axis=1).T
    return group_loads * float(store.location_bytes), group_acts


def balance_factor(bytes_per_bank: np.ndarray) -> float:
    """Mean/max bank load in (0, 1]; 1.0 means perfectly balanced."""
    loads = np.asarray(bytes_per_bank, dtype=np.float64)
    peak = loads.max()
    if peak <= 0:
        return 1.0
    return float(loads.mean() / peak)


def balance_factors(bytes_per_bank: np.ndarray) -> np.ndarray:
    """:func:`balance_factor` over the rows of a (P, banks) array."""
    loads = np.asarray(bytes_per_bank, dtype=np.float64)
    peak = loads.max(axis=-1)
    mean = loads.mean(axis=-1)
    return np.where(peak > 0, mean / np.maximum(peak, 1e-300), 1.0)
