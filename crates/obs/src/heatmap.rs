//! Hot-tile heatmaps: per-Hilbert-tile hit and latency counters.
//!
//! A [`Heatmap`] is a flat pair of atomic arrays indexed by a tile
//! prefix — the top [`HEATMAP_TILE_BITS`] bits of a query's Hilbert
//! key. Recording is two relaxed `fetch_add`s, no locks, no hashing:
//! the index is masked into range, so any `u32` tile id is safe.
//! Different tiles touch different cache lines almost always (4096
//! slots × two u64 arrays), so concurrent workers sweeping disjoint
//! tiles don't contend.
//!
//! Heatmaps are looked up by name ([`heatmap`]) from a small global
//! registry (lock only on lookup — stash the cloned handle), which is
//! how the snapshot exporter discovers them. This is the
//! traffic-concentration signal ROADMAP item 4's lazy Voronoi
//! materialization will consume: [`Heatmap::hot_tiles`] answers
//! "which tiles deserve precomputation" directly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tile-prefix width: a heatmap has `2^HEATMAP_TILE_BITS` slots.
pub const HEATMAP_TILE_BITS: u32 = 12;

/// Number of tile slots in a heatmap.
pub const HEATMAP_SLOTS: usize = 1 << HEATMAP_TILE_BITS;

struct HeatmapInner {
    hits: Vec<AtomicU64>,
    total_ns: Vec<AtomicU64>,
}

/// A named per-tile hit/latency accumulator. Cloning shares storage.
#[derive(Clone)]
pub struct Heatmap(Arc<HeatmapInner>);

impl std::fmt::Debug for Heatmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heatmap")
            .field("slots", &HEATMAP_SLOTS)
            .finish()
    }
}

impl Default for Heatmap {
    fn default() -> Self {
        Heatmap(Arc::new(HeatmapInner {
            hits: (0..HEATMAP_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            total_ns: (0..HEATMAP_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }))
    }
}

/// One non-empty tile in a [`Heatmap::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStat {
    /// Tile prefix (always `< HEATMAP_SLOTS`).
    pub tile: u32,
    /// Queries whose focus landed in this tile.
    pub hits: u64,
    /// Total latency those queries accumulated, ns.
    pub total_ns: u64,
}

impl TileStat {
    /// Mean latency per hit, ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.hits).unwrap_or(0)
    }
}

impl Heatmap {
    /// Creates a detached (unregistered) heatmap; use [`heatmap`] for
    /// the named global registry.
    pub fn new() -> Heatmap {
        Heatmap::default()
    }

    /// Extracts the tile prefix from a Hilbert key of `key_bits`
    /// significant bits: its top [`HEATMAP_TILE_BITS`] bits. For keys
    /// narrower than a tile prefix the key itself is the tile.
    #[inline]
    pub fn tile_of_key(key: u64, key_bits: u32) -> u32 {
        let shifted = if key_bits > HEATMAP_TILE_BITS {
            key >> (key_bits - HEATMAP_TILE_BITS)
        } else {
            key
        };
        // Masked to HEATMAP_TILE_BITS
        (shifted as u32) & ((HEATMAP_SLOTS - 1) as u32)
    }

    /// Adds one hit of `ns` latency to `tile` (masked into range).
    /// Two relaxed atomic adds; safe for any `tile` value.
    #[inline]
    pub fn record(&self, tile: u32, ns: u64) {
        let i = (tile as usize) & (HEATMAP_SLOTS - 1);
        self.0.hits[i].fetch_add(1, Ordering::Relaxed);
        self.0.total_ns[i].fetch_add(ns, Ordering::Relaxed);
    }

    /// Hits recorded against `tile` (masked into range).
    pub fn hits(&self, tile: u32) -> u64 {
        self.0.hits[(tile as usize) & (HEATMAP_SLOTS - 1)].load(Ordering::Relaxed)
    }

    /// Total hits across all tiles.
    pub fn total_hits(&self) -> u64 {
        self.0.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// All non-empty tiles, ascending by tile id.
    pub fn snapshot(&self) -> Vec<TileStat> {
        (0..HEATMAP_SLOTS)
            .filter_map(|i| {
                let hits = self.0.hits[i].load(Ordering::Relaxed);
                if hits == 0 {
                    return None;
                }
                Some(TileStat {
                    // i < HEATMAP_SLOTS = 2^12
                    tile: i as u32,
                    hits,
                    total_ns: self.0.total_ns[i].load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// The `n` hottest tiles by hit count, descending (ties broken by
    /// tile id for determinism).
    pub fn hot_tiles(&self, n: usize) -> Vec<TileStat> {
        let mut all = self.snapshot();
        all.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.tile.cmp(&b.tile)));
        all.truncate(n);
        all
    }

    /// Zeroes every slot (counts in flight may survive the sweep).
    pub fn clear(&self) {
        for i in 0..HEATMAP_SLOTS {
            self.0.hits[i].store(0, Ordering::Relaxed);
            self.0.total_ns[i].store(0, Ordering::Relaxed);
        }
    }
}

static HEATMAPS: Mutex<BTreeMap<&'static str, Heatmap>> = Mutex::new(BTreeMap::new());

/// Looks up (or creates) the heatmap named `name`. Names must be
/// kebab-case literals (the `obs-span-name` rule in `lbq-check`
/// covers this entry point). Lock only on lookup — clone the handle
/// once and record through it.
pub fn heatmap(name: &'static str) -> Heatmap {
    let mut g = HEATMAPS.lock().unwrap_or_else(|e| e.into_inner());
    g.entry(name).or_default().clone()
}

/// Snapshot of every registered heatmap's non-empty tiles, sorted by
/// name (for the exporter).
pub fn heatmaps_snapshot() -> Vec<(&'static str, Vec<TileStat>)> {
    // Clone the handles out of the registry lock first: the slot sweep
    // below is O(HEATMAP_SLOTS) per map and must not stall `heatmap()`
    // lookups on the serve path.
    let maps: Vec<(&'static str, Heatmap)> = {
        let g = HEATMAPS.lock().unwrap_or_else(|e| e.into_inner());
        g.iter().map(|(n, h)| (*n, h.clone())).collect()
    };
    // lbq-check: allow(guard-across-call) — `maps` is a plain Vec (the guard dropped with the block above); `snapshot` is Heatmap::snapshot, not the hot stats snapshot
    maps.into_iter().map(|(n, h)| (n, h.snapshot())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let h = Heatmap::new();
        h.record(5, 100);
        h.record(5, 50);
        h.record(9, 10);
        assert_eq!(h.hits(5), 2);
        assert_eq!(h.total_hits(), 3);
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap[0],
            TileStat {
                tile: 5,
                hits: 2,
                total_ns: 150
            }
        );
        assert_eq!(snap[0].mean_ns(), 75);
        let hot = h.hot_tiles(1);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].tile, 5);
        h.clear();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn out_of_range_tiles_mask_into_bounds() {
        let h = Heatmap::new();
        h.record(u32::MAX, 7);
        // HEATMAP_SLOTS = 2^12
        let last = (HEATMAP_SLOTS - 1) as u32;
        assert_eq!(h.hits(last), 1);
        let snap = h.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].tile, last);
        assert!(snap.iter().all(|t| (t.tile as usize) < HEATMAP_SLOTS));
    }

    #[test]
    fn tile_of_key_takes_top_bits() {
        // A 32-bit Hilbert key: the tile is its top 12 bits.
        let key = 0xABCD_1234u64;
        assert_eq!(Heatmap::tile_of_key(key, 32), 0xABC);
        // Narrow keys pass through (masked).
        assert_eq!(Heatmap::tile_of_key(0x7, 3), 0x7);
        assert_eq!(Heatmap::tile_of_key(u64::MAX, 64), 0xFFF);
    }

    #[test]
    fn registry_dedupes_heatmaps() {
        let a = heatmap("test-heatmap-dedupe");
        let b = heatmap("test-heatmap-dedupe");
        a.record(1, 10);
        b.record(1, 10);
        assert_eq!(a.hits(1), 2);
        assert!(heatmaps_snapshot()
            .iter()
            .any(|(n, tiles)| *n == "test-heatmap-dedupe" && !tiles.is_empty()));
    }
}
