//! A flat multiset of CE cell addresses, counted at four levels.
//!
//! Both rolling consumers of CE addresses — the observation window's
//! spatial dispersion in [`FeatureStream`](crate::stream::FeatureStream)
//! and the 30-day [`RollingFaultClassifier`](crate::fault_analysis::RollingFaultClassifier)
//! — need the same counts: events per cell, live cells per row and per
//! column, and live rows and columns per bank. [`AddrCounts`] keeps them in
//! four flat maps keyed by the address packed into a `u64`. A level
//! changes only when the level below it goes 0↔1, so repeating a cell
//! touches one map entry.
//!
//! The maps hash with [`SeededMix`]: the packed key XORed with a
//! per-process seed, through the SplitMix64 finalizer. CE addresses come
//! from outside the process, and without the seed a crafted address
//! sequence could pile every key into one bucket.

use mfp_dram::address::CellAddr;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Builds [`MixHasher`]s under a seed drawn once per process from
/// [`RandomState`].
#[derive(Clone)]
struct SeededMix {
    seed: u64,
}

impl Default for SeededMix {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
        SeededMix { seed }
    }
}

impl BuildHasher for SeededMix {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher {
            seed: self.seed,
            packed: 0,
        }
    }
}

/// Hashes one packed `u64` key as `splitmix64(key ^ seed)`. SplitMix64's
/// finalizer is a bijection, so distinct keys never share a full hash.
struct MixHasher {
    seed: u64,
    packed: u64,
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach these maps (`write_u64`); shifting bytes in
        // keeps any other key of up to eight bytes lossless too.
        for &b in bytes {
            self.packed = self.packed << 8 | u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.packed = key;
    }

    fn finish(&self) -> u64 {
        mfp_rng::splitmix64(self.packed ^ self.seed)
    }
}

type Counts<V> = HashMap<u64, V, SeededMix>;

/// `(rank, bank)` in 16 bits.
fn bank_key(a: CellAddr) -> u64 {
    u64::from(a.rank) << 8 | u64::from(a.bank)
}

/// `(rank, bank, row)` in 48 bits.
fn row_key(a: CellAddr) -> u64 {
    bank_key(a) << 32 | u64::from(a.row)
}

/// `(rank, bank, col)` in 32 bits.
fn col_key(a: CellAddr) -> u64 {
    bank_key(a) << 16 | u64::from(a.col)
}

/// `(rank, bank, row, col)` in 64 bits.
fn cell_key(a: CellAddr) -> u64 {
    row_key(a) << 16 | u64::from(a.col)
}

/// The counts one [`AddrCounts::insert`] or [`AddrCounts::remove`] moved,
/// each read on the high side of its step: after an insert, before a
/// removal. A threshold `th` is crossed by the step exactly when the
/// high-side count equals `th`.
#[derive(Clone, Copy)]
pub(crate) struct Moved {
    /// Events at the cell.
    pub cell: u32,
    /// Live cells in the cell's row, when the cell went 0↔1.
    pub row: Option<u32>,
    /// Live cells in the cell's column, when the cell went 0↔1.
    pub col: Option<u32>,
    /// The bank's live `[rows, cols]` on the low and the high side, when
    /// the row or the column went 0↔1.
    pub bank: Option<([u32; 2], [u32; 2])>,
}

/// Multiset of cell addresses with per-row, per-column and per-bank
/// distinct counts; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddrCounts {
    cells: Counts<u32>,
    rows: Counts<u32>,
    cols: Counts<u32>,
    banks: Counts<[u32; 2]>,
}

impl AddrCounts {
    /// Adds one event at `a`.
    pub fn insert(&mut self, a: CellAddr) -> Moved {
        let cell = bump(&mut self.cells, cell_key(a));
        let mut moved = Moved {
            cell,
            row: None,
            col: None,
            bank: None,
        };
        if cell == 1 {
            let row = bump(&mut self.rows, row_key(a));
            let col = bump(&mut self.cols, col_key(a));
            moved.row = Some(row);
            moved.col = Some(col);
            if row == 1 || col == 1 {
                let bank = self.banks.entry(bank_key(a)).or_insert([0, 0]);
                let low = *bank;
                bank[0] += u32::from(row == 1);
                bank[1] += u32::from(col == 1);
                moved.bank = Some((low, *bank));
            }
        }
        moved
    }

    /// Removes one event at `a`, previously inserted.
    ///
    /// # Panics
    ///
    /// Panics if no event at `a` is held.
    pub fn remove(&mut self, a: CellAddr) -> Moved {
        let cell = drop_one(&mut self.cells, cell_key(a));
        let mut moved = Moved {
            cell,
            row: None,
            col: None,
            bank: None,
        };
        if cell == 1 {
            let row = drop_one(&mut self.rows, row_key(a));
            let col = drop_one(&mut self.cols, col_key(a));
            moved.row = Some(row);
            moved.col = Some(col);
            if row == 1 || col == 1 {
                let Entry::Occupied(mut bank) = self.banks.entry(bank_key(a)) else {
                    panic!("bank count present");
                };
                let high = *bank.get();
                let low = [high[0] - u32::from(row == 1), high[1] - u32::from(col == 1)];
                if low == [0, 0] {
                    bank.remove();
                } else {
                    *bank.get_mut() = low;
                }
                moved.bank = Some((low, high));
            }
        }
        moved
    }

    /// Distinct cells held.
    pub fn cells(&self) -> u32 {
        self.cells.len() as u32
    }

    /// Distinct rows held.
    pub fn rows(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Distinct columns held.
    pub fn cols(&self) -> u32 {
        self.cols.len() as u32
    }

    /// Distinct banks held.
    pub fn banks(&self) -> u32 {
        self.banks.len() as u32
    }
}

/// Increments `key`'s count; returns the count after.
fn bump(map: &mut Counts<u32>, key: u64) -> u32 {
    let c = map.entry(key).or_insert(0);
    *c += 1;
    *c
}

/// Decrements `key`'s count, dropping the key at zero; returns the count
/// before.
fn drop_one(map: &mut Counts<u32>, key: u64) -> u32 {
    let Entry::Occupied(mut e) = map.entry(key) else {
        panic!("multiset count present");
    };
    let before = *e.get();
    if before == 1 {
        e.remove();
    } else {
        *e.get_mut() -= 1;
    }
    before
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn keys_pack_losslessly() {
        let a = CellAddr::new(0xAB, 0xCD, 0x1234_5678, 0x9ABC);
        assert_eq!(cell_key(a), 0xABCD_1234_5678_9ABC);
        assert_eq!(row_key(a), 0xABCD_1234_5678);
        assert_eq!(col_key(a), 0xABCD_9ABC);
        assert_eq!(bank_key(a), 0xABCD);
    }

    #[test]
    fn hasher_mixes_the_seeded_key() {
        let s = SeededMix::default();
        assert_eq!(s.seed, SeededMix::default().seed, "one seed per process");
        assert_eq!(s.hash_one(7u64), mfp_rng::splitmix64(7 ^ s.seed));
    }

    /// Distinct counts recomputed from the held multiset.
    fn recount(held: &BTreeMap<(u8, u8, u32, u16), u32>) -> [u32; 4] {
        let rows: BTreeSet<_> = held.keys().map(|&(r, b, row, _)| (r, b, row)).collect();
        let cols: BTreeSet<_> = held.keys().map(|&(r, b, _, col)| (r, b, col)).collect();
        let banks: BTreeSet<_> = held.keys().map(|&(r, b, _, _)| (r, b)).collect();
        [
            held.len() as u32,
            rows.len() as u32,
            cols.len() as u32,
            banks.len() as u32,
        ]
    }

    #[test]
    fn counts_track_a_random_multiset() {
        let mut rng = mfp_rng::StdRng::seed_from_u64(3);
        let mut counts = AddrCounts::default();
        let mut held: BTreeMap<(u8, u8, u32, u16), u32> = BTreeMap::new();
        let mut live: Vec<CellAddr> = Vec::new();
        for step in 0..4000 {
            if live.is_empty() || rng.random_range(0..3u32) > 0 {
                let a = CellAddr {
                    rank: rng.random_range(0..2u8),
                    bank: rng.random_range(0..2u8),
                    row: rng.random_range(0..4u32),
                    col: rng.random_range(0..4u16),
                };
                let m = counts.insert(a);
                let c = held.entry((a.rank, a.bank, a.row, a.col)).or_insert(0);
                *c += 1;
                assert_eq!(m.cell, *c, "step {step}");
                assert_eq!(m.row.is_some(), *c == 1, "step {step}");
                live.push(a);
            } else {
                let a = live.swap_remove(rng.random_range(0..live.len()));
                let m = counts.remove(a);
                let key = (a.rank, a.bank, a.row, a.col);
                assert_eq!(m.cell, held[&key], "step {step}");
                *held.get_mut(&key).unwrap() -= 1;
                if held[&key] == 0 {
                    held.remove(&key);
                }
            }
            let got = [counts.cells(), counts.rows(), counts.cols(), counts.banks()];
            assert_eq!(got, recount(&held), "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "multiset count present")]
    fn removing_an_absent_address_panics() {
        AddrCounts::default().remove(CellAddr::new(0, 0, 1, 1));
    }
}
