//! Fault-mode classification from observed CE history (paper §V).
//!
//! Mirrors the threshold-based definitions of \[12, 29, 30\]: a *cell* fault
//! is repeated CEs at one cell; *row*/*column* faults are CEs spread along
//! one row/column; a *bank* fault combines both within one bank; and the
//! device dimension is read off the error-bit transfers — CEs confined to
//! one device indicate a *single-device* fault, CEs across several devices
//! a *multi-device* fault. A DIMM can carry several labels at once, exactly
//! as in the paper's Fig. 4 methodology.

use crate::addr_counts::{AddrCounts, Moved};
use mfp_dram::address::CellAddr;
use mfp_dram::event::CeEvent;
use mfp_dram::geometry::DataWidth;
use std::collections::{BTreeMap, BTreeSet};

/// Thresholds for classifying fault modes from CEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultThresholds {
    /// Repeated CEs at one cell to call it a cell fault.
    pub cell_repeats: u32,
    /// Distinct columns within one row to call it a row fault.
    pub row_distinct_cols: u32,
    /// Distinct rows within one column to call it a column fault.
    pub col_distinct_rows: u32,
    /// Distinct faulty rows and columns within one bank for a bank fault.
    pub bank_distinct: u32,
}

impl Default for FaultThresholds {
    fn default() -> Self {
        FaultThresholds {
            cell_repeats: 2,
            row_distinct_cols: 2,
            col_distinct_rows: 2,
            bank_distinct: 3,
        }
    }
}

/// Fault-mode labels observed on a DIMM (non-exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObservedFaults {
    /// Repeated CEs at a single cell.
    pub cell: bool,
    /// CEs across a row.
    pub row: bool,
    /// CEs across a column.
    pub column: bool,
    /// CEs across rows *and* columns of one bank.
    pub bank: bool,
    /// All error bits confined to one DRAM device.
    pub single_device: bool,
    /// Error bits observed on two or more devices.
    pub multi_device: bool,
}

impl ObservedFaults {
    /// Label names in Fig. 4 display order.
    pub const LABELS: [&'static str; 6] = [
        "cell",
        "column",
        "row",
        "bank",
        "single-device",
        "multi-device",
    ];

    /// The labels as booleans, in [`Self::LABELS`] order.
    pub fn flags(&self) -> [bool; 6] {
        [
            self.cell,
            self.column,
            self.row,
            self.bank,
            self.single_device,
            self.multi_device,
        ]
    }
}

/// Classifies the fault modes evident in a CE sequence.
pub fn classify_ces<'a, I>(ces: I, width: DataWidth, th: &FaultThresholds) -> ObservedFaults
where
    I: IntoIterator<Item = &'a CeEvent>,
{
    // Spatial aggregation keyed by (rank, bank).
    let mut cell_counts: BTreeMap<(u8, u8, u32, u16), u32> = BTreeMap::new();
    let mut row_cols: BTreeMap<(u8, u8, u32), BTreeSet<u16>> = BTreeMap::new();
    let mut col_rows: BTreeMap<(u8, u8, u16), BTreeSet<u32>> = BTreeMap::new();
    let mut bank_rows: BTreeMap<(u8, u8), BTreeSet<u32>> = BTreeMap::new();
    let mut bank_cols: BTreeMap<(u8, u8), BTreeSet<u16>> = BTreeMap::new();
    let mut devices: u32 = 0;
    let mut any = false;

    for ce in ces {
        any = true;
        let a = ce.addr;
        *cell_counts
            .entry((a.rank, a.bank, a.row, a.col))
            .or_default() += 1;
        row_cols
            .entry((a.rank, a.bank, a.row))
            .or_default()
            .insert(a.col);
        col_rows
            .entry((a.rank, a.bank, a.col))
            .or_default()
            .insert(a.row);
        bank_rows.entry((a.rank, a.bank)).or_default().insert(a.row);
        bank_cols.entry((a.rank, a.bank)).or_default().insert(a.col);
        devices |= ce.transfer.device_mask(width);
    }

    if !any {
        return ObservedFaults::default();
    }

    let cell = cell_counts.values().any(|&c| c >= th.cell_repeats);
    let row = row_cols
        .values()
        .any(|cols| cols.len() as u32 >= th.row_distinct_cols);
    let column = col_rows
        .values()
        .any(|rows| rows.len() as u32 >= th.col_distinct_rows);
    let bank = bank_rows.iter().any(|(key, rows)| {
        rows.len() as u32 >= th.bank_distinct
            && bank_cols
                .get(key)
                .is_some_and(|cols| cols.len() as u32 >= th.bank_distinct)
    });
    let n_devices = devices.count_ones();
    ObservedFaults {
        cell,
        row,
        column,
        bank,
        single_device: n_devices == 1,
        multi_device: n_devices >= 2,
    }
}

/// Incremental fault-mode classification over a sliding CE window.
///
/// Keeps the window's addresses as an `AddrCounts` multiset — the same
/// spatial aggregations as [`classify_ces`], with eviction — plus
/// counters of how many cells, rows, columns and banks currently satisfy
/// each threshold, updated when a step crosses one. [`Self::classify`] is
/// O(1) and insert/evict are O(1) hash-map updates. Thresholds must be
/// >= 1 (the defaults are).
#[derive(Debug, Clone)]
pub struct RollingFaultClassifier {
    th: FaultThresholds,
    events: u32,
    addrs: AddrCounts,
    cell_hits: u32,
    row_hits: u32,
    col_hits: u32,
    bank_hits: u32,
    device_events: [u32; 32],
    devices: u32,
}

impl RollingFaultClassifier {
    /// An empty window with the given thresholds.
    pub fn new(th: FaultThresholds) -> Self {
        debug_assert!(
            th.cell_repeats >= 1
                && th.row_distinct_cols >= 1
                && th.col_distinct_rows >= 1
                && th.bank_distinct >= 1,
            "rolling classification requires thresholds >= 1"
        );
        RollingFaultClassifier {
            th,
            events: 0,
            addrs: AddrCounts::default(),
            cell_hits: 0,
            row_hits: 0,
            col_hits: 0,
            bank_hits: 0,
            device_events: [0; 32],
            devices: 0,
        }
    }

    /// Adds one CE (its cell address and device bitmask) to the window.
    pub fn insert(&mut self, addr: CellAddr, device_mask: u32) {
        self.events += 1;
        let moved = self.addrs.insert(addr);
        let [cell, row, col, bank] = self.crossings(moved);
        self.cell_hits += u32::from(cell);
        self.row_hits += u32::from(row);
        self.col_hits += u32::from(col);
        self.bank_hits += u32::from(bank);

        let mut m = device_mask;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            m &= m - 1;
            self.device_events[d] += 1;
            if self.device_events[d] == 1 {
                self.devices += 1;
            }
        }
    }

    /// Evicts one previously inserted CE from the window.
    pub fn remove(&mut self, addr: CellAddr, device_mask: u32) {
        debug_assert!(self.events > 0, "evicting from an empty window");
        self.events -= 1;
        let moved = self.addrs.remove(addr);
        let [cell, row, col, bank] = self.crossings(moved);
        self.cell_hits -= u32::from(cell);
        self.row_hits -= u32::from(row);
        self.col_hits -= u32::from(col);
        self.bank_hits -= u32::from(bank);

        let mut m = device_mask;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            m &= m - 1;
            self.device_events[d] -= 1;
            if self.device_events[d] == 0 {
                self.devices -= 1;
            }
        }
    }

    /// Which of the cell, row, column and bank thresholds the step that
    /// moved `m` crossed, in either direction.
    fn crossings(&self, m: Moved) -> [bool; 4] {
        let th = self.th;
        let bank_hit =
            |[rows, cols]: [u32; 2]| rows >= th.bank_distinct && cols >= th.bank_distinct;
        [
            m.cell == th.cell_repeats,
            m.row == Some(th.row_distinct_cols),
            m.col == Some(th.col_distinct_rows),
            m.bank
                .is_some_and(|(low, high)| bank_hit(high) && !bank_hit(low)),
        ]
    }

    /// The fault modes evident in the current window, identical to
    /// [`classify_ces`] over the same events.
    pub fn classify(&self) -> ObservedFaults {
        if self.events == 0 {
            return ObservedFaults::default();
        }
        ObservedFaults {
            cell: self.cell_hits > 0,
            row: self.row_hits > 0,
            column: self.col_hits > 0,
            bank: self.bank_hits > 0,
            single_device: self.devices == 1,
            multi_device: self.devices >= 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::{CellAddr, DimmId};
    use mfp_dram::bus::ErrorTransfer;
    use mfp_dram::time::SimTime;

    fn ce_at(t: u64, bank: u8, row: u32, col: u16, dev: u8) -> CeEvent {
        CeEvent {
            time: SimTime::from_secs(t),
            dimm: DimmId::new(0, 0),
            addr: CellAddr::new(0, bank, row, col),
            transfer: ErrorTransfer::from_bits([(0, dev * 4)]),
        }
    }

    #[test]
    fn repeated_cell_is_cell_fault() {
        let ces = [ce_at(1, 0, 5, 5, 0), ce_at(2, 0, 5, 5, 0)];
        let f = classify_ces(ces.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(f.cell);
        assert!(!f.row && !f.column && !f.bank);
        assert!(f.single_device && !f.multi_device);
    }

    #[test]
    fn spread_along_row_is_row_fault() {
        let ces = [ce_at(1, 0, 5, 1, 0), ce_at(2, 0, 5, 2, 0)];
        let f = classify_ces(ces.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(f.row && !f.cell && !f.column);
    }

    #[test]
    fn spread_along_column_is_column_fault() {
        let ces = [ce_at(1, 0, 5, 1, 0), ce_at(2, 0, 9, 1, 0)];
        let f = classify_ces(ces.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(f.column && !f.row);
    }

    #[test]
    fn bank_fault_needs_rows_and_cols() {
        let ces = [
            ce_at(1, 2, 1, 1, 0),
            ce_at(2, 2, 2, 2, 0),
            ce_at(3, 2, 3, 3, 0),
        ];
        let f = classify_ces(ces.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(f.bank, "3 distinct rows x 3 distinct cols in one bank");
        // Same dispersion split across two banks is not a bank fault.
        let ces2 = [
            ce_at(1, 2, 1, 1, 0),
            ce_at(2, 2, 2, 2, 0),
            ce_at(3, 3, 3, 3, 0),
        ];
        let f2 = classify_ces(ces2.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(!f2.bank);
    }

    #[test]
    fn device_dimension_from_transfers() {
        let single = [ce_at(1, 0, 1, 1, 3), ce_at(2, 0, 2, 2, 3)];
        let f = classify_ces(single.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(f.single_device && !f.multi_device);

        let multi = [ce_at(1, 0, 1, 1, 3), ce_at(2, 0, 2, 2, 9)];
        let f = classify_ces(multi.iter(), DataWidth::X4, &FaultThresholds::default());
        assert!(f.multi_device && !f.single_device);
    }

    #[test]
    fn empty_history_has_no_labels() {
        let f = classify_ces(
            std::iter::empty(),
            DataWidth::X4,
            &FaultThresholds::default(),
        );
        assert_eq!(f, ObservedFaults::default());
    }

    fn assorted_ces() -> Vec<CeEvent> {
        vec![
            ce_at(1, 0, 5, 5, 0),
            ce_at(2, 0, 5, 5, 0),
            ce_at(3, 0, 5, 7, 1),
            ce_at(4, 2, 1, 1, 0),
            ce_at(5, 2, 2, 2, 0),
            ce_at(6, 2, 3, 3, 0),
            ce_at(7, 0, 9, 5, 3),
            ce_at(8, 2, 1, 1, 3),
        ]
    }

    #[test]
    fn rolling_matches_batch_on_every_prefix() {
        let ces = assorted_ces();
        let th = FaultThresholds::default();
        let mut rolling = RollingFaultClassifier::new(th);
        for k in 0..=ces.len() {
            let batch = classify_ces(ces[..k].iter(), DataWidth::X4, &th);
            assert_eq!(rolling.classify(), batch, "prefix {k}");
            if k < ces.len() {
                rolling.insert(ces[k].addr, ces[k].transfer.device_mask(DataWidth::X4));
            }
        }
    }

    #[test]
    fn rolling_matches_batch_under_eviction() {
        // Case 0 slides a length-4 window over the assorted CEs under the
        // default thresholds. The others draw thresholds from 1 (every
        // first event crosses) to above the defaults, a window length,
        // and CEs packed into 2 ranks x 2 banks x 3 rows x 3 columns so
        // cells, rows and columns repeat and empty out again.
        let width = DataWidth::X4;
        let mut rng = mfp_rng::StdRng::seed_from_u64(0xFA17);
        for case in 0..400 {
            let (th, len, ces) = if case == 0 {
                (FaultThresholds::default(), 4, assorted_ces())
            } else {
                let th = FaultThresholds {
                    cell_repeats: rng.random_range(1..=4),
                    row_distinct_cols: rng.random_range(1..=4),
                    col_distinct_rows: rng.random_range(1..=4),
                    bank_distinct: rng.random_range(1..=4),
                };
                let len = rng.random_range(1..=12usize);
                let ces: Vec<CeEvent> = (0..rng.random_range(1..60u64))
                    .map(|t| CeEvent {
                        addr: CellAddr::new(
                            rng.random_range(0..2),
                            rng.random_range(0..2),
                            rng.random_range(0..3),
                            rng.random_range(0..3),
                        ),
                        ..ce_at(t, 0, 0, 0, rng.random_range(0..18))
                    })
                    .collect();
                (th, len, ces)
            };
            let mask = |ce: &CeEvent| ce.transfer.device_mask(width);
            let mut rolling = RollingFaultClassifier::new(th);
            // Slide the window across the sequence, then drain it back to
            // the empty classification.
            for hi in 0..ces.len() + len {
                if hi < ces.len() {
                    rolling.insert(ces[hi].addr, mask(&ces[hi]));
                }
                if hi >= len {
                    rolling.remove(ces[hi - len].addr, mask(&ces[hi - len]));
                }
                let window = &ces[(hi + 1).saturating_sub(len)..(hi + 1).min(ces.len())];
                assert_eq!(
                    rolling.classify(),
                    classify_ces(window, width, &th),
                    "case {case}, step {hi}, window length {len}, {th:?}"
                );
            }
            assert_eq!(rolling.classify(), ObservedFaults::default());
        }
    }

    #[test]
    fn labels_and_flags_align() {
        let f = ObservedFaults {
            cell: true,
            multi_device: true,
            ..Default::default()
        };
        let flags = f.flags();
        assert!(flags[0]); // cell
        assert!(flags[5]); // multi-device
        assert_eq!(ObservedFaults::LABELS.len(), flags.len());
    }
}
