//! Fault-mode classification from observed CE history (paper §V).
//!
//! Mirrors the threshold-based definitions of \[12, 29, 30\]: a *cell* fault
//! is repeated CEs at one cell; *row*/*column* faults are CEs spread along
//! one row/column; a *bank* fault combines both within one bank; and the
//! device dimension is read off the error-bit transfers — CEs confined to
//! one device indicate a *single-device* fault, CEs across several devices
//! a *multi-device* fault. A DIMM can carry several labels at once, exactly
//! as in the paper's Fig. 4 methodology.

use crate::history::DimmHistory;
use mfp_dram::address::CellAddr;
use mfp_dram::event::CeEvent;
use mfp_dram::geometry::DataWidth;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// Per-bank dispersion state of the rolling classifier.
#[derive(Debug, Clone, Default)]
struct BankDispersion {
    rows: HashMap<u32, u32>,
    cols: HashMap<u16, u32>,
}

/// Incremental fault-mode classification over a sliding CE window.
///
/// Maintains the same spatial aggregations as [`classify_ces`] as multisets
/// with eviction, plus counters of how many keys currently satisfy each
/// threshold, so [`Self::classify`] is O(1) and insert/evict are O(1)
/// hash-map updates. Thresholds must be >= 1 (the defaults are).
#[derive(Debug, Clone)]
pub struct RollingFaultClassifier {
    th: FaultThresholds,
    events: u32,
    cells: HashMap<(u8, u8, u32, u16), u32>,
    cell_hits: u32,
    row_cols: HashMap<(u8, u8, u32), HashMap<u16, u32>>,
    row_hits: u32,
    col_rows: HashMap<(u8, u8, u16), HashMap<u32, u32>>,
    col_hits: u32,
    banks: HashMap<(u8, u8), BankDispersion>,
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
            cells: HashMap::new(),
            cell_hits: 0,
            row_cols: HashMap::new(),
            row_hits: 0,
            col_rows: HashMap::new(),
            col_hits: 0,
            banks: HashMap::new(),
            bank_hits: 0,
            device_events: [0; 32],
            devices: 0,
        }
    }

    /// Adds one CE (its cell address and device bitmask) to the window.
    pub fn insert(&mut self, addr: CellAddr, device_mask: u32) {
        let th = self.th;
        self.events += 1;

        let c = self
            .cells
            .entry((addr.rank, addr.bank, addr.row, addr.col))
            .or_insert(0);
        *c += 1;
        if *c == th.cell_repeats {
            self.cell_hits += 1;
        }

        let cols = self
            .row_cols
            .entry((addr.rank, addr.bank, addr.row))
            .or_default();
        let before = cols.len() as u32;
        *cols.entry(addr.col).or_insert(0) += 1;
        if before < th.row_distinct_cols && cols.len() as u32 >= th.row_distinct_cols {
            self.row_hits += 1;
        }

        let rows = self
            .col_rows
            .entry((addr.rank, addr.bank, addr.col))
            .or_default();
        let before = rows.len() as u32;
        *rows.entry(addr.row).or_insert(0) += 1;
        if before < th.col_distinct_rows && rows.len() as u32 >= th.col_distinct_rows {
            self.col_hits += 1;
        }

        let bank = self.banks.entry((addr.rank, addr.bank)).or_default();
        let was_hit = bank_satisfies(bank, th.bank_distinct);
        *bank.rows.entry(addr.row).or_insert(0) += 1;
        *bank.cols.entry(addr.col).or_insert(0) += 1;
        if !was_hit && bank_satisfies(bank, th.bank_distinct) {
            self.bank_hits += 1;
        }

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
        let th = self.th;
        self.events -= 1;

        let cell_key = (addr.rank, addr.bank, addr.row, addr.col);
        let c = self.cells.get_mut(&cell_key).expect("cell count present");
        if *c == th.cell_repeats {
            self.cell_hits -= 1;
        }
        *c -= 1;
        if *c == 0 {
            self.cells.remove(&cell_key);
        }

        let row_key = (addr.rank, addr.bank, addr.row);
        let cols = self.row_cols.get_mut(&row_key).expect("row state present");
        let before = cols.len() as u32;
        let n = cols.get_mut(&addr.col).expect("col count present");
        *n -= 1;
        if *n == 0 {
            cols.remove(&addr.col);
        }
        if before >= th.row_distinct_cols && (cols.len() as u32) < th.row_distinct_cols {
            self.row_hits -= 1;
        }
        if cols.is_empty() {
            self.row_cols.remove(&row_key);
        }

        let col_key = (addr.rank, addr.bank, addr.col);
        let rows = self
            .col_rows
            .get_mut(&col_key)
            .expect("column state present");
        let before = rows.len() as u32;
        let n = rows.get_mut(&addr.row).expect("row count present");
        *n -= 1;
        if *n == 0 {
            rows.remove(&addr.row);
        }
        if before >= th.col_distinct_rows && (rows.len() as u32) < th.col_distinct_rows {
            self.col_hits -= 1;
        }
        if rows.is_empty() {
            self.col_rows.remove(&col_key);
        }

        let bank_key = (addr.rank, addr.bank);
        let bank = self.banks.get_mut(&bank_key).expect("bank state present");
        let was_hit = bank_satisfies(bank, th.bank_distinct);
        let n = bank.rows.get_mut(&addr.row).expect("bank row present");
        *n -= 1;
        if *n == 0 {
            bank.rows.remove(&addr.row);
        }
        let n = bank.cols.get_mut(&addr.col).expect("bank col present");
        *n -= 1;
        if *n == 0 {
            bank.cols.remove(&addr.col);
        }
        if was_hit && !bank_satisfies(bank, th.bank_distinct) {
            self.bank_hits -= 1;
        }
        if bank.rows.is_empty() && bank.cols.is_empty() {
            self.banks.remove(&bank_key);
        }

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

fn bank_satisfies(bank: &BankDispersion, th: u32) -> bool {
    bank.rows.len() as u32 >= th && bank.cols.len() as u32 >= th
}

/// Classifies a DIMM's whole history up to (excluding) `before`.
pub fn classify_history(
    history: &DimmHistory<'_>,
    before: mfp_dram::time::SimTime,
    width: DataWidth,
    th: &FaultThresholds,
) -> ObservedFaults {
    classify_ces(
        history.ces_in(mfp_dram::time::SimTime::ZERO, before),
        width,
        th,
    )
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
        let ces = assorted_ces();
        let th = FaultThresholds::default();
        let width = DataWidth::X4;
        let mut rolling = RollingFaultClassifier::new(th);
        // Slide a length-4 window across the sequence, checking each step.
        for hi in 0..ces.len() {
            rolling.insert(ces[hi].addr, ces[hi].transfer.device_mask(width));
            if hi >= 4 {
                rolling.remove(ces[hi - 4].addr, ces[hi - 4].transfer.device_mask(width));
            }
            let lo = (hi + 1).saturating_sub(4);
            let batch = classify_ces(ces[lo..=hi].iter(), width, &th);
            assert_eq!(rolling.classify(), batch, "window [{lo}, {hi}]");
        }
        // Draining the window recovers the empty classification.
        let lo = ces.len().saturating_sub(4);
        for ce in &ces[lo..] {
            rolling.remove(ce.addr, ce.transfer.device_mask(width));
        }
        assert_eq!(rolling.classify(), ObservedFaults::default());
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
