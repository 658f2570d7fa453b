//! Memory RAS mitigation techniques (paper §II-C): page offlining and
//! Post Package Repair (PPR).
//!
//! Production platforms do not watch faults passively — the OS retires
//! pages that accumulate CEs \[34, 36, 37\] and the DIMM can fuse in spare
//! rows (PPR \[33\]). Both remove *row-confined* faults from the access
//! path; faults spanning a column, bank or whole device keep erring, which
//! is exactly why they dominate the UE population. The fleet simulator
//! applies a [`RasPolicy`] per DIMM and reports what was mitigated.

use crate::fault::Fault;
use mfp_dram::address::{CellAddr, Region};
use std::collections::BTreeMap;

/// RAS mitigation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasPolicy {
    /// CEs on one row before the OS offlines the backing page.
    pub page_offline_threshold: u32,
    /// Maximum pages the OS will retire per DIMM.
    pub page_offline_budget: u32,
    /// Whether PPR is attempted before page offlining.
    pub ppr_enabled: bool,
    /// Spare rows available for PPR per DIMM.
    pub ppr_budget: u32,
    /// Optional ADDDC-style adaptive device sparing (Intel \[34, 35\]).
    pub adddc: Option<AdddcPolicy>,
}

impl Default for RasPolicy {
    fn default() -> Self {
        RasPolicy {
            page_offline_threshold: 8,
            page_offline_budget: 64,
            ppr_enabled: true,
            ppr_budget: 4,
            adddc: None,
        }
    }
}

/// ADDDC (Adaptive Double Device Data Correction, \[34, 35\]): once a DRAM
/// device shows persistent CEs, the controller engages virtual lockstep —
/// mapping the failing device out and restoring full device-level
/// correction (at a capacity/bandwidth cost this model does not track).
///
/// On the Purley model this upgrades the weakened odd beats back to full
/// SDDC for the remainder of the DIMM's life, so single-chip degradation
/// stops producing UEs — at the price of consuming the sparing budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdddcPolicy {
    /// Corrected errors observed on a single device before lockstep
    /// engages.
    pub activation_ces: u32,
}

impl Default for AdddcPolicy {
    fn default() -> Self {
        AdddcPolicy { activation_ces: 16 }
    }
}

/// Per-DIMM ADDDC activation state.
#[derive(Debug, Clone)]
pub struct AdddcState {
    policy: AdddcPolicy,
    ce_per_device: [u32; 18],
    active: bool,
}

impl AdddcState {
    /// Creates inactive state.
    pub fn new(policy: AdddcPolicy) -> Self {
        AdddcState {
            policy,
            ce_per_device: [0; 18],
            active: false,
        }
    }

    /// Whether virtual lockstep is engaged.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Observes the device bitmask of a corrected transfer; returns true
    /// when this observation activates lockstep.
    pub fn observe_devices(&mut self, device_mask: u32) -> bool {
        if self.active {
            return false;
        }
        for (d, count) in self.ce_per_device.iter_mut().enumerate() {
            if (device_mask >> d) & 1 == 1 {
                *count += 1;
                if *count >= self.policy.activation_ces {
                    self.active = true;
                }
            }
        }
        self.active
    }
}

/// What the RAS layer decided after observing a CE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasAction {
    /// No mitigation triggered.
    None,
    /// The row was repaired with a spare (fault gone for good).
    PprRepair,
    /// The backing page was retired (row no longer accessed).
    PageOffline,
}

/// Counters of mitigation activity on one DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RasReport {
    /// Rows repaired by PPR.
    pub ppr_repairs: u32,
    /// Pages retired.
    pub pages_offlined: u32,
    /// Faults deactivated by either mechanism.
    pub faults_mitigated: u32,
}

/// Per-DIMM RAS state machine.
#[derive(Debug, Clone)]
pub struct RasState {
    policy: RasPolicy,
    row_ces: BTreeMap<(u8, u8, u32), u32>,
    ppr_left: u32,
    offline_left: u32,
    /// Rows removed from the access path (repaired or retired).
    dead_rows: BTreeMap<(u8, u8, u32), RasAction>,
    report: RasReport,
}

impl RasState {
    /// Creates fresh state under a policy.
    pub fn new(policy: RasPolicy) -> Self {
        RasState {
            policy,
            row_ces: BTreeMap::new(),
            ppr_left: policy.ppr_budget,
            offline_left: policy.page_offline_budget,
            dead_rows: BTreeMap::new(),
            report: RasReport::default(),
        }
    }

    /// Mitigation activity so far.
    pub fn report(&self) -> RasReport {
        self.report
    }

    /// Whether a row has been repaired or retired.
    pub fn row_is_dead(&self, rank: u8, bank: u8, row: u32) -> bool {
        self.dead_rows.contains_key(&(rank, bank, row))
    }

    /// Observes one CE at `addr`; returns the action taken (if any).
    pub fn observe_ce(&mut self, addr: &CellAddr) -> RasAction {
        let key = (addr.rank, addr.bank, addr.row);
        if self.dead_rows.contains_key(&key) {
            return RasAction::None;
        }
        let count = self.row_ces.entry(key).or_insert(0);
        *count += 1;
        if *count < self.policy.page_offline_threshold {
            return RasAction::None;
        }
        // Threshold crossed: prefer a hard repair, fall back to retiring
        // the page, give up when both budgets are spent.
        if self.policy.ppr_enabled && self.ppr_left > 0 {
            self.ppr_left -= 1;
            self.report.ppr_repairs += 1;
            self.dead_rows.insert(key, RasAction::PprRepair);
            RasAction::PprRepair
        } else if self.offline_left > 0 {
            self.offline_left -= 1;
            self.report.pages_offlined += 1;
            self.dead_rows.insert(key, RasAction::PageOffline);
            RasAction::PageOffline
        } else {
            RasAction::None
        }
    }

    /// Whether a mitigation kills `fault` outright: only faults confined to
    /// the affected row disappear — column/bank/device faults keep erring
    /// through other rows (the paper's point about limited applicability).
    pub fn fault_is_mitigated(
        &mut self,
        fault: &Fault,
        action: RasAction,
        addr: &CellAddr,
    ) -> bool {
        if action == RasAction::None {
            return false;
        }
        let confined = match fault.region {
            Region::Cell { addr: a } => {
                a.rank == addr.rank && a.bank == addr.bank && a.row == addr.row
            }
            Region::Row { rank, bank, row } => {
                rank == addr.rank && bank == addr.bank && row == addr.row
            }
            _ => false,
        };
        if confined {
            self.report.faults_mitigated += 1;
        }
        confined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultMode, SeverityProfile};
    use mfp_dram::time::SimTime;

    fn addr(row: u32) -> CellAddr {
        CellAddr::new(0, 3, row, 7)
    }

    fn row_fault(row: u32) -> Fault {
        Fault {
            mode: FaultMode::Row,
            device: 2,
            extra_devices: vec![],
            region: Region::Row {
                rank: 0,
                bank: 3,
                row,
            },
            dq_mask: 1,
            beat_mask: 1,
            onset: SimTime::ZERO,
            profile: SeverityProfile::stable(0.05),
            hit_rate_per_day: 3.0,
            spread: None,
        }
    }

    #[allow(clippy::needless_update)] // explicit struct-update keeps the diff minimal
    fn bank_fault() -> Fault {
        Fault {
            region: Region::Bank { rank: 0, bank: 3 },
            mode: FaultMode::Bank,
            ..row_fault(0)
        }
    }

    #[test]
    fn adddc_activates_on_persistent_device() {
        let mut a = AdddcState::new(AdddcPolicy { activation_ces: 3 });
        assert!(!a.observe_devices(1 << 5));
        assert!(!a.observe_devices(1 << 5));
        assert!(a.observe_devices(1 << 5), "third CE on device 5 activates");
        assert!(a.is_active());
        assert!(!a.observe_devices(1 << 5), "already active");
    }

    #[test]
    fn adddc_counts_per_device() {
        let mut a = AdddcState::new(AdddcPolicy { activation_ces: 3 });
        // CEs spread over distinct devices never activate.
        for d in 0..9 {
            assert!(!a.observe_devices(1 << d));
            assert!(!a.observe_devices(1 << d));
        }
        assert!(!a.is_active());
    }

    #[test]
    fn threshold_triggers_ppr_first() {
        let mut ras = RasState::new(RasPolicy::default());
        for i in 0..7 {
            assert_eq!(ras.observe_ce(&addr(42)), RasAction::None, "ce {i}");
        }
        assert_eq!(ras.observe_ce(&addr(42)), RasAction::PprRepair);
        assert!(ras.row_is_dead(0, 3, 42));
        assert_eq!(ras.report().ppr_repairs, 1);
    }

    #[test]
    fn offlining_after_ppr_budget_exhausted() {
        let policy = RasPolicy {
            ppr_budget: 1,
            page_offline_threshold: 2,
            ..Default::default()
        };
        let mut ras = RasState::new(policy);
        ras.observe_ce(&addr(1));
        assert_eq!(ras.observe_ce(&addr(1)), RasAction::PprRepair);
        ras.observe_ce(&addr(2));
        assert_eq!(ras.observe_ce(&addr(2)), RasAction::PageOffline);
        assert_eq!(ras.report().pages_offlined, 1);
    }

    #[test]
    fn budgets_are_finite() {
        let policy = RasPolicy {
            ppr_budget: 0,
            ppr_enabled: true,
            page_offline_budget: 1,
            page_offline_threshold: 1,
            adddc: None,
        };
        let mut ras = RasState::new(policy);
        assert_eq!(ras.observe_ce(&addr(1)), RasAction::PageOffline);
        assert_eq!(ras.observe_ce(&addr(2)), RasAction::None, "budget spent");
    }

    #[test]
    fn dead_rows_stop_counting() {
        let mut ras = RasState::new(RasPolicy {
            page_offline_threshold: 1,
            ..Default::default()
        });
        assert_eq!(ras.observe_ce(&addr(9)), RasAction::PprRepair);
        assert_eq!(ras.observe_ce(&addr(9)), RasAction::None);
        assert_eq!(ras.report().ppr_repairs, 1);
    }

    #[test]
    fn row_confined_faults_are_mitigated_wide_faults_not() {
        let mut ras = RasState::new(RasPolicy::default());
        let a = addr(42);
        let row = row_fault(42);
        let bank = bank_fault();
        assert!(ras.fault_is_mitigated(&row, RasAction::PprRepair, &a));
        assert!(!ras.fault_is_mitigated(&bank, RasAction::PprRepair, &a));
        assert!(!ras.fault_is_mitigated(&row, RasAction::None, &a));
        assert_eq!(ras.report().faults_mitigated, 1);
    }

    #[test]
    fn other_rows_unaffected() {
        let mut ras = RasState::new(RasPolicy::default());
        let a = addr(42);
        let other = row_fault(43);
        assert!(!ras.fault_is_mitigated(&other, RasAction::PprRepair, &a));
    }
}
