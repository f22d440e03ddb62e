//! Selection kernels and the adaptive (reconfigurable) selection operator.
//!
//! The paper (§IV.B) calls for operators that "quickly adapt to changing
//! data characteristics … selectivity factors significantly impact the
//! success of branch prediction forcing the operator to switch between
//! different implementations", citing Ross (TODS'04). This module
//! implements the three classic kernels with genuinely different
//! microarchitectural behaviour, plus an operator that switches between
//! them at run time:
//!
//! * [`SelectKernel::Branching`] — one conditional branch per row; fast
//!   when the branch predictor wins (selectivity near 0 or 1).
//! * [`SelectKernel::Predicated`] — branch-free cursor bump; constant
//!   cost regardless of selectivity.
//! * [`SelectKernel::Bitwise`] — two phases: build 64-row match masks
//!   with a tight auto-vectorizable loop (the portable SIMD stand-in),
//!   then extract positions with `trailing_zeros`; cost ≈ n/64 + hits.

use crate::metrics::OpStats;
use haec_columnar::value::CmpOp;
use haec_energy::calibrate::{Kernel, KernelCosts};
use haec_energy::units::{ByteCount, Cycles};
use haec_energy::ResourceProfile;
use std::fmt;
use std::time::Instant;

/// The selection implementation to use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SelectKernel {
    /// If-based loop (branch per row).
    Branching,
    /// Branch-free cursor bump.
    #[default]
    Predicated,
    /// 64-lane mask construction + position extraction.
    Bitwise,
}

impl SelectKernel {
    /// All kernels in canonical order.
    pub const ALL: [SelectKernel; 3] =
        [SelectKernel::Branching, SelectKernel::Predicated, SelectKernel::Bitwise];
}

impl fmt::Display for SelectKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SelectKernel::Branching => "branching",
            SelectKernel::Predicated => "predicated",
            SelectKernel::Bitwise => "bitwise",
        };
        f.write_str(s)
    }
}

#[inline]
fn cmp(op: CmpOp, v: i64, lit: i64) -> bool {
    match op {
        CmpOp::Eq => v == lit,
        CmpOp::Ne => v != lit,
        CmpOp::Lt => v < lit,
        CmpOp::Le => v <= lit,
        CmpOp::Gt => v > lit,
        CmpOp::Ge => v >= lit,
    }
}

/// Runs `data[i] op literal` with the chosen kernel, returning matching
/// row positions (ascending).
pub fn select_positions(data: &[i64], op: CmpOp, literal: i64, kernel: SelectKernel) -> Vec<u32> {
    assert!(data.len() <= u32::MAX as usize, "chunk too large for u32 positions");
    match kernel {
        SelectKernel::Branching => select_branching(data, op, literal),
        SelectKernel::Predicated => select_predicated(data, op, literal),
        SelectKernel::Bitwise => select_bitwise(data, op, literal),
    }
}

fn select_branching(data: &[i64], op: CmpOp, literal: i64) -> Vec<u32> {
    let mut out = Vec::new();
    match op {
        // Monomorphized hot loops so the branch is on the *data*, not on
        // the operator.
        CmpOp::Lt => {
            for (i, &v) in data.iter().enumerate() {
                if v < literal {
                    out.push(i as u32);
                }
            }
        }
        CmpOp::Ge => {
            for (i, &v) in data.iter().enumerate() {
                if v >= literal {
                    out.push(i as u32);
                }
            }
        }
        _ => {
            for (i, &v) in data.iter().enumerate() {
                if cmp(op, v, literal) {
                    out.push(i as u32);
                }
            }
        }
    }
    out
}

fn select_predicated(data: &[i64], op: CmpOp, literal: i64) -> Vec<u32> {
    let mut out = vec![0u32; data.len()];
    let mut k = 0usize;
    match op {
        CmpOp::Lt => {
            for (i, &v) in data.iter().enumerate() {
                out[k] = i as u32;
                k += (v < literal) as usize;
            }
        }
        CmpOp::Ge => {
            for (i, &v) in data.iter().enumerate() {
                out[k] = i as u32;
                k += (v >= literal) as usize;
            }
        }
        _ => {
            for (i, &v) in data.iter().enumerate() {
                out[k] = i as u32;
                k += cmp(op, v, literal) as usize;
            }
        }
    }
    out.truncate(k);
    out
}

fn select_bitwise(data: &[i64], op: CmpOp, literal: i64) -> Vec<u32> {
    let mut out = Vec::new();
    let mut base = 0usize;
    for block in data.chunks(64) {
        let mut mask = 0u64;
        match op {
            CmpOp::Lt => {
                for (j, &v) in block.iter().enumerate() {
                    mask |= ((v < literal) as u64) << j;
                }
            }
            CmpOp::Ge => {
                for (j, &v) in block.iter().enumerate() {
                    mask |= ((v >= literal) as u64) << j;
                }
            }
            _ => {
                for (j, &v) in block.iter().enumerate() {
                    mask |= (cmp(op, v, literal) as u64) << j;
                }
            }
        }
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            out.push((base + j) as u32);
            mask &= mask - 1;
        }
        base += block.len();
    }
    out
}

/// Runs a selection and returns positions together with metering
/// information (modelled cycles from the calibrated constants, plus the
/// measured wall time for experiments that compare kernels for real).
pub fn select_metered(
    data: &[i64],
    op: CmpOp,
    literal: i64,
    kernel: SelectKernel,
    costs: &KernelCosts,
) -> (Vec<u32>, OpStats) {
    let start = Instant::now();
    let positions = select_positions(data, op, literal, kernel);
    let wall = start.elapsed();
    let n = data.len() as u64;
    let sel = if n == 0 { 0.0 } else { positions.len() as f64 / n as f64 };
    let cycles = model_cycles(kernel, n, sel, costs);
    let profile = ResourceProfile {
        cpu_cycles: cycles,
        dram_read: ByteCount::new(n * 8),
        dram_written: ByteCount::new(positions.len() as u64 * 4),
        ..ResourceProfile::default()
    };
    let stats = OpStats { items_in: n, items_out: positions.len() as u64, profile, wall };
    (positions, stats)
}

/// The model cost (in cycles) of running `kernel` over `n` rows at
/// selectivity `sel` — used both for metering and for the adaptive
/// operator's switch decision.
fn model_cycles(kernel: SelectKernel, n: u64, sel: f64, costs: &KernelCosts) -> Cycles {
    match kernel {
        SelectKernel::Branching => costs.branching_cycles(n, sel),
        SelectKernel::Predicated => costs.cycles_for(Kernel::SelectPredicated, n),
        SelectKernel::Bitwise => {
            // Mask build is ~1 cycle/row vectorized; extraction costs per hit.
            let build = costs.cycles_for(Kernel::SelectBitwise, n);
            let extract = costs.cycles_for(Kernel::Materialize, (sel * n as f64) as u64);
            build + extract
        }
    }
}

/// Exponentially-weighted moving average used for selectivity tracking.
const EWMA_ALPHA: f64 = 0.3;

/// The reconfigurable selection operator: tracks observed selectivity
/// and switches to the kernel the cost model predicts cheapest for the
/// next batch.
///
/// ```
/// use haec_exec::select::AdaptiveSelect;
/// use haec_columnar::value::CmpOp;
///
/// let mut op = AdaptiveSelect::new(CmpOp::Lt, 10);
/// let batch: Vec<i64> = (0..1000).collect();
/// let (hits, _) = op.run(&batch);
/// assert_eq!(hits.len(), 10);
/// ```
#[derive(Debug)]
pub struct AdaptiveSelect {
    op: CmpOp,
    literal: i64,
    costs: KernelCosts,
    current: SelectKernel,
    ewma_sel: Option<f64>,
    switches: u64,
    batches: u64,
}

impl AdaptiveSelect {
    /// Creates an operator for `value op literal` with default cost
    /// constants.
    pub fn new(op: CmpOp, literal: i64) -> Self {
        AdaptiveSelect::with_costs(op, literal, KernelCosts::default_2013())
    }

    /// Creates an operator with explicit cost constants.
    fn with_costs(op: CmpOp, literal: i64, costs: KernelCosts) -> Self {
        AdaptiveSelect {
            op,
            literal,
            costs,
            current: SelectKernel::Bitwise,
            ewma_sel: None,
            switches: 0,
            batches: 0,
        }
    }

    /// The kernel that will run the next batch.
    pub fn current_kernel(&self) -> SelectKernel {
        self.current
    }

    /// Number of kernel switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of batches processed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The smoothed selectivity estimate, if any batch ran yet.
    // haec-lint: allow(dead-pub) — the drift test observes the EWMA the kernel switches on through it.
    pub fn estimated_selectivity(&self) -> Option<f64> {
        self.ewma_sel
    }

    /// Processes one batch: runs the current kernel, updates the
    /// selectivity estimate, and reconfigures for the next batch if the
    /// model predicts another kernel is cheaper.
    pub fn run(&mut self, data: &[i64]) -> (Vec<u32>, OpStats) {
        let (positions, stats) = select_metered(data, self.op, self.literal, self.current, &self.costs);
        self.batches += 1;
        if !data.is_empty() {
            let sel = positions.len() as f64 / data.len() as f64;
            let smoothed = match self.ewma_sel {
                None => sel,
                Some(prev) => EWMA_ALPHA * sel + (1.0 - EWMA_ALPHA) * prev,
            };
            self.ewma_sel = Some(smoothed);
            let best = self.best_kernel(smoothed, data.len() as u64);
            if best != self.current {
                self.current = best;
                self.switches += 1;
            }
        }
        (positions, stats)
    }

    /// The kernel the model predicts cheapest at `sel` for `n` rows.
    fn best_kernel(&self, sel: f64, n: u64) -> SelectKernel {
        SelectKernel::ALL
            .into_iter()
            .min_by(|&a, &b| {
                model_cycles(a, n, sel, &self.costs)
                    .count()
                    .cmp(&model_cycles(b, n, sel, &self.costs).count())
            })
            .expect("non-empty kernel list")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(data: &[i64], op: CmpOp, lit: i64) -> Vec<u32> {
        data.iter().enumerate().filter(|(_, &v)| cmp(op, v, lit)).map(|(i, _)| i as u32).collect()
    }

    #[test]
    fn kernels_agree_with_reference() {
        let data: Vec<i64> = (0..1000).map(|i| (i * 7919) % 100).collect();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for lit in [-1, 0, 33, 50, 99, 100] {
                let want = reference(&data, op, lit);
                for kernel in SelectKernel::ALL {
                    let got = select_positions(&data, op, lit, kernel);
                    assert_eq!(got, want, "{kernel} {op} {lit}");
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        for kernel in SelectKernel::ALL {
            assert!(select_positions(&[], CmpOp::Eq, 0, kernel).is_empty());
        }
    }

    #[test]
    fn boundary_sizes_around_word() {
        for n in [1usize, 63, 64, 65, 127, 128, 129] {
            let data: Vec<i64> = (0..n as i64).collect();
            let want = reference(&data, CmpOp::Ge, n as i64 / 2);
            for kernel in SelectKernel::ALL {
                assert_eq!(select_positions(&data, CmpOp::Ge, n as i64 / 2, kernel), want, "{kernel} n={n}");
            }
        }
    }

    #[test]
    fn metered_stats_sensible() {
        let data: Vec<i64> = (0..10_000).collect();
        let costs = KernelCosts::default_2013();
        let (pos, stats) = select_metered(&data, CmpOp::Lt, 100, SelectKernel::Predicated, &costs);
        assert_eq!(pos.len(), 100);
        assert_eq!(stats.items_in, 10_000);
        assert_eq!(stats.items_out, 100);
        assert_eq!(stats.profile.dram_read.bytes(), 80_000);
        assert!(stats.profile.cpu_cycles.count() > 0);
        assert!((stats.selectivity() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn model_prefers_branching_at_extremes_and_bitwise_or_predicated_mid() {
        let op = AdaptiveSelect::new(CmpOp::Lt, 0);
        let n = 100_000;
        // Near-zero selectivity: branching wins (perfect prediction) or
        // ties with bitwise; must not pick predicated.
        let k = op.best_kernel(0.0005, n);
        assert_ne!(k, SelectKernel::Predicated, "extreme-low: {k}");
        // Mid selectivity: branching must lose.
        let k = op.best_kernel(0.5, n);
        assert_ne!(k, SelectKernel::Branching, "mid: {k}");
    }

    #[test]
    fn adaptive_switches_with_drift() {
        // Data drifts from nothing-matches to half-matches: the operator
        // must reconfigure at least once.
        let mut op = AdaptiveSelect::new(CmpOp::Lt, 0);
        let batch_a: Vec<i64> = vec![100; 4096]; // sel = 0
        let batch_b: Vec<i64> = (0..4096).map(|i| if i % 2 == 0 { -1 } else { 100 }).collect(); // sel = 0.5
        for _ in 0..5 {
            op.run(&batch_a);
        }
        let k_low = op.current_kernel();
        for _ in 0..10 {
            op.run(&batch_b);
        }
        let k_mid = op.current_kernel();
        assert_ne!(k_mid, SelectKernel::Branching, "mid-selectivity kernel");
        assert!(op.switches() >= 1 || k_low == k_mid);
        assert_eq!(op.batches(), 15);
        let est = op.estimated_selectivity().unwrap();
        assert!(est > 0.2, "ewma tracked the drift: {est}");
    }

    #[test]
    fn adaptive_correctness_preserved_across_switches() {
        let mut op = AdaptiveSelect::new(CmpOp::Ge, 50);
        for round in 0..20 {
            let data: Vec<i64> = (0..1000).map(|i| (i + round * 13) % (100 + round)).collect();
            let (got, _) = op.run(&data);
            assert_eq!(got, reference(&data, CmpOp::Ge, 50), "round {round}");
        }
    }

    #[test]
    fn kernel_display() {
        assert_eq!(format!("{}", SelectKernel::Bitwise), "bitwise");
    }
}
