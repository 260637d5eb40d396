//! CPU time allocation: weighted max-min fair sharing with hard caps.
//!
//! Each tick, every VM demands some core-seconds (bounded by its vCPU count
//! and any `vcpu_quota` hard cap). If total demand exceeds the machine's
//! core-seconds for the tick, the scheduler performs progressive filling
//! (weighted max-min fairness, weights = vCPU counts) — the behaviour of a
//! work-conserving proportional-share hypervisor scheduler like CFS/KVM.

/// One VM's CPU request for a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuRequest {
    /// Core-seconds wanted this tick (already bounded by parallelism).
    pub demand: f64,
    /// Hard limit in core-seconds for this tick (vCPUs and `vcpu_quota`).
    pub limit: f64,
    /// Fair-share weight (vCPU count).
    pub weight: f64,
}

/// Reusable working columns of [`allocate_into`]: the per-request
/// effective demand and the still-unsatisfied request indices. Holding one
/// across calls lets the water-filling run without touching the heap once
/// the columns have grown to the largest request slice seen.
#[derive(Debug, Clone, Default)]
pub struct CpuScratch {
    want: Vec<f64>,
    active: Vec<usize>,
}

impl CpuScratch {
    /// Empty scratch; the columns grow on first use.
    pub const fn new() -> Self {
        CpuScratch { want: Vec::new(), active: Vec::new() }
    }
}

/// Allocates `capacity` core-seconds among the requests with weighted
/// max-min fairness. Returns per-request allocations, each ≤
/// `min(demand, limit)`, summing to ≤ `capacity`. Work-conserving: if total
/// effective demand ≤ capacity everyone gets their demand.
pub fn allocate(requests: &[CpuRequest], capacity: f64) -> Vec<f64> {
    let mut alloc = Vec::new();
    allocate_into(requests, capacity, &mut CpuScratch::new(), &mut alloc);
    alloc
}

/// [`allocate`] into a caller-owned output, reusing `scratch`: `alloc` is
/// overwritten with one allocation per request, bit-identical to what
/// [`allocate`] returns for the same input whatever the scratch held.
pub fn allocate_into(
    requests: &[CpuRequest],
    capacity: f64,
    scratch: &mut CpuScratch,
    alloc: &mut Vec<f64>,
) {
    let n = requests.len();
    alloc.clear();
    alloc.resize(n, 0.0);
    if n == 0 || capacity <= 0.0 {
        return;
    }
    // Effective demand per VM.
    let want = &mut scratch.want;
    want.clear();
    want.extend(requests.iter().map(|r| r.demand.min(r.limit).max(0.0)));
    let active = &mut scratch.active;
    active.clear();
    active.extend((0..n).filter(|&i| want[i] > 0.0));
    let mut remaining = capacity;
    // Progressive filling: in each round, offer every active VM its weighted
    // share of the remaining capacity; VMs whose residual want is below the
    // share are satisfied and leave, freeing capacity for the next round.
    // Leavers are compacted out in place, so the survivors keep their order
    // (and every later round its summation order).
    while !active.is_empty() && remaining > 1e-15 {
        let total_weight: f64 = active.iter().map(|&i| requests[i].weight.max(1e-9)).sum();
        let mut consumed = 0.0;
        let mut kept = 0;
        for r in 0..active.len() {
            let i = active[r];
            let share = remaining * requests[i].weight.max(1e-9) / total_weight;
            let residual = want[i] - alloc[i];
            if residual <= share {
                alloc[i] = want[i];
                consumed += residual;
            } else {
                active[kept] = i;
                kept += 1;
            }
        }
        if kept == active.len() {
            // No one is satisfiable: split the remainder by weight and stop.
            for &i in active.iter() {
                let share = remaining * requests[i].weight.max(1e-9) / total_weight;
                alloc[i] += share;
            }
            break;
        }
        remaining -= consumed;
        active.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(demand: f64, limit: f64, weight: f64) -> CpuRequest {
        CpuRequest { demand, limit, weight }
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(allocate(&[], 10.0).is_empty());
    }

    #[test]
    fn undersubscribed_everyone_satisfied() {
        let rs = [req(1.0, 2.0, 2.0), req(3.0, 4.0, 2.0)];
        let a = allocate(&rs, 10.0);
        assert_eq!(a, vec![1.0, 3.0]);
    }

    #[test]
    fn oversubscribed_split_by_weight() {
        let rs = [req(10.0, 10.0, 1.0), req(10.0, 10.0, 3.0)];
        let a = allocate(&rs, 4.0);
        assert!((a[0] - 1.0).abs() < 1e-9);
        assert!((a[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn limit_binds_before_demand() {
        let rs = [req(10.0, 0.5, 1.0), req(10.0, 10.0, 1.0)];
        let a = allocate(&rs, 4.0);
        assert!((a[0] - 0.5).abs() < 1e-9, "capped VM gets its cap");
        assert!((a[1] - 3.5).abs() < 1e-9, "work-conserving: slack flows to the other VM");
    }

    #[test]
    fn small_demand_releases_share_to_big_demand() {
        let rs = [req(0.2, 10.0, 1.0), req(100.0, 100.0, 1.0)];
        let a = allocate(&rs, 2.0);
        assert!((a[0] - 0.2).abs() < 1e-9);
        assert!((a[1] - 1.8).abs() < 1e-9);
    }

    #[test]
    fn total_never_exceeds_capacity() {
        let rs = [req(5.0, 5.0, 1.0), req(7.0, 6.0, 2.0), req(0.1, 1.0, 1.0)];
        let a = allocate(&rs, 3.0);
        let sum: f64 = a.iter().sum();
        assert!(sum <= 3.0 + 1e-9, "sum {sum}");
        for (x, r) in a.iter().zip(&rs) {
            assert!(*x <= r.demand.min(r.limit) + 1e-9);
            assert!(*x >= 0.0);
        }
    }

    #[test]
    fn zero_capacity_allocates_nothing() {
        let rs = [req(1.0, 1.0, 1.0)];
        assert_eq!(allocate(&rs, 0.0), vec![0.0]);
    }

    #[test]
    fn zero_demand_gets_zero() {
        let rs = [req(0.0, 5.0, 1.0), req(4.0, 5.0, 1.0)];
        let a = allocate(&rs, 2.0);
        assert_eq!(a[0], 0.0);
        assert!((a[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_equal_split() {
        let rs = [req(10.0, 10.0, 2.0), req(10.0, 10.0, 2.0), req(10.0, 10.0, 2.0)];
        let a = allocate(&rs, 6.0);
        for x in a {
            assert!((x - 2.0).abs() < 1e-9);
        }
    }
}
