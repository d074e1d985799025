//! Alg. 2 — the PRIORITY victim-selection function.
//!
//! "The standard of selection is: firstly remove delay-sensitive flows,
//! and then select the VM's with lowest value but largest size. We mimic a
//! dynamic Knapsack algorithm by taking allowed capacity as knapsack size
//! and picking up as many VM's with lowest value as possible. … Mbps is
//! the minimum capacity unit. Specifically, if the priority parameter is
//! one, we only pick one VM with the highest ALERT."

use dcn_sim::{Alert, AlertSource, SimConfig};
use dcn_topology::{Inventory, Placement, RackId, VmId};
use std::cmp::Ordering;

/// How much may be selected (the `w` switch of Alg. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// `w = α` or `w = β`: release up to this much capacity
    /// (α·s.capacity or β·ToR.capacity, computed by the caller).
    Capacity(f64),
    /// `w = 1`: pick exactly the single VM with the highest ALERT.
    SingleMaxAlert,
}

/// Select migration victims from `candidates` under `budget`.
///
/// * Delay-sensitive VMs are removed first (Alg. 2 line 1).
/// * Under [`Budget::Capacity`], a dynamic-programming knapsack over
///   integer capacity units chooses the subset that releases the most
///   capacity within the budget, breaking ties toward the lowest total
///   value (migrating cheap VMs first).
/// * Under [`Budget::SingleMaxAlert`], the single candidate with the
///   highest `alert_of` value is returned. A NaN value ranks below every
///   real one, so corrupt input cannot abort the round; ties go to the
///   lowest id.
pub fn priority(
    candidates: &[VmId],
    placement: &Placement,
    alert_of: impl Fn(VmId) -> f64,
    budget: Budget,
) -> Vec<VmId> {
    let eligible: Vec<VmId> = candidates
        .iter()
        .copied()
        .filter(|&vm| !placement.spec(vm).delay_sensitive)
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    match budget {
        Budget::SingleMaxAlert => eligible
            .into_iter()
            .max_by(|&a, &b| {
                alert_order(alert_of(a), alert_of(b)).then(b.cmp(&a)) // tie-break: lowest id
            })
            .into_iter()
            .collect(),
        Budget::Capacity(cap) => knapsack_lowest_value(&eligible, placement, cap),
    }
}

/// `partial_cmp` on ALERT values with NaN ranked below every real value
/// (and equal to another NaN). Not `total_cmp`: that would also order
/// `-0.0` below `0.0`, moving the lowest-id tie-break.
fn alert_order(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
}

/// ALERT lookup over a per-VM slice (`values[vm.index()]`). A VM past
/// the end of the slice has no known ALERT and ranks like NaN: below
/// every real value.
pub(crate) fn alert_lookup(values: &[f64]) -> impl Fn(VmId) -> f64 + '_ {
    move |vm| values.get(vm.index()).copied().unwrap_or(f64::NAN)
}

/// Alg. 1/2 for one rack: PRIORITY victims for the rack's alerts on
/// `placement`. Each host alert picks its single highest-ALERT VM
/// (`w = 1`); any local-ToR alert adds one β-budget knapsack pass over
/// the whole rack (`w = β`). Outer-switch alerts select no migration
/// victims (they reroute flows instead). Returns the sorted, deduplicated
/// victims and the size of the candidate pool PRIORITY examined.
pub(crate) fn select_victims(
    placement: &Placement,
    inventory: &Inventory,
    sim: &SimConfig,
    rack: RackId,
    alerts: &[Alert],
    alert_of: impl Fn(VmId) -> f64,
) -> (Vec<VmId>, usize) {
    let mut victims: Vec<VmId> = Vec::new();
    let mut candidates = 0usize;
    let mut tor_alert = false;
    for alert in alerts.iter().filter(|a| a.rack == rack) {
        match alert.source {
            AlertSource::Host(h) => {
                let f = placement.vms_on(h);
                candidates += f.len();
                victims.extend(priority(f, placement, &alert_of, Budget::SingleMaxAlert));
            }
            AlertSource::LocalTor(_) => tor_alert = true,
            AlertSource::OuterSwitch(_) => {}
        }
    }
    if tor_alert {
        let mut f: Vec<VmId> = Vec::new();
        for &host in inventory.hosts_in(rack) {
            f.extend_from_slice(placement.vms_on(host));
        }
        candidates += f.len();
        let budget = sim.beta * inventory.rack(rack).tor_capacity;
        victims.extend(priority(&f, placement, &alert_of, Budget::Capacity(budget)));
    }
    victims.sort_unstable();
    victims.dedup();
    (victims, candidates)
}

/// Dynamic knapsack (Alg. 2's `d[0..C]` table): capacity in integer Mbps
/// units; `d[j]` = minimum total value of a subset with total capacity
/// exactly `j`, with parent pointers for reconstruction. The result is the
/// subset at the largest reachable `j ≤ C` (most capacity released),
/// lowest `d[j]` among ties.
fn knapsack_lowest_value(vms: &[VmId], placement: &Placement, budget: f64) -> Vec<VmId> {
    let c = budget.floor() as usize;
    if c == 0 {
        return Vec::new();
    }
    const LARGE: f64 = f64::INFINITY;
    let mut d = vec![LARGE; c + 1];
    d[0] = 0.0;
    // keep[i][j]: item i was taken on the optimal path to capacity j at
    // the time item i was processed. A per-cell parent pointer is NOT
    // enough: a later item can improve d[from] and silently reroute the
    // stored path, double-counting items. The full table makes the
    // reverse reconstruction exact.
    let mut keep = vec![false; vms.len() * (c + 1)];
    let weights: Vec<usize> = vms
        .iter()
        .map(|&vm| placement.spec(vm).capacity.round().max(1.0) as usize)
        .collect();
    for (i, &vm) in vms.iter().enumerate() {
        let value = placement.spec(vm).value;
        let w = weights[i];
        if w > c {
            continue;
        }
        // 0/1 knapsack: iterate capacity downward
        for j in (w..=c).rev() {
            let from = j - w;
            if d[from].is_finite() && d[from] + value < d[j] {
                d[j] = d[from] + value;
                keep[i * (c + 1) + j] = true;
            }
        }
    }
    // largest reachable capacity (the paper "pick up as many … as possible")
    let Some(best_j) = (1..=c).rev().find(|&j| d[j].is_finite()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut j = best_j;
    for i in (0..vms.len()).rev() {
        if j == 0 {
            break;
        }
        if keep[i * (c + 1) + j] {
            out.push(vms[i]);
            j -= weights[i];
        }
    }
    debug_assert_eq!(j, 0, "knapsack reconstruction must land on zero");
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{HostId, Inventory, VmSpec};

    /// Build a placement holding VMs with the given (capacity, value,
    /// delay_sensitive) specs, all on one big host.
    fn placement_with(specs: &[(f64, f64, bool)]) -> (Placement, Vec<VmId>) {
        let mut inv = Inventory::new();
        inv.add_rack(1, 10_000.0, 10_000.0);
        let mut p = Placement::new(&inv);
        let mut ids = Vec::new();
        for &(cap, value, ds) in specs {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: cap,
                value,
                delay_sensitive: ds,
            };
            ids.push(p.add_vm(s, HostId(0)).expect("fits"));
        }
        (p, ids)
    }

    #[test]
    fn removes_delay_sensitive_first() {
        let (p, ids) = placement_with(&[(5.0, 1.0, true), (5.0, 9.0, false)]);
        let out = priority(&ids, &p, |_| 0.5, Budget::Capacity(10.0));
        assert_eq!(out, vec![ids[1]], "delay-sensitive VM must not be picked");
    }

    #[test]
    fn single_max_alert_picks_highest() {
        let (p, ids) = placement_with(&[(5.0, 1.0, false), (5.0, 1.0, false), (5.0, 1.0, false)]);
        let alerts = [0.91, 0.99, 0.95];
        let out = priority(&ids, &p, |vm| alerts[vm.index()], Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[1]]);
    }

    #[test]
    fn single_max_alert_ranks_nan_below_real_values() {
        let (p, ids) = placement_with(&[(5.0, 1.0, false), (5.0, 1.0, false), (5.0, 1.0, false)]);
        let alerts = [f64::NAN, 0.2, 0.7];
        let out = priority(&ids, &p, |vm| alerts[vm.index()], Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[2]], "largest real value wins over NaN");
        let alerts = [0.7, f64::NAN, 0.2];
        let out = priority(&ids, &p, |vm| alerts[vm.index()], Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[0]]);
    }

    #[test]
    fn single_max_alert_ties_and_all_nan_go_to_lowest_id() {
        let (p, ids) = placement_with(&[(5.0, 1.0, false), (5.0, 1.0, false), (5.0, 1.0, false)]);
        let out = priority(&ids[1..], &p, |_| f64::NAN, Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[1]]);
        let out = priority(&ids, &p, |_| f64::NAN, Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[0]]);
        // -0.0 == 0.0: a tie, not an order
        let alerts = [-0.0, 0.0, -0.0];
        let out = priority(&ids, &p, |vm| alerts[vm.index()], Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[0]]);
    }

    #[test]
    fn knapsack_fills_budget_with_lowest_value() {
        // budget 10: {A(6,v2), B(4,v1)} releases 10 at value 3;
        // {C(10, v9)} also releases 10 but at value 9 — must prefer A+B.
        let (p, ids) = placement_with(&[(6.0, 2.0, false), (4.0, 1.0, false), (10.0, 9.0, false)]);
        let out = priority(&ids, &p, |_| 0.0, Budget::Capacity(10.0));
        let mut got = out.clone();
        got.sort();
        assert_eq!(got, vec![ids[0], ids[1]]);
    }

    #[test]
    fn knapsack_respects_budget() {
        let (p, ids) = placement_with(&[(8.0, 1.0, false), (7.0, 1.0, false), (6.0, 1.0, false)]);
        let out = priority(&ids, &p, |_| 0.0, Budget::Capacity(9.0));
        let total: f64 = out.iter().map(|&vm| p.spec(vm).capacity).sum();
        assert!(total <= 9.0, "selected {total} > budget");
        assert_eq!(out.len(), 1, "only one VM fits under 9");
    }

    #[test]
    fn knapsack_prefers_max_released_capacity() {
        // budget 12: single 12-cap VM releases more than the 5+5 pair
        let (p, ids) = placement_with(&[(5.0, 1.0, false), (5.0, 1.0, false), (12.0, 5.0, false)]);
        let out = priority(&ids, &p, |_| 0.0, Budget::Capacity(12.0));
        assert_eq!(out, vec![ids[2]]);
    }

    #[test]
    fn zero_budget_or_oversized_vms_select_nothing() {
        let (p, ids) = placement_with(&[(50.0, 1.0, false)]);
        assert!(priority(&ids, &p, |_| 0.0, Budget::Capacity(0.4)).is_empty());
        assert!(priority(&ids, &p, |_| 0.0, Budget::Capacity(10.0)).is_empty());
    }

    #[test]
    fn empty_candidates_ok() {
        let (p, _) = placement_with(&[(5.0, 1.0, false)]);
        assert!(priority(&[], &p, |_| 0.0, Budget::Capacity(10.0)).is_empty());
        assert!(priority(&[], &p, |_| 0.0, Budget::SingleMaxAlert).is_empty());
    }

    #[test]
    fn all_delay_sensitive_selects_nothing_even_single() {
        let (p, ids) = placement_with(&[(5.0, 1.0, true), (5.0, 1.0, true)]);
        assert!(priority(&ids, &p, |_| 0.9, Budget::SingleMaxAlert).is_empty());
    }
}
