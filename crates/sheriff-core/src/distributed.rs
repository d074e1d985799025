//! The threaded distributed runtime: optimistic per-shim planning with
//! protocol-checked FCFS commits.
//!
//! [`DistributedRuntime`](crate::DistributedRuntime) — each shim plans on
//! its own thread, then all commits funnel through the destination racks'
//! [`ShimEndpoint`]s in deterministic rack order (Alg. 4 FCFS, Sec.
//! II-B/V-B — "each local manager adjusts network traffic locally, they
//! need to communicate between each other to avoid conflictions"). Planner
//! threads only read the placement, and only between commit passes; the
//! coordinating thread alone commits, and the protocol layer decides.
//!
//! The planning core it is built on (PRIORITY victim selection + min-cost
//! matching on a snapshot, Algs. 1–3: `priority::select_victims` and
//! `vmmigration::plan_proposals`) is shared with every runtime, including
//! the message-passing fabric runtime in [`fabric`](crate::fabric), which
//! re-expresses the same negotiation as explicit REQUEST/ACK/REJECT
//! messages over a seeded, faulty channel. With a reliable channel and no crashed shims
//! the fabric reproduces this runtime move for move: both issue the
//! identical sequence of Alg. 4 requests in the identical order, so the
//! ACK/REJECT outcomes — and therefore the plans — match.

use crate::audit::{audit_moves, audit_placement};
use crate::priority::{alert_lookup, select_victims};
use crate::protocol::{RejectReason, ReqId, ShimEndpoint, Verdict};
use crate::runtime::{RoundOutcome, RunCtx};
use crate::vmmigration::{plan_proposals, region_slots, unassigned, MigrationPlan, Move, Proposal};
use dcn_topology::{HostId, RackId, VmId};
use sheriff_obs::{emit, Event, RejectKind};
use std::collections::BTreeSet;

/// Map a protocol-level REJECT payload to its observability label.
pub(crate) fn reject_kind(reason: RejectReason) -> RejectKind {
    match reason {
        RejectReason::Capacity => RejectKind::Capacity,
        RejectReason::Conflict => RejectKind::Conflict,
        RejectReason::Noop => RejectKind::Noop,
        RejectReason::Expired => RejectKind::Expired,
        RejectReason::StaleEpoch => RejectKind::Stale,
    }
}

/// Per-shim negotiation state shared by both runtimes' bookkeeping.
pub(crate) struct ShimState {
    pub(crate) rack: RackId,
    pub(crate) pending: Vec<VmId>,
    pub(crate) slots: Vec<HostId>,
    /// (VM, destination) pairs that rejected, never proposed again.
    pub(crate) excluded: BTreeSet<(VmId, HostId)>,
    pub(crate) plan: MigrationPlan,
    pub(crate) retries: usize,
    pub(crate) seq: u32,
    pub(crate) active: bool,
}

/// Run one management round with every alerted shim planning on its own
/// thread and committing through the destination racks' protocol
/// endpoints in deterministic rack order. Mutates the cluster's placement
/// in place.
///
/// Planning still runs one thread per shim; events are emitted only from
/// the single-threaded victim-selection and commit phases, in
/// deterministic rack/request order, so the event stream is reproducible
/// and the sink needs no synchronization.
pub(crate) fn run_round(ctx: &mut RunCtx<'_>, max_retry: usize) -> RoundOutcome {
    let (metric, alerts, alert_values) = (ctx.metric, ctx.alerts, ctx.alert_values);
    let cluster = &mut *ctx.cluster;
    let sink = &mut *ctx.sink;
    let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
    racks.sort_unstable();
    racks.dedup();
    if racks.is_empty() {
        return RoundOutcome::default();
    }

    let deps = &cluster.deps;
    let inventory = &cluster.dcn.inventory;
    let sim = &cluster.sim;
    let mut endpoints: Vec<ShimEndpoint> = (0..cluster.dcn.rack_count())
        .map(|r| ShimEndpoint::new(RackId::from_index(r)))
        .collect();

    // victim selection on the initial placement (Alg. 1)
    let mut states: Vec<ShimState> = racks
        .iter()
        .map(|&rack| {
            let (pending, candidates) = select_victims(
                &cluster.placement,
                inventory,
                sim,
                rack,
                alerts,
                alert_lookup(alert_values),
            );
            emit(sink, || Event::VictimsSelected {
                rack: rack.index() as u64,
                candidates: candidates as u64,
                selected: pending.len() as u64,
            });
            let region = cluster.dcn.neighbor_racks(rack, sim.region_hops);
            let slots = region_slots(inventory, &region, rack);
            ShimState {
                rack,
                active: !pending.is_empty() && !slots.is_empty(),
                pending,
                slots,
                excluded: BTreeSet::new(),
                plan: MigrationPlan::default(),
                retries: 0,
                seq: 0,
            }
        })
        .collect();

    for _round in 0..=max_retry {
        let idxs: Vec<usize> = (0..states.len()).filter(|&i| states[i].active).collect();
        if idxs.is_empty() {
            break;
        }
        // optimistic planning, one thread per active shim, all reading
        // the placement as it stands before this pass commits anything
        let snapshot = &cluster.placement;
        let plans: Vec<(Vec<Option<Proposal>>, usize)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = idxs
                .iter()
                .map(|&i| {
                    let st = &states[i];
                    scope.spawn(move |_| {
                        plan_proposals(
                            snapshot,
                            deps,
                            metric,
                            sim,
                            &st.pending,
                            &st.slots,
                            &st.excluded,
                            &BTreeSet::new(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("planner thread panicked"))
                .collect()
        })
        .expect("thread scope failed");

        // pessimistic commit: FCFS through each destination's endpoint,
        // shims in rack order, requests in matching order
        let placement = &mut cluster.placement;
        for (&i, (rows, space)) in idxs.iter().zip(plans) {
            let st = &mut states[i];
            st.plan.search_space += space;
            let mut next_pending = unassigned(&st.pending, &rows);
            emit(sink, || Event::PlanComputed {
                rack: st.rack.index() as u64,
                proposals: (rows.len() - next_pending.len()) as u64,
                unassigned: next_pending.len() as u64,
                search_space: space as u64,
            });
            let mut progressed = false;
            for p in rows.into_iter().flatten() {
                let from = placement.host_of(p.vm);
                let dest_rack = placement.rack_of_host(p.dest);
                let req_id = ReqId::new(st.rack, st.seq);
                st.seq += 1;
                emit(sink, || Event::RequestSent {
                    req: req_id.0,
                    vm: p.vm.index() as u64,
                    dest_host: p.dest.index() as u64,
                    attempt: 1,
                });
                match endpoints[dest_rack.index()]
                    .handle_request(placement, deps, req_id, p.vm, p.dest)
                {
                    Verdict::Ack => {
                        emit(sink, || Event::AckReceived {
                            req: req_id.0,
                            vm: p.vm.index() as u64,
                        });
                        emit(sink, || Event::MigrationCommitted {
                            vm: p.vm.index() as u64,
                            from_host: from.index() as u64,
                            to_host: p.dest.index() as u64,
                            cost: p.cost,
                        });
                        sink.counter("migrations.committed", 1);
                        st.plan.moves.push(Move {
                            vm: p.vm,
                            from,
                            to: p.dest,
                            cost: p.cost,
                        });
                        st.plan.total_cost += p.cost;
                        progressed = true;
                    }
                    Verdict::Reject(reason) => {
                        emit(sink, || Event::RejectReceived {
                            req: req_id.0,
                            vm: p.vm.index() as u64,
                            reason: reject_kind(reason),
                        });
                        sink.counter("migrations.rejected", 1);
                        st.plan.rejected += 1;
                        st.retries += 1;
                        st.excluded.insert((p.vm, p.dest));
                        next_pending.push(p.vm);
                    }
                }
            }
            st.pending = next_pending;
            st.active = progressed && !st.pending.is_empty();
        }
    }

    let mut report = RoundOutcome {
        shims: racks.len(),
        ..RoundOutcome::default()
    };
    for mut st in states {
        st.plan.unplaced.extend(st.pending);
        report.plan.absorb(st.plan);
        report.retries += st.retries;
    }
    report.dedup_hits = endpoints.iter().map(|e| e.dedup_hits()).sum();
    report.audit = audit_placement(&cluster.placement, &cluster.deps);
    report.audit.merge(audit_moves(
        &cluster.placement,
        report.plan.moves.iter().map(|m| (m.vm, m.to)),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributedRuntime, Runtime};
    use dcn_sim::engine::{Cluster, ClusterConfig};
    use dcn_sim::{Alert, RackMetric};
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::NullSink;

    fn cluster(seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(8));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 3.0,
                seed,
                ..ClusterConfig::default()
            },
            dcn_sim::SimConfig::paper(),
        )
    }

    fn alert_values(c: &Cluster) -> Vec<f64> {
        c.placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect()
    }

    /// One threaded round with three replan passes.
    fn round(c: &mut Cluster, metric: &RackMetric, alerts: &[Alert], vals: &[f64]) -> RoundOutcome {
        DistributedRuntime { max_retry: 3 }.step(&mut RunCtx {
            cluster: c,
            metric,
            alerts,
            alert_values: vals,
            sink: &mut NullSink,
        })
    }

    fn assert_capacity_ok(c: &Cluster) {
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            assert!(
                c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9,
                "host {h} over capacity"
            );
        }
    }

    fn assert_deps_ok(c: &Cluster) {
        for vm in c.placement.vm_ids() {
            let host = c.placement.host_of(vm);
            for &other in c.placement.vms_on(host) {
                if other != vm {
                    assert!(
                        !c.deps.dependent(vm, other),
                        "dependent VMs {vm} and {other} co-located on {host}"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_shims_preserve_capacity_invariants() {
        let mut c = cluster(21);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let report = round(&mut c, &metric, &alerts, &vals);
        assert!(report.shims > 1, "want true concurrency in this test");
        assert!(!report.plan.moves.is_empty());
        assert_capacity_ok(&c);
    }

    #[test]
    fn concurrent_shims_respect_dependency_conflicts() {
        let mut c = cluster(22);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let _ = round(&mut c, &metric, &alerts, &vals);
        assert_deps_ok(&c);
    }

    #[test]
    fn distributed_round_improves_balance() {
        let mut c = cluster(23);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let before = c.utilization_stddev();
        for t in 0..6 {
            let alerts = c.fraction_alerts(0.05, t);
            let vals = alert_values(&c);
            round(&mut c, &metric, &alerts, &vals);
        }
        let after = c.utilization_stddev();
        assert!(after < before, "std-dev {before} -> {after}");
    }

    #[test]
    fn moves_recorded_match_final_placement() {
        let mut c = cluster(24);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.05, 0);
        let vals = alert_values(&c);
        let report = round(&mut c, &metric, &alerts, &vals);
        // each VM's final host equals its last recorded move
        let mut last: std::collections::HashMap<VmId, HostId> = Default::default();
        for m in &report.plan.moves {
            last.insert(m.vm, m.to);
        }
        for (vm, to) in last {
            assert_eq!(c.placement.host_of(vm), to);
        }
        let sum: f64 = report.plan.moves.iter().map(|m| m.cost).sum();
        assert!((report.plan.total_cost - sum).abs() < 1e-9);
    }

    #[test]
    fn no_alerts_is_a_noop() {
        let mut c = cluster(25);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let before = c.utilization_stddev();
        let report = round(&mut c, &metric, &[], &[]);
        assert_eq!(report.shims, 0);
        assert!(report.plan.moves.is_empty());
        assert_eq!(c.utilization_stddev(), before);
    }
}
