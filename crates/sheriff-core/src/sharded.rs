//! The sharded message-passing runtime: the closest model to the paper's
//! actual deployment. Every rack runs an *agent* thread that owns its own
//! hosts' capacity and VM lists — there is no shared placement and no
//! global lock. Alerted racks additionally run a *planner* doing Alg. 1's
//! selection + matching against a state snapshot, then negotiating each
//! move with the destination rack's agent over crossbeam channels using
//! Alg. 4's REQUEST → ACK/REJECT handshake (FCFS in channel-arrival
//! order, exactly the paper's receiver rule).
//!
//! The [`crate::distributed`] module's runtime shares one placement behind a
//! lock (simple, linearisable); this one shards state like real shims
//! would, and the tests verify both runtimes enforce the same
//! invariants.

use crate::priority::{alert_lookup, select_victims};
use crate::vmmigration::{plan_proposals, region_slots, MigrationPlan, Move};
use crossbeam::channel::{bounded, Receiver, Sender};
use dcn_sim::engine::Cluster;
use dcn_sim::{Alert, RackMetric, SimConfig};
use dcn_topology::{DependencyGraph, HostId, Inventory, Placement, RackId, VmId};
use sheriff_obs::{emit, Event, EventSink};
use std::collections::BTreeSet;

/// A migration request from a source shim to a destination rack agent
/// (Alg. 4's input).
struct Request {
    vm: VmId,
    capacity: f64,
    dest: HostId,
    reply: Sender<Reply>,
}

/// The destination agent's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    Ack,
    RejectCapacity,
    RejectConflict,
}

/// Per-rack capacity/VM shard owned exclusively by that rack's agent.
/// Departures are deliberately *not* credited back during a round (no
/// Remove message): the shard under-estimates free capacity, which can
/// only cause spurious REJECTs, never over-commitment.
struct Shard {
    hosts: Vec<HostId>,
    free: Vec<f64>,
    vms: Vec<Vec<VmId>>,
}

impl Shard {
    fn from_placement(inventory: &Inventory, placement: &Placement, rack: RackId) -> Self {
        let hosts = inventory.hosts_in(rack).to_vec();
        let free = hosts.iter().map(|&h| placement.free_capacity(h)).collect();
        let vms = hosts
            .iter()
            .map(|&h| placement.vms_on(h).to_vec())
            .collect();
        Self { hosts, free, vms }
    }

    fn slot(&self, host: HostId) -> Option<usize> {
        self.hosts.iter().position(|&h| h == host)
    }

    /// Alg. 4 at the destination: capacity then conflict, FCFS.
    fn handle(&mut self, req: &Request, deps: &DependencyGraph) -> Reply {
        let Some(i) = self.slot(req.dest) else {
            return Reply::RejectCapacity;
        };
        if self.free[i] < req.capacity {
            return Reply::RejectCapacity;
        }
        if self.vms[i]
            .iter()
            .any(|&other| deps.dependent(req.vm, other))
        {
            return Reply::RejectConflict;
        }
        self.free[i] -= req.capacity;
        self.vms[i].push(req.vm);
        Reply::Ack
    }
}

/// Result of one sharded round.
#[derive(Debug, Clone, Default)]
pub struct ShardedReport {
    /// Moves committed across all shims.
    pub plan: MigrationPlan,
    /// REQUESTs rejected by destination agents.
    pub rejected: usize,
    /// Planner threads that ran.
    pub shims: usize,
}

/// What one planner thread hands back to the single-threaded apply
/// phase: the committed moves plus the selection/matching statistics the
/// observability layer reports on its behalf.
struct PlannerOut {
    moves: Vec<Move>,
    rejected: usize,
    candidates: usize,
    victims: usize,
    unassigned: usize,
    search_space: usize,
}

/// Run one management round on the sharded runtime, with an
/// [`EventSink`] observing the round. Mutates `cluster.placement` to the
/// merged post-round state.
///
/// Planner and agent threads stay oblivious to the sink: they return
/// their statistics, and all events are emitted from the single-threaded
/// apply phase in alerted-rack order, so the stream is deterministic and
/// the sink needs no synchronization. Per-request REQUEST/ACK detail is
/// not observable here (the handshakes race inside threads); the
/// per-planner aggregates and committed moves are.
pub fn sharded_round_obs<S: EventSink + ?Sized>(
    cluster: &mut Cluster,
    metric: &RackMetric,
    alerts: &[Alert],
    alert_values: &[f64],
    sink: &mut S,
) -> ShardedReport {
    let mut alerted: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
    alerted.sort_unstable();
    alerted.dedup();
    if alerted.is_empty() {
        return ShardedReport::default();
    }

    let inventory = &cluster.dcn.inventory;
    let deps = &cluster.deps;
    let sim = &cluster.sim;
    let placement = &cluster.placement;
    let rack_count = inventory.rack_count();

    // one inbox per rack agent
    let mut inboxes: Vec<Sender<Request>> = Vec::with_capacity(rack_count);
    let mut outlets: Vec<Receiver<Request>> = Vec::with_capacity(rack_count);
    for _ in 0..rack_count {
        let (tx, rx) = bounded::<Request>(64);
        inboxes.push(tx);
        outlets.push(rx);
    }

    // snapshot each planner needs (immutable views + initial free state)
    let regions: Vec<Vec<RackId>> = alerted
        .iter()
        .map(|&r| cluster.dcn.neighbor_racks(r, sim.region_hops))
        .collect();

    let mut report = ShardedReport {
        shims: alerted.len(),
        ..ShardedReport::default()
    };

    let results: (Vec<PlannerOut>, Vec<Shard>) = crossbeam::thread::scope(|scope| {
        // agents: own their shard, serve requests until every planner is done
        let agent_handles: Vec<_> = (0..rack_count)
            .map(|r| {
                let rx = outlets[r].clone();
                let rack = RackId::from_index(r);
                scope.spawn(move |_| {
                    let mut shard = Shard::from_placement(inventory, placement, rack);
                    // the channel closes when all planner-side senders drop
                    while let Ok(req) = rx.recv() {
                        let verdict = shard.handle(&req, deps);
                        let _ = req.reply.send(verdict);
                    }
                    shard
                })
            })
            .collect();

        // planners: one per alerted rack
        let planner_handles: Vec<_> = alerted
            .iter()
            .enumerate()
            .map(|(i, &rack)| {
                let inboxes = inboxes.clone();
                let region = regions[i].clone();
                scope.spawn(move |_| {
                    plan_and_negotiate(
                        placement,
                        inventory,
                        deps,
                        metric,
                        sim,
                        rack,
                        &region,
                        alerts,
                        alert_values,
                        &inboxes,
                    )
                })
            })
            .collect();

        let planner_out: Vec<PlannerOut> = planner_handles
            .into_iter()
            .map(|h| h.join().expect("planner panicked"))
            .collect();
        // all planners finished: drop our inbox clones so agents exit
        drop(inboxes);
        let shards: Vec<Shard> = agent_handles
            .into_iter()
            .map(|h| h.join().expect("agent panicked"))
            .collect();
        (planner_out, shards)
    })
    .expect("thread scope failed");

    let (planner_out, _shards) = results;
    // apply the committed moves to the authoritative placement. Every ACK
    // reserved capacity in the owning shard, but the shard and the
    // placement sum loads in different orders: a move the shard fitted
    // exactly can miss by a rounding error here, and then counts as
    // rejected. Events are emitted here, after the threads joined, in
    // alerted-rack order — the only deterministic vantage point of this
    // runtime.
    for (&rack, out) in alerted.iter().zip(planner_out) {
        emit(sink, || Event::VictimsSelected {
            rack: rack.index() as u64,
            candidates: out.candidates as u64,
            selected: out.victims as u64,
        });
        emit(sink, || Event::PlanComputed {
            rack: rack.index() as u64,
            proposals: (out.moves.len() + out.rejected) as u64,
            unassigned: out.unassigned as u64,
            search_space: out.search_space as u64,
        });
        report.rejected += out.rejected;
        sink.counter("migrations.rejected", out.rejected as u64);
        report.plan.search_space += out.search_space;
        for m in out.moves {
            if cluster.placement.migrate(m.vm, m.to).is_err() {
                report.rejected += 1;
                sink.counter("migrations.rejected", 1);
                continue;
            }
            emit(sink, || Event::MigrationCommitted {
                vm: m.vm.index() as u64,
                from_host: m.from.index() as u64,
                to_host: m.to.index() as u64,
                cost: m.cost,
            });
            sink.counter("migrations.committed", 1);
            report.plan.total_cost += m.cost;
            report.plan.moves.push(m);
        }
    }
    report
}

/// One planner: Alg. 1 victim selection + matching on the snapshot, then
/// per-move REQUEST negotiation. Returns the committed moves plus the
/// statistics the apply phase reports to the event sink.
#[allow(clippy::too_many_arguments)]
fn plan_and_negotiate(
    placement: &Placement,
    inventory: &Inventory,
    deps: &DependencyGraph,
    metric: &RackMetric,
    sim: &SimConfig,
    rack: RackId,
    region: &[RackId],
    alerts: &[Alert],
    alert_values: &[f64],
    inboxes: &[Sender<Request>],
) -> PlannerOut {
    let (victims, candidates) = select_victims(
        placement,
        inventory,
        sim,
        rack,
        alerts,
        alert_lookup(alert_values),
    );
    // plan on the snapshot: no exclusions (one planning pass) and no
    // in-flight pre-copies
    let slot_hosts = region_slots(inventory, region, rack);
    let (rows, search_space) = plan_proposals(
        placement,
        deps,
        metric,
        sim,
        &victims,
        &slot_hosts,
        &BTreeSet::new(),
        &BTreeSet::new(),
    );

    // negotiate each move with the destination rack's agent
    let mut moves = Vec::new();
    let mut rejected = 0usize;
    let mut unassigned = 0usize;
    for row in rows {
        let Some(p) = row else {
            unassigned += 1;
            continue;
        };
        let (vm, host) = (p.vm, p.dest);
        let dest_rack = placement.rack_of_host(host);
        let (reply_tx, reply_rx) = bounded::<Reply>(1);
        let req = Request {
            vm,
            capacity: placement.spec(vm).capacity,
            dest: host,
            reply: reply_tx,
        };
        if inboxes[dest_rack.index()].send(req).is_err() {
            rejected += 1;
            continue;
        }
        match reply_rx.recv() {
            Ok(Reply::Ack) => moves.push(Move {
                vm,
                from: placement.host_of(vm),
                to: host,
                cost: p.cost,
            }),
            _ => rejected += 1,
        }
    }
    PlannerOut {
        moves,
        rejected,
        candidates,
        victims: victims.len(),
        unassigned,
        search_space,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::ClusterConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::NullSink;

    fn cluster(seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(8));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 4.0,
                seed,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    }

    fn alert_values(c: &Cluster) -> Vec<f64> {
        c.placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect()
    }

    #[test]
    fn sharded_round_moves_and_preserves_invariants() {
        let mut c = cluster(81);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let report = sharded_round_obs(&mut c, &metric, &alerts, &vals, &mut NullSink);
        assert!(report.shims > 1);
        assert!(!report.plan.moves.is_empty());
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            assert!(
                c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9,
                "host {h} over capacity"
            );
        }
        for vm in c.placement.vm_ids() {
            let host = c.placement.host_of(vm);
            for &other in c.placement.vms_on(host) {
                assert!(other == vm || !c.deps.dependent(vm, other));
            }
        }
    }

    #[test]
    fn sharded_rounds_balance_like_the_locked_runtime() {
        let mut sharded = cluster(82);
        let mut locked = cluster(82);
        let metric = RackMetric::build(&sharded.dcn, &sharded.sim);
        let initial = sharded.utilization_stddev();
        for t in 0..8 {
            let alerts = sharded.fraction_alerts(0.05, t);
            let vals = alert_values(&sharded);
            sharded_round_obs(&mut sharded, &metric, &alerts, &vals, &mut NullSink);

            let alerts = locked.fraction_alerts(0.05, t);
            let vals = alert_values(&locked);
            crate::distributed::distributed_round_obs(
                &mut locked,
                &metric,
                &alerts,
                &vals,
                3,
                &mut NullSink,
            );
        }
        let s = sharded.utilization_stddev();
        let l = locked.utilization_stddev();
        assert!(s < initial * 0.8, "sharded stalled: {initial} -> {s}");
        assert!(l < initial * 0.8, "locked stalled: {initial} -> {l}");
    }

    #[test]
    fn contended_destination_rejects_overflow() {
        // every alerted shim targets the same small region: the shard's
        // FCFS must reject what no longer fits, and the final state still
        // respects capacity
        let mut c = cluster(83);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.25, 0);
        let vals = alert_values(&c);
        let report = sharded_round_obs(&mut c, &metric, &alerts, &vals, &mut NullSink);
        // with heavy contention some rejections are expected but not
        // required; the hard requirement is capacity safety
        let _ = report.rejected;
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            assert!(c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9);
        }
    }

    #[test]
    fn no_alerts_no_threads() {
        let mut c = cluster(84);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let report = sharded_round_obs(&mut c, &metric, &[], &[], &mut NullSink);
        assert_eq!(report.shims, 0);
        assert!(report.plan.moves.is_empty());
    }

    #[test]
    fn apply_phase_rejects_a_move_the_shard_fitted_only_by_rounding() {
        use dcn_sim::AlertSource;
        use dcn_topology::VmSpec;
        // k = 4, two hosts per rack, capacity 3.0. The only host with
        // room is h1 (resident 1.2): rack 0's victim (1.5, on h0) and
        // rack 1's victim (0.3, on h2) both plan onto it. The shard
        // ACKs both, since 1.8 − 1.5 = 0.30000000000000004 ≥ 0.3; the
        // placement, applying rack 0 first, sees 3.0 − 2.7 =
        // 0.2999999999999998 < 0.3.
        let dcn = fattree::build(&FatTreeConfig {
            host_capacity: 3.0,
            ..FatTreeConfig::paper(4)
        });
        let mut placement = Placement::new(&dcn.inventory);
        let mut add = |host: usize, capacity: f64, delay_sensitive: bool| {
            let spec = VmSpec {
                id: placement.next_vm_id(),
                capacity,
                value: 1.0,
                delay_sensitive,
            };
            placement
                .add_vm(spec, HostId::from_index(host))
                .expect("fits")
        };
        let big = add(0, 1.5, false);
        add(0, 1.4, true);
        add(1, 1.2, true);
        let small = add(2, 0.3, false);
        add(2, 2.5, true);
        for host in 3..16 {
            add(host, 3.0, true);
        }
        let deps = DependencyGraph::new(placement.vm_count());
        let mut c = Cluster {
            dcn,
            placement,
            deps,
            workloads: Vec::new(),
            sim: SimConfig::paper(),
        };
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts: Vec<Alert> = [0, 2]
            .into_iter()
            .map(|h| {
                let host = HostId::from_index(h);
                Alert {
                    rack: c.placement.rack_of_host(host),
                    source: AlertSource::Host(host),
                    severity: 0.95,
                    time: 0,
                }
            })
            .collect();
        let vals = vec![1.0; c.placement.vm_count()];
        let report = sharded_round_obs(&mut c, &metric, &alerts, &vals, &mut NullSink);
        let target = HostId::from_index(1);
        assert_eq!(report.plan.moves.len(), 1);
        assert_eq!(
            (report.plan.moves[0].vm, report.plan.moves[0].to),
            (big, target)
        );
        assert_eq!(report.rejected, 1, "the unplaceable ACK counts as rejected");
        assert_eq!(c.placement.host_of(big), target);
        assert_eq!(c.placement.host_of(small), HostId::from_index(2));
        assert!(c.placement.used_capacity(target) <= c.placement.host_capacity(target));
    }
}
