//! The message-passing fabric runtime on the deterministic event core.
//!
//! [`FabricRuntime`](crate::FabricRuntime)'s `step` runs one management
//! round as a discrete-event simulation over [`sheriff_sim`]: heartbeat
//! emissions, failure-detector sweeps, REQUEST/2PC timeouts and backoff,
//! lease expiry, crash/recover windows and partition heals are all
//! *scheduled events* on a [`Simulation`] agenda instead of per-tick
//! drains of the channel and fault queues. The round advances from activation to
//! activation; at every activated virtual tick it runs the same phases
//! in the same order as the historical per-tick loop, so the event core
//! reproduces the per-tick fabric byte for byte (DESIGN.md §10 maps
//! each phase to its event type and delay source).
//!
//! The correctness argument is *activation-time superset*: the agenda
//! is seeded and maintained so that every tick at which any phase could
//! change state — a delivery, a deadline, a lease, a detector
//! transition, a beacon, a schedule window — is activated, and ticks in
//! between are provably no-ops (the per-tick loop ran every phase every
//! tick; a phase with no due work does nothing). Extra activations are
//! therefore harmless and missed ones are the only bug class, which is
//! what the byte-identical equivalence tests pin.
//!
//! Because time is now continuous inside the round, behavior rounds
//! alone cannot express becomes available: per-rack liveness-beacon
//! intervals ([`FabricConfig::with_beacon_interval`]) and per-rack
//! alert-check intervals ([`FabricConfig::with_alert_check`]) that fire
//! at their own virtual times within one round.
//!
//! # Layout
//!
//! A round in flight is a private `FabricRound`: it owns the simulated
//! network, one `ShimEndpoint` per rack (the destination side of the
//! 2PC), one `FabricShim` per alerted rack (the source side), the set
//! of down racks, the transfer scheduler and its audit state, the
//! `Agenda` and the report, and it borrows the cluster, metric, config,
//! failover state and sink. `run_round` only builds it (which admits
//! the shims and seeds the agenda), loops `activate` → `settled` →
//! `schedule_wakes` → hop, and calls `finish`. Each
//! `FabricEvent` has an `on_*` handler (`on_crash`, `on_recover`,
//! `on_link_fail`, `on_link_restore`, `on_heal`, `on_alert_check`,
//! `on_beacon`), each `ShimMsg` variant has one
//! (`on_hello`, `on_request`, `on_prepare`, `on_prepare_ok`,
//! `on_commit`, `on_abort`, `on_ack`, `on_reject`), and each per-tick
//! phase is a method (`detect`, `deliver`, `poll_transfers`,
//! `audit_transfers`, `expire_leases`, `step_shims`). `activate` runs
//! them in the fixed phase order of DESIGN.md §10, which the digest
//! suites pin.

use crate::audit::{
    audit_journals, audit_managers, audit_moves, audit_placement, AuditReport, AuditViolation,
};
use crate::channel::{CrashWindow, LinkFaultWindow, PartitionWindow, SimNet};
use crate::distributed::{reject_kind, ShimState};
use crate::failure::{RegionFailover, ShimHealth};
use crate::journal::TxnState;
use crate::priority::{alert_lookup, select_victims};
use crate::protocol::{
    BackoffPolicy, Liveness, RejectReason, ReqId, ShimEndpoint, ShimMsg, TwoPhaseReply,
};
use crate::runtime::{RoundOutcome, RunCtx};
use dcn_sim::engine::Cluster;
use dcn_sim::{Alert, ChannelFaults, RackMetric};
use dcn_topology::{HostId, RackId, VmId};
use sheriff_obs::{emit, Event, EventSink};
use sheriff_sim::{EventId, Simulation, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

use crate::vmmigration::{plan_proposals, region_slots, unassigned, Move};

/// Configuration of the message-passing fabric runtime.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Channel fault model (drop/duplicate/reorder/delay).
    pub faults: ChannelFaults,
    /// Seed for the channel's fault RNG.
    pub seed: u64,
    /// Replan rounds per shim after the first, mirroring
    /// [`DistributedRuntime::max_retry`](crate::DistributedRuntime::max_retry).
    pub max_retry: usize,
    /// Timeout/retransmission policy per request.
    pub backoff: BackoffPolicy,
    /// Ticks to collect `Hello`s before the first planning round; must
    /// exceed the channel's maximum delay or live racks look dead.
    pub hello_window: u64,
    /// Global interval between liveness beacons (see
    /// [`FabricConfig::beacon_every`] for per-rack overrides).
    pub heartbeat_period: u64,
    /// Silence (in ticks) after which a rack is presumed dead.
    pub liveness_deadline: u64,
    /// Hard cap on virtual time — a deadlock backstop; unresolved
    /// requests at the cap are abandoned and their VMs reported unplaced.
    pub max_ticks: u64,
    /// Shim crash schedule in virtual time. A window with `crash_at == 0`
    /// and no `recover_at` reproduces the old whole-round semantics (the
    /// shim answers no requests, sends no heartbeats and serves none of
    /// its own alerts); any other window crashes the shim mid-round and
    /// optionally recovers it, at which point it replays its intent
    /// journal and rejoins heartbeating.
    pub crashed: Vec<CrashWindow>,
    /// Named network-partition schedule in virtual time: while a window
    /// is active, traffic crossing its cut is silently swallowed. Both
    /// sides keep working — the minority side in degraded local mode —
    /// and reconcile when the window heals.
    pub partitions: Vec<PartitionWindow>,
    /// Ticks a journalled PREPARE stays valid without a COMMIT before the
    /// destination unilaterally aborts it. Must comfortably exceed one
    /// prepare → commit round trip or healthy transactions expire.
    pub prepare_lease: u64,
    /// Per-rack liveness-beacon interval overrides: `(rack, every)`
    /// pairs. A listed rack beacons every `every` ticks instead of the
    /// global heartbeat interval, letting a critical rack be watched at
    /// a tighter cadence. Empty (the default) keeps every rack on the
    /// global interval and reproduces the historical per-tick fabric
    /// exactly.
    pub beacon_intervals: Vec<(RackId, u64)>,
    /// Per-rack alert-check intervals: `(rack, every)` pairs. A listed
    /// source rack rescans itself for fresh pre-alerts every `every`
    /// ticks of virtual time *within* the round — the paper's regional
    /// pre-alert checks decoupled from round boundaries. Empty (the
    /// default) disables mid-round checks.
    pub alert_checks: Vec<(RackId, u64)>,
    /// Data-plane link-fault schedule in virtual time: while a window is
    /// open the link is dead for the transfer plane — any pre-copy whose
    /// route crosses it stalls at its checkpoint or re-routes onto a
    /// surviving candidate. Only meaningful with the transfer model
    /// enabled; control messages are unaffected (the control channel has
    /// its own fault model). Empty (the default) keeps the transfer
    /// plane fault-free and byte-identical to the pre-recovery fabric.
    pub link_faults: Vec<LinkFaultWindow>,
    /// Network-aware transfer model. `None` (the default) settles every
    /// committed migration instantaneously — byte-identical to the
    /// pre-transfer fabric. `Some` runs each committed migration's
    /// pre-copy as a scheduled transfer on the event core: routed over
    /// the topology's k-shortest paths, sharing link bandwidth max-min
    /// fairly with concurrent transfers, admission-capped and rerouted
    /// under QCN congestion; placement-affecting ACKs only flow once
    /// the transfer completes.
    pub transfer: Option<sheriff_transfer::TransferConfig>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            faults: ChannelFaults::reliable(),
            seed: 0x5EED,
            max_retry: 3,
            backoff: BackoffPolicy::default(),
            hello_window: 2,
            heartbeat_period: 8,
            liveness_deadline: 24,
            max_ticks: 4096,
            crashed: Vec::new(),
            partitions: Vec::new(),
            prepare_lease: 64,
            beacon_intervals: Vec::new(),
            alert_checks: Vec::new(),
            link_faults: Vec::new(),
            transfer: None,
        }
    }
}

impl FabricConfig {
    /// A fabric configuration for the given channel fault model, with
    /// the hello window widened past the channel's worst base delay so a
    /// healthy, slow channel is not mistaken for dead shims.
    pub fn for_channel(faults: ChannelFaults, seed: u64) -> Self {
        let hello = 2u64.max(faults.delay_max + 1);
        Self {
            faults,
            seed,
            hello_window: hello,
            ..Self::default()
        }
    }

    /// Override the pre-planning hello window.
    pub fn with_hello_window(mut self, ticks: u64) -> Self {
        self.hello_window = ticks;
        self
    }

    /// Override the global liveness-beacon interval.
    pub fn with_heartbeat_every(mut self, ticks: u64) -> Self {
        self.heartbeat_period = ticks;
        self
    }

    /// Override the liveness silence deadline.
    pub fn with_liveness_deadline(mut self, ticks: u64) -> Self {
        self.liveness_deadline = ticks;
        self
    }

    /// Beacon `rack` every `every` ticks instead of the global interval.
    pub fn with_beacon_interval(mut self, rack: RackId, every: u64) -> Self {
        self.beacon_intervals.retain(|(r, _)| *r != rack);
        self.beacon_intervals.push((rack, every));
        self
    }

    /// Rescan `rack` for fresh pre-alerts every `every` ticks of virtual
    /// time within the round.
    pub fn with_alert_check(mut self, rack: RackId, every: u64) -> Self {
        self.alert_checks.retain(|(r, _)| *r != rack);
        self.alert_checks.push((rack, every));
        self
    }

    /// Enable the network-aware transfer model: committed migrations
    /// stream their pre-copy over routed, bandwidth-shared transfers
    /// instead of settling instantaneously.
    pub fn with_transfer(mut self, transfer: sheriff_transfer::TransferConfig) -> Self {
        self.transfer = Some(transfer);
        self
    }

    /// Schedule a data-plane link fault window for the transfer plane.
    pub fn with_link_fault(mut self, window: LinkFaultWindow) -> Self {
        self.link_faults.push(window);
        self
    }

    /// The global liveness-beacon interval.
    pub fn heartbeat_every(&self) -> u64 {
        self.heartbeat_period
    }

    /// Fresh cross-round failover state for this config: the failure
    /// detector's thresholds derive from the heartbeat interval and the
    /// liveness deadline.
    pub(crate) fn failover_state(&self) -> RegionFailover {
        RegionFailover::new(self.heartbeat_every().max(1), self.liveness_deadline)
    }

    /// The beacon interval of `rack`: its override if listed, else the
    /// global interval.
    pub fn beacon_every(&self, rack: RackId) -> u64 {
        self.beacon_intervals
            .iter()
            .find(|(r, _)| *r == rack)
            .map(|&(_, every)| every)
            .unwrap_or_else(|| self.heartbeat_every())
    }

    /// The alert-check interval of `rack` (0 = no mid-round checks).
    pub fn alert_check_every(&self, rack: RackId) -> u64 {
        self.alert_checks
            .iter()
            .find(|(r, _)| *r == rack)
            .map(|&(_, every)| every)
            .unwrap_or(0)
    }
}

/// Which phase of the two-phase commit a transaction is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    /// PREPARE sent; waiting for the destination's vote.
    Preparing,
    /// PREPARE-OK received and COMMIT sent; waiting for the final ACK.
    Committing,
}

/// A transaction awaiting its next reply at the source shim.
struct Outstanding {
    vm: VmId,
    from: HostId,
    dest: HostId,
    cost: f64,
    attempt: u32,
    deadline: u64,
    phase: TxnPhase,
    /// Absolute lease carried by the PREPARE (stable across resends).
    lease: u64,
}

/// 2PC context of a migration whose pre-copy the transfer scheduler is
/// streaming: everything the destination needs to finalize the commit
/// and ACK the source once the last byte lands.
struct TransferMeta {
    /// The migrating VM.
    vm: VmId,
    /// Rack that sent the COMMIT (where the ACK goes).
    src_rack: RackId,
    /// Destination rack (whose endpoint journal finalizes).
    dst_rack: RackId,
    /// Epoch the COMMIT carried, replayed into `handle_commit` at
    /// completion so fencing still applies.
    epoch: u64,
}

/// Source-shim actor state for the fabric runtime. The shim is crashed
/// while its rack is in `FabricRound::down`.
struct FabricShim {
    st: ShimState,
    liveness: Liveness,
    region: Vec<RackId>,
    /// `BTreeMap`, not `HashMap`: these maps are drained/iterated when
    /// settling fates, so their order feeds report ordering (DET02).
    outstanding: BTreeMap<ReqId, Outstanding>,
    /// Given-up requests whose fate is unknown: a stale copy may still
    /// commit at the destination, so the VM must not be replanned. The
    /// entry's `deadline` becomes the patience cutoff for late verdicts.
    zombies: BTreeMap<ReqId, Outstanding>,
    /// Zombies whose patience expired with no verdict; resolved against
    /// ground truth when the simulator assembles the report.
    unresolved: Vec<Outstanding>,
    /// Planning rounds still allowed (first plan included).
    rounds_left: usize,
    started: bool,
    done: bool,
    /// ACKs received for the current batch.
    progressed: bool,
    /// A timeout give-up resolved to a late REJECT since the last plan:
    /// allows one replan even without progress (the degradation ladder's
    /// recovery step).
    gave_up: bool,
    degraded: bool,
    /// Planned at least once while an active partition cut part of the
    /// region off (degraded local handling).
    part_degraded: bool,
    /// Earliest tick at which a recovered shim may plan again — one
    /// beacon period after recovery, so its liveness view is fresh.
    resume_at: u64,
}

impl FabricShim {
    /// Every VM the shim manages right now: pending, awaiting a verdict,
    /// or of unknown fate.
    fn managed(&self) -> impl Iterator<Item = VmId> + '_ {
        self.st
            .pending
            .iter()
            .copied()
            .chain(self.outstanding.values().map(|o| o.vm))
            .chain(self.zombies.values().map(|o| o.vm))
            .chain(self.unresolved.iter().map(|o| o.vm))
    }

    /// Wake the shim for one more planning round, with or without
    /// progress since its last plan.
    fn wake(&mut self) {
        self.done = false;
        self.gave_up = true;
        self.rounds_left = self.rounds_left.max(1);
    }

    /// Mark the shim degraded, announcing it the first time.
    fn degrade(&mut self, sink: &mut dyn EventSink) {
        if !self.degraded {
            let rack = self.st.rack.index() as u64;
            emit(sink, || Event::ShimDegraded { rack });
        }
        self.degraded = true;
    }

    /// Record `o` as a committed move in the shim's plan.
    fn commit(&mut self, o: &Outstanding, sink: &mut dyn EventSink) {
        emit(sink, || Event::MigrationCommitted {
            vm: o.vm.index() as u64,
            from_host: o.from.index() as u64,
            to_host: o.dest.index() as u64,
            cost: o.cost,
        });
        sink.counter("migrations.committed", 1);
        self.st.plan.moves.push(Move {
            vm: o.vm,
            from: o.from,
            to: o.dest,
            cost: o.cost,
        });
        self.st.plan.total_cost += o.cost;
    }

    /// A REJECT for `vm` arrived: count it and put the VM back on the
    /// pending list for the next plan.
    fn requeue(&mut self, req_id: ReqId, vm: VmId, reason: RejectReason, sink: &mut dyn EventSink) {
        emit(sink, || Event::RejectReceived {
            req: req_id.0,
            vm: vm.index() as u64,
            reason: reject_kind(reason),
        });
        sink.counter("migrations.rejected", 1);
        self.st.plan.rejected += 1;
        self.st.retries += 1;
        self.st.pending.push(vm);
    }
}

/// Why a derived [`FabricEvent::Wake`] activation was scheduled — the
/// delay-source column of the DESIGN.md §10 phase table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeReason {
    /// The channel's next pending `deliver_at`.
    Delivery,
    /// The earliest request/zombie deadline (backoff policy).
    Timeout,
    /// The earliest journalled PREPARE lease.
    Lease,
    /// The failure detector's next silence-threshold crossing.
    Detector,
    /// A shim's `max(hello_window, resume_at)` planning gate.
    ShimStart,
    /// The transfer scheduler's next completion (or a queued transfer
    /// waiting for an admission slot).
    Transfer,
}

/// The fabric round's event vocabulary. Round phases map onto these
/// one-to-one; `Wake` events carry no payload because an activation
/// runs *all* phases for its tick (activation-time superset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FabricEvent {
    /// Crash window `schedule[i]` opens.
    Crash(usize),
    /// Crash window `schedule[i]` closes: journal replay and rejoin.
    Recover(usize),
    /// Partition window `cfg.partitions[i]` heals.
    Heal(usize),
    /// Link-fault window `cfg.link_faults[i]` opens: the transfer plane
    /// loses the link, stalling or re-routing the pre-copies on it.
    LinkFail(usize),
    /// Link-fault window `cfg.link_faults[i]` closes: stalled pre-copies
    /// resume from their checkpoints.
    LinkRestore(usize),
    /// A liveness beacon from a rack (Hello at tick 0, Heartbeat after),
    /// self-rescheduling at the rack's beacon interval.
    Beacon(RackId),
    /// A per-rack alert-check interval fires.
    AlertCheck(RackId),
    /// A derived activation with no payload of its own.
    Wake(WakeReason),
}

impl FabricEvent {
    /// The event's slot in an activation's fixed phase order: crashes
    /// and recoveries, link fails, link restores, heals, alert checks,
    /// beacons, then payload-free wakes. Within one slot events keep
    /// their agenda pop order.
    fn phase(self) -> u8 {
        match self {
            FabricEvent::Crash(_) | FabricEvent::Recover(_) => 0,
            FabricEvent::LinkFail(_) => 1,
            FabricEvent::LinkRestore(_) => 2,
            FabricEvent::Heal(_) => 3,
            FabricEvent::AlertCheck(_) => 4,
            FabricEvent::Beacon(_) => 5,
            FabricEvent::Wake(_) => 6,
        }
    }
}

/// Actor id for derived wakes (no rack owns them).
const WAKE_ACTOR: u64 = u64::MAX;

/// The round's event agenda and the bookkeeping that dedupes derived
/// wakes on time.
struct Agenda {
    sim: Simulation<FabricEvent>,
    /// Every tick that already has a never-cancelled event. Timeout
    /// wakes are the exception: they are cancellable, so they live in
    /// `timeout_wake` instead and never enter `seen`.
    seen: BTreeSet<u64>,
    /// The armed timeout wake, if any: `(tick, handle)`.
    timeout_wake: Option<(u64, EventId)>,
}

impl Agenda {
    /// Schedule a never-cancelled event at `at`.
    fn schedule(&mut self, at: u64, actor: u64, event: FabricEvent) {
        self.seen.insert(at);
        self.sim.schedule_at(VirtualTime::new(at), actor, event);
    }

    /// Schedule a derived activation at `at`, unless some
    /// never-cancelled event already activates that tick.
    fn wake(&mut self, at: u64, reason: WakeReason) {
        if self.seen.insert(at) {
            self.sim
                .schedule_at(VirtualTime::new(at), WAKE_ACTOR, FabricEvent::Wake(reason));
        }
    }

    /// Track the earliest request/zombie deadline `d` with the one
    /// cancellable wake: deadlines move every resend, so a nearer
    /// deadline cancels the armed wake (a no-op if it already fired).
    fn wake_timeout(&mut self, d: u64) {
        if self.timeout_wake.is_some_and(|(cur, _)| d >= cur) {
            return;
        }
        if let Some((_, id)) = self.timeout_wake {
            self.sim.cancel(id);
        }
        self.timeout_wake = if self.seen.contains(&d) {
            None
        } else {
            let event = FabricEvent::Wake(WakeReason::Timeout);
            Some((
                d,
                self.sim.schedule_at(VirtualTime::new(d), WAKE_ACTOR, event),
            ))
        };
    }
}

/// Run one fabric round: build the `FabricRound` (which admits the
/// shims and seeds the agenda), hop from activation to activation until
/// the round settles or passes `cfg.max_ticks`, and close it. With
/// [`ChannelFaults::reliable`] and no crashes it produces the same plan
/// as the threaded runtime with `max_retry = cfg.max_retry`.
///
/// `failover` carries the detector's silence clock, the regional epochs
/// and the manager table across rounds. The sink sees every
/// REQUEST/ACK/REJECT, timeout, retransmission, absorbed duplicate,
/// degradation step and crashed shim as an event, and the channel's
/// [`NetStats`](crate::channel::NetStats) as counters (`net.sent`,
/// `net.dropped`, ...).
pub(crate) fn run_round(
    ctx: &mut RunCtx<'_>,
    cfg: &FabricConfig,
    failover: &mut RegionFailover,
) -> RoundOutcome {
    let mut round = FabricRound::new(ctx, cfg, failover);
    if round.shims.is_empty() {
        return round.report;
    }
    loop {
        round.activate();
        if round.settled() {
            break;
        }
        round.schedule_wakes();
        // hop to the next activation; past the tick cap the round is
        // abandoned exactly as the per-tick loop abandoned it
        match round.agenda.sim.next_time() {
            Some(nt) if nt.get() <= cfg.max_ticks => round.t = nt.get(),
            _ => {
                round.t = cfg.max_ticks.saturating_add(1);
                break;
            }
        }
    }
    round.finish()
}

/// One fabric round in flight: the simulated network, the destination
/// endpoints, the source shims, the transfer plane and the agenda, plus
/// borrows of the round's inputs. Each `FabricEvent` and each `ShimMsg`
/// variant has its own handler method; `activate` runs them in the
/// fixed phase order of DESIGN.md §10.
struct FabricRound<'a> {
    cluster: &'a mut Cluster,
    metric: &'a RackMetric,
    alerts: &'a [Alert],
    alert_values: &'a [f64],
    cfg: &'a FabricConfig,
    failover: &'a mut RegionFailover,
    sink: &'a mut dyn EventSink,
    /// Source racks: alerted and not crashed for the whole round.
    racks: Vec<RackId>,
    /// Mid-round crash windows (`cfg.crashed` minus whole-round ones).
    schedule: Vec<CrashWindow>,
    net: SimNet,
    /// One destination endpoint per rack, indexed by rack.
    endpoints: Vec<ShimEndpoint>,
    /// One source shim per entry of `racks`, in rack order.
    shims: Vec<FabricShim>,
    source_index: BTreeMap<RackId, usize>,
    /// Racks currently down: whole-round crashes, plus the racks whose
    /// crash window is open.
    down: BTreeSet<RackId>,
    /// Longest possible request + reply round trip: base delay plus the
    /// reorder fault's extra hold-back (up to 3 ticks) each way, with
    /// slack.
    patience: u64,
    /// The transfer scheduler; `None` settles every committed migration
    /// instantaneously, byte-identical to the pre-transfer fabric.
    transfers: Option<sheriff_transfer::TransferScheduler>,
    /// Per-transfer 2PC context, keyed by request id.
    transfer_meta: BTreeMap<ReqId, TransferMeta>,
    /// Transfer-plane invariant breaches, each flagged once per
    /// (transfer, fact) and merged into the round's audit report.
    transfer_audit: AuditReport,
    flagged_on_failed: BTreeSet<(u64, usize)>,
    flagged_no_prepare: BTreeSet<u64>,
    /// Terminal rack-crash cancellations (no recovery scheduled), counted
    /// into `transfer_failures` on top of the scheduler's own.
    rack_failed_transfers: usize,
    agenda: Agenda,
    report: RoundOutcome,
    /// The activated virtual tick.
    t: u64,
}

impl<'a> FabricRound<'a> {
    fn new(
        ctx: &'a mut RunCtx<'_>,
        cfg: &'a FabricConfig,
        failover: &'a mut RegionFailover,
    ) -> Self {
        let cluster = &mut *ctx.cluster;
        let mut racks: Vec<RackId> = ctx.alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        // a window with crash_at == 0 and no recovery is the old
        // whole-round crash: the rack is excluded from the round
        // entirely. Every other window is a mid-round transition handled
        // as Crash/Recover events.
        let (whole_round, schedule): (Vec<CrashWindow>, Vec<CrashWindow>) = cfg
            .crashed
            .iter()
            .copied()
            .partition(|w| w.crash_at == 0 && w.recover_at.is_none());
        let down: BTreeSet<RackId> = whole_round.iter().map(|w| w.rack).collect();
        let mut net = SimNet::new(cfg.faults.clone(), cfg.seed);
        net.set_partitions(cfg.partitions.clone());
        for &r in &down {
            net.set_down(r);
        }
        let endpoints = (0..cluster.dcn.rack_count())
            .map(|r| ShimEndpoint::new(RackId::from_index(r)))
            .collect();
        let mut round = FabricRound {
            racks,
            schedule,
            net,
            endpoints,
            shims: Vec::new(),
            source_index: BTreeMap::new(),
            down,
            patience: 2 * (cfg.faults.delay_max + 3) + 2,
            transfers: cfg
                .transfer
                .as_ref()
                .map(|tc| sheriff_transfer::TransferScheduler::new(tc.clone())),
            transfer_meta: BTreeMap::new(),
            transfer_audit: AuditReport::default(),
            flagged_on_failed: BTreeSet::new(),
            flagged_no_prepare: BTreeSet::new(),
            rack_failed_transfers: 0,
            agenda: Agenda {
                sim: Simulation::new(),
                seen: BTreeSet::new(),
                timeout_wake: None,
            },
            report: RoundOutcome::default(),
            t: 0,
            cluster,
            metric: ctx.metric,
            alerts: ctx.alerts,
            alert_values: ctx.alert_values,
            cfg,
            failover,
            sink: &mut *ctx.sink,
        };
        round.admit_shims();
        round.seed_agenda();
        round
    }

    /// Victims on `rack` by Alg. 1, with the candidate count.
    fn victims(&self, rack: RackId) -> (Vec<VmId>, usize) {
        select_victims(
            &self.cluster.placement,
            &self.cluster.dcn.inventory,
            &self.cluster.sim,
            rack,
            self.alerts,
            alert_lookup(self.alert_values),
        )
    }

    /// Drop whole-round crashed racks from the source set, hand the
    /// alerts of the ones the detector declared Dead to successors, and
    /// build one source shim per remaining alerted rack with its victims
    /// selected on the initial placement (Alg. 1).
    fn admit_shims(&mut self) {
        let crashed: Vec<RackId> = self
            .racks
            .iter()
            .copied()
            .filter(|r| self.down.contains(r))
            .collect();
        for &r in &crashed {
            emit(self.sink, || Event::ShimCrashed {
                rack: r.index() as u64,
            });
        }
        self.racks.retain(|r| !self.down.contains(r));
        self.report.crashed_shims = crashed.len();
        // detector baseline: every rack is expected to beacon from the
        // round's start, so a shim that is down from tick 0 accrues silence
        for i in 0..self.cluster.dcn.rack_count() {
            let clock = self.failover.clock;
            self.failover.detector.track(RackId::from_index(i), clock);
        }
        let adopted = self.adopt_dead(&crashed);
        self.report.shims = self.racks.len();
        let mut shims = Vec::with_capacity(self.racks.len());
        for &rack in &self.racks {
            let (mut pending, mut candidates) = self.victims(rack);
            // a takeover successor also serves the alerts of the racks
            // it adopted, with victims selected the same way
            for &ar in adopted.get(&rack).map(Vec::as_slice).unwrap_or_default() {
                let (more, more_cand) = self.victims(ar);
                pending.extend(more);
                candidates += more_cand;
            }
            emit(self.sink, || Event::VictimsSelected {
                rack: rack.index() as u64,
                candidates: candidates as u64,
                selected: pending.len() as u64,
            });
            let active = !pending.is_empty();
            shims.push(FabricShim {
                st: ShimState {
                    rack,
                    active,
                    pending,
                    slots: Vec::new(),
                    excluded: BTreeSet::new(),
                    plan: Default::default(),
                    retries: 0,
                    seq: 0,
                },
                liveness: Liveness::new(self.cfg.liveness_deadline),
                region: self
                    .cluster
                    .dcn
                    .neighbor_racks(rack, self.cluster.sim.region_hops),
                outstanding: BTreeMap::new(),
                zombies: BTreeMap::new(),
                unresolved: Vec::new(),
                rounds_left: self.cfg.max_retry + 1,
                started: false,
                // shims with nothing to do are immediately done
                done: !active,
                progressed: false,
                gave_up: false,
                degraded: false,
                part_degraded: false,
                resume_at: 0,
            });
        }
        self.source_index = shims
            .iter()
            .enumerate()
            .map(|(i, s)| (s.st.rack, i))
            .collect();
        self.shims = shims;
    }

    /// Regional takeover at round start: an alerted rack whose shim the
    /// detector has already declared Dead hands its alerts to a
    /// deterministic successor — the lowest-index live alerted rack in
    /// its region, else the lowest-index live alerted rack anywhere.
    /// Returns the adopted racks per successor.
    fn adopt_dead(&mut self, crashed: &[RackId]) -> BTreeMap<RackId, Vec<RackId>> {
        let mut adopted: BTreeMap<RackId, Vec<RackId>> = BTreeMap::new();
        for &r in crashed {
            if self.failover.detector.health(r) != ShimHealth::Dead {
                continue;
            }
            let region = self
                .cluster
                .dcn
                .neighbor_racks(r, self.cluster.sim.region_hops);
            let succ = region
                .iter()
                .copied()
                .filter(|s| self.racks.contains(s))
                .min()
                .or_else(|| self.racks.first().copied());
            if let Some(s) = succ {
                self.take_over(r, s);
                adopted.entry(s).or_default().push(r);
            }
        }
        adopted
    }

    /// Hand `rack`'s region to `by`. The first handover bumps the
    /// rack's epoch so the deposed shim's 2PC traffic can be fenced when
    /// it returns; a continued one is not announced again.
    fn take_over(&mut self, rack: RackId, by: RackId) {
        let continued = self.failover.taken_over(rack) && self.failover.manager_of(rack) == by;
        let epoch = self.failover.take_over(rack, by);
        if !continued {
            emit(self.sink, || Event::RegionTakenOver {
                rack: rack.index() as u64,
                by: by.index() as u64,
                epoch,
            });
            self.sink.counter("region.takeovers", 1);
            self.report.takeovers += 1;
        }
    }

    /// Seed the agenda with every schedule window, heal and beacon, and
    /// the hello-window planning gate.
    fn seed_agenda(&mut self) {
        for (i, w) in self.schedule.iter().enumerate() {
            let actor = w.rack.index() as u64;
            self.agenda
                .schedule(w.crash_at, actor, FabricEvent::Crash(i));
            if let Some(r) = w.recover_at {
                self.agenda.schedule(r, actor, FabricEvent::Recover(i));
            }
        }
        for (i, p) in self.cfg.partitions.iter().enumerate() {
            if let Some(h) = p.heal_at {
                self.agenda.schedule(h, i as u64, FabricEvent::Heal(i));
            }
        }
        // link faults only touch the transfer plane: with the model
        // disabled they are not seeded at all, so the agenda (and the
        // round) stays byte-identical to the fault-free fabric
        if self.transfers.is_some() {
            for (i, w) in self.cfg.link_faults.iter().enumerate() {
                let actor = w.link as u64;
                self.agenda
                    .schedule(w.fail_at, actor, FabricEvent::LinkFail(i));
                if let Some(r) = w.restore_at {
                    self.agenda.schedule(r, actor, FabricEvent::LinkRestore(i));
                }
            }
        }
        // every rack beacons from tick 0 (Hello), then self-reschedules
        // at its own interval — the emit_self idiom, flattened: the
        // recurrence is re-armed by the Beacon handler so a down rack
        // keeps cadence
        for r in (0..self.cluster.dcn.rack_count()).map(RackId::from_index) {
            self.agenda
                .schedule(0, r.index() as u64, FabricEvent::Beacon(r));
        }
        for &(r, every) in &self.cfg.alert_checks {
            if every > 0 {
                self.agenda
                    .schedule(every, r.index() as u64, FabricEvent::AlertCheck(r));
            }
        }
        self.agenda
            .wake(self.cfg.hello_window, WakeReason::ShimStart);
    }

    /// One activation at tick `t`: the due events' handlers in phase
    /// order, then every per-tick phase. The order is the per-tick
    /// loop's and must not change — the digest suites pin it.
    fn activate(&mut self) {
        let mut due = self.agenda.sim.take_due(VirtualTime::new(self.t));
        // a stable sort: pop order within a phase is schedule order,
        // which reproduces the historical iteration orders (schedule
        // order for windows, partition-index order for heals, rack order
        // for beacons)
        due.sort_by_key(|ev| ev.event.phase());
        for ev in due {
            self.on_event(ev.event);
        }
        self.detect();
        self.deliver();
        self.poll_transfers();
        self.audit_transfers();
        self.expire_leases(self.t, true);
        self.step_shims();
    }

    fn on_event(&mut self, event: FabricEvent) {
        match event {
            FabricEvent::Crash(i) => self.on_crash(i),
            FabricEvent::Recover(i) => self.on_recover(i),
            FabricEvent::Heal(i) => self.on_heal(i),
            FabricEvent::LinkFail(i) => self.on_link_fail(i),
            FabricEvent::LinkRestore(i) => self.on_link_restore(i),
            FabricEvent::AlertCheck(r) => self.on_alert_check(r),
            FabricEvent::Beacon(r) => self.on_beacon(r),
            FabricEvent::Wake(WakeReason::Timeout) => self.agenda.timeout_wake = None,
            FabricEvent::Wake(_) => {}
        }
    }

    // ---- shared bookkeeping ---------------------------------------------

    fn txn_aborted(&mut self, req: ReqId, vm: VmId) {
        self.report.txn_aborted += 1;
        emit(self.sink, || Event::TxnAborted {
            req: req.0,
            vm: vm.index() as u64,
        });
        self.sink.counter("txn.aborted", 1);
    }

    fn txn_committed(&mut self, req: ReqId, vm: VmId) {
        self.report.txn_committed += 1;
        emit(self.sink, || Event::TxnCommitted {
            req: req.0,
            vm: vm.index() as u64,
        });
        self.sink.counter("txn.committed", 1);
    }

    /// Roll back `req`'s journalled prepare at `rack`'s endpoint, if it
    /// holds one (lease released, source placement restored).
    fn abort_at(&mut self, rack: RackId, req: ReqId) {
        let aborted = self
            .endpoints
            .get_mut(rack.index())
            .and_then(|ep| ep.handle_abort(&mut self.cluster.placement, &self.cluster.deps, req));
        if let Some((vm, _)) = aborted {
            self.txn_aborted(req, vm);
        }
    }

    /// Epoch fence: a 2PC message from a deposed manager's term mutates
    /// nothing — the sender learns the current epoch from a `StaleEpoch`
    /// reject and must replan. Returns whether the message was fenced.
    fn fenced(&mut self, (from, to): (RackId, RackId), req_id: ReqId, epoch: u64) -> bool {
        let Some(current) = self.failover.fence(from, epoch) else {
            return false;
        };
        self.report.fenced += 1;
        emit(self.sink, || Event::StaleEpochRejected {
            req: req_id.0,
            rack: to.index() as u64,
            stale: epoch,
            current,
        });
        self.sink.counter("txn.fenced", 1);
        let reject = ShimMsg::Reject {
            req_id,
            reason: RejectReason::StaleEpoch,
            epoch: current,
        };
        self.net.send(self.t, to, from, reject);
        true
    }

    fn transfer_started(&mut self, s: &sheriff_transfer::Started) {
        self.report.transfers_started += 1;
        emit(self.sink, || Event::TransferStarted {
            req: s.id,
            vm: s.vm,
            bytes: s.bytes,
            hops: s.hops as u64,
            rate: s.rate,
            waited: s.waited,
        });
        self.sink.counter("transfer.started", 1);
        if s.rerouted {
            self.transfer_rerouted(s.id, s.vm, s.hops);
        }
    }

    fn transfer_rerouted(&mut self, req: u64, vm: u64, hops: usize) {
        emit(self.sink, || Event::TransferRerouted {
            req,
            vm,
            hops: hops as u64,
        });
        self.sink.counter("transfer.rerouted", 1);
    }

    fn transfer_resumed(&mut self, r: &sheriff_transfer::Resumed) {
        emit(self.sink, || Event::TransferResumed {
            req: r.id,
            vm: r.vm,
            saved: r.saved,
        });
        self.sink.counter("transfer.resumed", 1);
    }

    fn transfer_failed(&mut self, req: u64, vm: u64, attempts: u64) {
        emit(self.sink, || Event::TransferFailed { req, vm, attempts });
        self.sink.counter("transfer.failed", 1);
    }

    // ---- agenda events (phases 1–5) -------------------------------------

    /// Crash window `wi` opens. The crashing source shim loses its
    /// volatile negotiation state (outstanding requests become
    /// unresolved — their fate settles against ground truth); its
    /// durable intent journal survives and is replayed on recovery.
    fn on_crash(&mut self, wi: usize) {
        let Some(w) = self.schedule.get(wi).copied() else {
            return;
        };
        self.net.set_down(w.rack);
        self.down.insert(w.rack);
        emit(self.sink, || Event::ShimCrashed {
            rack: w.rack.index() as u64,
        });
        // pre-copies streaming *into* the crashed rack die with it. With
        // a recovery scheduled their journal prepares survive under the
        // extended lease, so a retransmitted COMMIT after recovery simply
        // restarts the transfer. Without one the 2PC context is dead for
        // good: emit the failure and abort the journalled prepare now —
        // symmetric with the lease-abort path — instead of leaving a
        // silent zombie for the end-of-round sweep.
        let t = self.t;
        let cancelled = self
            .transfers
            .as_mut()
            .map(|ts| ts.cancel_rack(w.rack.index(), t))
            .unwrap_or_default();
        for id in cancelled {
            let req_id = ReqId(id);
            let meta = self.transfer_meta.remove(&req_id);
            self.sink.counter("transfer.cancelled", 1);
            let Some(meta) = meta else { continue };
            if w.recover_at.is_some() {
                continue;
            }
            self.rack_failed_transfers += 1;
            self.transfer_failed(id, meta.vm.index() as u64, 0);
            self.abort_at(meta.dst_rack, req_id);
        }
        let shim = self
            .source_index
            .get(&w.rack)
            .and_then(|&i| self.shims.get_mut(i));
        if let Some(shim) = shim {
            shim.started = false;
            let lost: Vec<Outstanding> = std::mem::take(&mut shim.outstanding)
                .into_values()
                .chain(std::mem::take(&mut shim.zombies).into_values())
                .collect();
            shim.unresolved.extend(lost);
        }
    }

    /// Crash window `wi` closes: journal replay re-ACKs committed
    /// transfers and aborts orphaned prepares whose lease lapsed while
    /// down and prepares journalled under a since-superseded epoch — the
    /// restore path can never resurrect old-epoch intents.
    fn on_recover(&mut self, wi: usize) {
        let Some(w) = self.schedule.get(wi).copied() else {
            return;
        };
        let t = self.t;
        self.net.set_up(w.rack);
        self.down.remove(&w.rack);
        emit(self.sink, || Event::ShimRecovered {
            rack: w.rack.index() as u64,
        });
        self.report.recoveries += 1;
        let Some(ep) = self.endpoints.get_mut(w.rack.index()) else {
            return;
        };
        let rep = ep.recover_fenced(
            &mut self.cluster.placement,
            &self.cluster.deps,
            t,
            self.failover.epochs(),
        );
        self.sink.counter("journal.replayed", rep.replayed as u64);
        self.sink
            .counter("journal.reacked", rep.reacks.len() as u64);
        self.sink.counter("journal.forwarded", rep.forwarded as u64);
        for req_id in rep.reacks {
            let epoch = self.failover.view_of(w.rack);
            self.net
                .send(t, w.rack, req_id.source(), ShimMsg::Ack { req_id, epoch });
        }
        for &(req, vm) in rep.lease_aborts.iter().chain(rep.epoch_aborts.iter()) {
            self.txn_aborted(req, vm);
        }
        let shim = self
            .source_index
            .get(&w.rack)
            .and_then(|&i| self.shims.get_mut(i));
        if let Some(shim) = shim {
            // rejoin heartbeating first; plan once the liveness view has
            // had a full beacon period to repopulate
            shim.resume_at = t + self.cfg.beacon_every(w.rack) + 1;
        }
    }

    /// Link-fault window `idx` opens: every pre-copy crossing the link
    /// stalls at its checkpoint or re-routes (max-min shares recomputed
    /// for the survivors). Fails run before restores, so a zero-width
    /// window nets out to a restore.
    fn on_link_fail(&mut self, idx: usize) {
        let (Some(ts), Some(w)) = (self.transfers.as_mut(), self.cfg.link_faults.get(idx)) else {
            return;
        };
        let out = ts.fail_link(self.t, w.link);
        for s in &out.stalled {
            emit(self.sink, || Event::TransferStalled {
                req: s.id,
                vm: s.vm,
                link: s.link as u64,
            });
            self.sink.counter("transfer.stalled", 1);
        }
        for r in &out.rerouted {
            self.transfer_rerouted(r.id, r.vm, r.hops);
        }
    }

    /// Link-fault window `idx` closes: stalled pre-copies resume from
    /// their checkpoints.
    fn on_link_restore(&mut self, idx: usize) {
        let (Some(ts), Some(w)) = (self.transfers.as_mut(), self.cfg.link_faults.get(idx)) else {
            return;
        };
        for r in ts.restore_link(self.t, w.link) {
            self.transfer_resumed(&r);
        }
    }

    /// Partition window `idx` heals: reconcile parked work. A pending VM
    /// whose rack is managed by another shim was (or will be) handled by
    /// that manager — replanning it here would double-manage, so it is
    /// dropped and counted as a reconciliation conflict. Shims the cut
    /// starved into parking with work left are woken for a post-heal
    /// replan.
    fn on_heal(&mut self, idx: usize) {
        let Some(p) = self.cfg.partitions.get(idx) else {
            return;
        };
        emit(self.sink, || Event::PartitionHealed {
            partition: idx as u64,
            racks: p.members.len() as u64,
        });
        self.sink.counter("net.healed", 1);
        for shim in &mut self.shims {
            if !shim.st.pending.is_empty() {
                let before = shim.st.pending.len();
                let rack = shim.st.rack;
                let (failover, placement) = (&*self.failover, &self.cluster.placement);
                shim.st
                    .pending
                    .retain(|&vm| failover.manager_of(placement.rack_of(vm)) == rack);
                self.report.reconciliations += before - shim.st.pending.len();
            }
            if shim.done && !self.down.contains(&shim.st.rack) && !shim.st.pending.is_empty() {
                shim.wake();
            }
        }
    }

    /// A per-rack alert check: rescan the rack for fresh pre-alerts at
    /// its own virtual-time interval, independent of round boundaries.
    /// VMs already managed (pending, in-flight, unknown-fate, moved, or
    /// mid-stream) are never re-adopted.
    fn on_alert_check(&mut self, r: RackId) {
        let t = self.t;
        let every = self.cfg.alert_check_every(r);
        if every > 0 {
            self.agenda
                .schedule(t + every, r.index() as u64, FabricEvent::AlertCheck(r));
        }
        if self.down.contains(&r) {
            return;
        }
        let Some(&i) = self.source_index.get(&r) else {
            return;
        };
        let (victims, _) = self.victims(r);
        let in_flight = self
            .transfers
            .as_ref()
            .map(|ts| ts.in_flight_vms())
            .unwrap_or_default();
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        let busy: BTreeSet<VmId> = shim
            .managed()
            .chain(shim.st.plan.moves.iter().map(|m| m.vm))
            .chain(in_flight.into_iter().map(|v| VmId::from_index(v as usize)))
            .collect();
        let fresh: Vec<VmId> = victims
            .into_iter()
            .filter(|vm| !busy.contains(vm))
            .collect();
        emit(self.sink, || Event::AlertCheckFired {
            rack: r.index() as u64,
            tick: t,
            fresh: fresh.len() as u64,
        });
        self.sink.counter("alerts.checks", 1);
        if !fresh.is_empty() {
            shim.st.pending.extend(fresh);
            shim.wake();
        }
    }

    /// A rack's liveness beacon: every live rack announces itself to
    /// every source shim at t = 0 (Hello) and at its beacon interval
    /// after (Heartbeat). The failure detector watches the *emission*
    /// (simulator ground truth): a partitioned-but-alive shim keeps
    /// emitting, so a cut never looks like a crash and takeover stays
    /// crash-only. The recurrence re-arms first — even for a down rack —
    /// so the cadence is preserved across crash windows.
    fn on_beacon(&mut self, r: RackId) {
        let t = self.t;
        let every = self.cfg.beacon_every(r);
        if every > 0 {
            self.agenda
                .schedule(t + every, r.index() as u64, FabricEvent::Beacon(r));
        }
        if self.down.contains(&r) {
            return;
        }
        let now = self.failover.clock + t;
        if self.failover.detector.observe_emission(r, now) == ShimHealth::Dead {
            // a shim the detector wrote off is beaconing again:
            // management reverts to it, while its stale epoch view keeps
            // its old 2PC traffic fenced until it adopts the bump
            self.failover.reinstate(r);
        }
        let epoch = self.failover.view_of(r);
        for &s in &self.racks {
            let msg = if t == 0 {
                ShimMsg::Hello { rack: r, epoch }
            } else {
                ShimMsg::Heartbeat {
                    rack: r,
                    tick: t,
                    epoch,
                }
            };
            self.net.send(t, r, s, msg);
        }
    }

    // ---- per-tick phases (6–11) -----------------------------------------

    /// Adaptive failure detection: silence beyond the thresholds walks a
    /// shim Alive → Suspect → Dead.
    fn detect(&mut self) {
        let now = self.failover.clock + self.t;
        for (rack, _old, new) in self.failover.detector.tick(now) {
            match new {
                ShimHealth::Suspect => {
                    emit(self.sink, || Event::ShimSuspected {
                        rack: rack.index() as u64,
                    });
                    self.sink.counter("detector.suspected", 1);
                }
                ShimHealth::Dead => {
                    emit(self.sink, || Event::ShimDeclaredDead {
                        rack: rack.index() as u64,
                    });
                    self.sink.counter("detector.declared_dead", 1);
                    self.hand_over(rack);
                }
                ShimHealth::Alive => {}
            }
        }
    }

    /// A Dead shim that is down and still holds unplanned work mid-round
    /// hands it to the lowest-index live shim under a bumped epoch; its
    /// in-flight 2PC stays with the zombie/lease machinery, which
    /// already settles it safely.
    fn hand_over(&mut self, rack: RackId) {
        let Some(&i) = self.source_index.get(&rack) else {
            return;
        };
        let parked = self.shims.get(i).is_some_and(|s| !s.st.pending.is_empty());
        if !(parked && self.down.contains(&rack)) {
            return;
        }
        let succ = self
            .shims
            .iter()
            .enumerate()
            .filter(|&(j, s)| j != i && !self.down.contains(&s.st.rack))
            .map(|(j, s)| (s.st.rack, j))
            .min();
        let Some((succ_rack, j)) = succ else {
            return;
        };
        self.take_over(rack, succ_rack);
        let moved = match self.shims.get_mut(i) {
            Some(s) => std::mem::take(&mut s.st.pending),
            None => Vec::new(),
        };
        if let Some(s) = self.shims.get_mut(j) {
            s.st.pending.extend(moved);
            s.wake();
        }
    }

    /// Deliveries: endpoints answer requests, sources absorb replies.
    /// Every pending `deliver_at` has a Delivery wake, so the poll
    /// happens exactly at each message's delivery tick.
    fn deliver(&mut self) {
        for (from, to, msg) in self.net.poll(self.t) {
            let link = (from, to);
            match msg {
                ShimMsg::Hello { rack, .. } | ShimMsg::Heartbeat { rack, .. } => {
                    self.on_hello(to, rack)
                }
                ShimMsg::Request {
                    req_id, vm, dest, ..
                } => self.on_request(link, req_id, vm, dest),
                ShimMsg::Prepare {
                    req_id,
                    vm,
                    dest,
                    lease,
                    epoch,
                } => self.on_prepare(link, req_id, vm, dest, lease, epoch),
                ShimMsg::PrepareOk { req_id, .. } => self.on_prepare_ok(to, req_id),
                ShimMsg::Commit { req_id, epoch } => self.on_commit(link, req_id, epoch),
                ShimMsg::Abort { req_id, epoch } => self.on_abort(link, req_id, epoch),
                ShimMsg::Ack { req_id, .. } => self.on_ack(to, req_id),
                ShimMsg::Reject {
                    req_id,
                    reason,
                    epoch,
                } => self.on_reject(to, req_id, reason, epoch),
            }
        }
    }

    /// A Hello or Heartbeat reaches source shim `to`.
    fn on_hello(&mut self, to: RackId, rack: RackId) {
        let t = self.t;
        if let Some(shim) = self
            .source_index
            .get(&to)
            .and_then(|&i| self.shims.get_mut(i))
        {
            shim.liveness.observe(rack, t);
        }
    }

    /// A single-phase REQUEST reaches endpoint `to`.
    fn on_request(&mut self, (from, to): (RackId, RackId), req_id: ReqId, vm: VmId, dest: HostId) {
        let Some(ep) = self.endpoints.get_mut(to.index()) else {
            return;
        };
        let hits_before = ep.dedup_hits();
        let verdict = ep.handle_request(
            &mut self.cluster.placement,
            &self.cluster.deps,
            req_id,
            vm,
            dest,
        );
        if ep.dedup_hits() > hits_before {
            emit(self.sink, || Event::DuplicateAbsorbed { req: req_id.0 });
        }
        let my_epoch = self.failover.view_of(to);
        self.net.send(
            self.t,
            to,
            from,
            ShimEndpoint::reply_msg(req_id, verdict, my_epoch),
        );
    }

    /// A PREPARE reaches endpoint `to`: journal it and vote.
    fn on_prepare(
        &mut self,
        (from, to): (RackId, RackId),
        req_id: ReqId,
        vm: VmId,
        dest: HostId,
        lease: u64,
        epoch: u64,
    ) {
        if self.fenced((from, to), req_id, epoch) {
            return;
        }
        let Some(ep) = self.endpoints.get_mut(to.index()) else {
            return;
        };
        let hits_before = ep.dedup_hits();
        let journalled_before = ep.journal().len();
        let reply = ep.handle_prepare(
            &mut self.cluster.placement,
            &self.cluster.deps,
            req_id,
            vm,
            dest,
            lease,
            epoch,
        );
        if ep.journal().len() > journalled_before {
            self.report.txn_prepared += 1;
            emit(self.sink, || Event::TxnPrepared {
                req: req_id.0,
                vm: vm.index() as u64,
                dest_host: dest.index() as u64,
            });
            self.sink.counter("txn.prepared", 1);
        }
        if ep.dedup_hits() > hits_before {
            emit(self.sink, || Event::DuplicateAbsorbed { req: req_id.0 });
        }
        let my_epoch = self.failover.view_of(to);
        self.net.send(
            self.t,
            to,
            from,
            ShimEndpoint::reply_2pc_msg(req_id, reply, my_epoch),
        );
    }

    /// A PREPARE-OK reaches source shim `to`: the vote is in, so the
    /// transaction will commit and the batch made progress. A late vote
    /// for a zombie resolves it — the destination is alive and holds the
    /// prepare, so the commit is driven home instead of letting the
    /// lease strand it. A duplicate vote for a committing txn is
    /// ignored.
    fn on_prepare_ok(&mut self, to: RackId, req_id: ReqId) {
        let t = self.t;
        let Some(shim) = self
            .source_index
            .get(&to)
            .and_then(|&i| self.shims.get_mut(i))
        else {
            return;
        };
        if let Some(o) = shim.zombies.remove(&req_id) {
            shim.liveness
                .observe(self.cluster.placement.rack_of_host(o.dest), t);
            shim.outstanding.insert(req_id, o);
        } else if !shim
            .outstanding
            .get(&req_id)
            .is_some_and(|o| o.phase == TxnPhase::Preparing)
        {
            return;
        }
        let Some(o) = shim.outstanding.get_mut(&req_id) else {
            return;
        };
        o.phase = TxnPhase::Committing;
        o.attempt = 0;
        o.deadline = t + self.cfg.backoff.delay(0, req_id);
        shim.progressed = true;
        let dest_rack = self.cluster.placement.rack_of_host(o.dest);
        let epoch = self.failover.view_of(shim.st.rack);
        self.net.send(
            t,
            shim.st.rack,
            dest_rack,
            ShimMsg::Commit { req_id, epoch },
        );
    }

    /// A COMMIT reaches endpoint `to`. With the transfer model on, a
    /// prepared, current-epoch commit starts the pre-copy and the ACK
    /// waits for its completion; otherwise the journal commits now.
    fn on_commit(&mut self, (from, to): (RackId, RackId), req_id: ReqId, epoch: u64) {
        if self.fenced((from, to), req_id, epoch) {
            return;
        }
        let Some(ep) = self.endpoints.get_mut(to.index()) else {
            return;
        };
        let prepared = ep
            .journal()
            .get(req_id)
            .filter(|r| r.state == TxnState::Prepared)
            .map(|r| (r.vm, r.epoch));
        // journal-level epoch fence first, mirroring handle_commit: a
        // stale COMMIT falls through to the normal reject path below
        if prepared.is_some_and(|(_, e)| epoch >= e) && self.transfers.is_some() {
            self.start_transfer((from, to), req_id, epoch);
            return;
        }
        let reply = ep.handle_commit(req_id, epoch);
        if let (Some((vm, _)), TwoPhaseReply::Ack) = (prepared, reply) {
            self.txn_committed(req_id, vm);
        }
        let my_epoch = self.failover.view_of(to);
        self.net.send(
            self.t,
            to,
            from,
            ShimEndpoint::reply_2pc_msg(req_id, reply, my_epoch),
        );
    }

    /// Hand a committed migration to the transfer scheduler. The journal
    /// entry stays Prepared under an extended lease until the last byte
    /// lands, so the periodic sweep cannot abort it. A duplicate COMMIT
    /// while the pre-copy streams changes nothing: the ACK flows at
    /// completion.
    fn start_transfer(&mut self, (from, to): (RackId, RackId), req_id: ReqId, epoch: u64) {
        if self.transfer_meta.contains_key(&req_id) {
            return;
        }
        let (Some(ts), Some(ep)) = (self.transfers.as_mut(), self.endpoints.get_mut(to.index()))
        else {
            return;
        };
        let Some((vm, src_host, dst_host)) = ep.journal().get(req_id).map(|r| (r.vm, r.src, r.dst))
        else {
            return;
        };
        ep.extend_lease(req_id, u64::MAX);
        let placement = &self.cluster.placement;
        let bytes = placement.spec(vm).capacity * ts.config().bytes_per_capacity;
        let src_rack = placement.rack_of_host(src_host);
        let dst_rack = placement.rack_of_host(dst_host);
        let candidates = if src_rack == dst_rack {
            Vec::new()
        } else {
            sheriff_transfer::route_candidates(
                &self.cluster.dcn.graph,
                self.cluster.dcn.rack_node(src_rack),
                self.cluster.dcn.rack_node(dst_rack),
                ts.config().k_paths,
            )
        };
        let spec = sheriff_transfer::TransferSpec {
            id: req_id.0,
            vm: vm.index() as u64,
            dst_rack: to.index(),
            bytes,
        };
        let meta = TransferMeta {
            vm,
            src_rack: from,
            dst_rack: to,
            epoch,
        };
        self.transfer_meta.insert(req_id, meta);
        match ts.submit(self.t, spec, candidates) {
            sheriff_transfer::Admission::Started(s) => self.transfer_started(&s),
            sheriff_transfer::Admission::Queued => self.sink.counter("transfer.queued", 1),
        }
    }

    /// A best-effort ABORT reaches endpoint `to`; fire-and-forget, the
    /// source already walked away. A stale-epoch ABORT is fenced like
    /// any other 2PC mutation; the prepare it targeted drains via its
    /// lease instead.
    fn on_abort(&mut self, link: (RackId, RackId), req_id: ReqId, epoch: u64) {
        if self.fenced(link, req_id, epoch) {
            return;
        }
        // a pre-copy in flight means the COMMIT was already accepted
        // here: the transaction's fate is sealed, and this is only the
        // source's give-up ABORT racing the slow transfer. 2PC forbids
        // rolling back past COMMIT — let the stream finish; ground truth
        // settles the move at the source.
        if self.transfer_meta.contains_key(&req_id) {
            self.sink.counter("transfer.abort_ignored", 1);
            return;
        }
        self.abort_at(link.1, req_id);
    }

    /// An ACK reaches source shim `to`. A late ACK for a given-up
    /// request still means the destination committed: record it. Only
    /// the zombie case counts as batch progress — for a live transaction
    /// the PREPARE-OK already did. A duplicate ACK is ignored.
    fn on_ack(&mut self, to: RackId, req_id: ReqId) {
        let Some(shim) = self
            .source_index
            .get(&to)
            .and_then(|&i| self.shims.get_mut(i))
        else {
            return;
        };
        let was_zombie = shim.zombies.contains_key(&req_id);
        let Some(o) = shim
            .outstanding
            .remove(&req_id)
            .or_else(|| shim.zombies.remove(&req_id))
        else {
            return;
        };
        emit(self.sink, || Event::AckReceived {
            req: req_id.0,
            vm: o.vm.index() as u64,
        });
        shim.commit(&o, self.sink);
        if was_zombie {
            shim.progressed = true;
        }
    }

    /// A REJECT reaches source shim `to`. A `StaleEpoch` reason means a
    /// neighbor took over while we were away: adopt the current term so
    /// the replan goes out under it.
    fn on_reject(&mut self, to: RackId, req_id: ReqId, reason: RejectReason, epoch: u64) {
        let Some(&i) = self.source_index.get(&to) else {
            return;
        };
        let stale = reason == RejectReason::StaleEpoch;
        if stale {
            self.failover.adopt(to, epoch);
        }
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        if let Some(o) = shim.outstanding.remove(&req_id) {
            shim.requeue(req_id, o.vm, reason, self.sink);
            if stale {
                // the pairing was fine — only the term was stale;
                // replan without excluding it
                shim.gave_up = true;
            } else {
                shim.st.excluded.insert((o.vm, o.dest));
            }
        } else if let Some(o) = shim.zombies.remove(&req_id) {
            // a late REJECT resolves the zombie: the VM definitively did
            // not move, so it is safe to replan it elsewhere
            shim.requeue(req_id, o.vm, reason, self.sink);
            shim.gave_up = true;
        }
    }

    /// Transfer progress: harvest pre-copies that streamed their last
    /// byte and admit queued transfers into freed slots. Runs after
    /// deliveries so a COMMIT landing this tick is already submitted,
    /// and before lease expiry so a completing commit at the cap tick
    /// beats the sweep, mirroring the delivery rule.
    fn poll_transfers(&mut self) {
        let Some(ts) = self.transfers.as_mut() else {
            return;
        };
        let tick = ts.poll(self.t);
        for s in &tick.started {
            self.transfer_started(s);
        }
        for r in &tick.rerouted {
            self.transfer_rerouted(r.id, r.vm, r.hops);
        }
        for r in &tick.retried {
            emit(self.sink, || Event::TransferRetried {
                req: r.id,
                vm: r.vm,
                attempt: r.attempt as u64,
            });
            self.sink.counter("transfer.retried", 1);
        }
        for r in &tick.resumed {
            self.transfer_resumed(r);
        }
        for f in &tick.failed {
            self.on_transfer_failed(f);
        }
        for c in &tick.completions {
            self.on_transfer_completed(c);
        }
    }

    /// A transfer's retry budget is exhausted: escalate to a clean 2PC
    /// abort through the journal, and tell the source the migration
    /// expired so it can replan the VM.
    fn on_transfer_failed(&mut self, f: &sheriff_transfer::Failed) {
        self.transfer_failed(f.id, f.vm, f.attempts as u64);
        let req_id = ReqId(f.id);
        let Some(meta) = self.transfer_meta.remove(&req_id) else {
            return;
        };
        self.abort_at(meta.dst_rack, req_id);
        let reject = ShimMsg::Reject {
            req_id,
            reason: RejectReason::Expired,
            epoch: self.failover.view_of(meta.dst_rack),
        };
        self.net.send(self.t, meta.dst_rack, meta.src_rack, reject);
    }

    /// A pre-copy landed: finalize the deferred commit under the epoch
    /// the COMMIT originally carried — fencing still applies if the
    /// destination's term moved on mid-transfer — and ACK the source.
    fn on_transfer_completed(&mut self, c: &sheriff_transfer::Completion) {
        let req_id = ReqId(c.id);
        let Some(meta) = self.transfer_meta.remove(&req_id) else {
            return;
        };
        let Some(ep) = self.endpoints.get_mut(meta.dst_rack.index()) else {
            return;
        };
        let was_prepared = ep.journal().state(req_id) == Some(TxnState::Prepared);
        let reply = ep.handle_commit(req_id, meta.epoch);
        if was_prepared && reply == TwoPhaseReply::Ack {
            self.txn_committed(req_id, meta.vm);
        }
        emit(self.sink, || Event::TransferCompleted {
            req: c.id,
            vm: c.vm,
            ticks: c.duration,
            bandwidth: c.achieved_bw,
        });
        self.sink.counter("transfer.completed", 1);
        self.report.transfers_completed += 1;
        self.report.transfer_durations.push(c.duration);
        let my_epoch = self.failover.view_of(meta.dst_rack);
        self.net.send(
            self.t,
            meta.dst_rack,
            meta.src_rack,
            ShimEndpoint::reply_2pc_msg(req_id, reply, my_epoch),
        );
    }

    /// Transfer-plane invariants, probed at every activation: no
    /// streaming pre-copy may traverse a failed link, and every active
    /// transfer must still hold its Prepared journal entry at the
    /// destination. Each breach is flagged once.
    fn audit_transfers(&mut self) {
        let Some(ts) = self.transfers.as_ref() else {
            return;
        };
        for (id, link) in ts.streaming_on_failed_links() {
            if self.flagged_on_failed.insert((id, link)) {
                self.transfer_audit
                    .violations
                    .push(AuditViolation::TransferOnFailedLink { req: id, link });
            }
        }
        for id in ts.active_ids() {
            let req_id = ReqId(id);
            let prepared = self.transfer_meta.get(&req_id).is_some_and(|m| {
                self.endpoints
                    .get(m.dst_rack.index())
                    .is_some_and(|ep| ep.journal().state(req_id) == Some(TxnState::Prepared))
            });
            if !prepared && self.flagged_no_prepare.insert(id) {
                self.transfer_audit
                    .violations
                    .push(AuditViolation::TransferWithoutPrepare { req: id });
            }
        }
    }

    /// Lease expiry: endpoints abort prepares whose COMMIT never arrived
    /// by `until` (a commit delivered this same tick wins — deliveries
    /// run first). With `live_only`, crashed endpoints are skipped: they
    /// expire theirs during journal replay on recovery instead. The
    /// earliest pending lease always has a Lease wake.
    fn expire_leases(&mut self, until: u64, live_only: bool) {
        for r in 0..self.endpoints.len() {
            if live_only && self.down.contains(&RackId::from_index(r)) {
                continue;
            }
            let Some(ep) = self.endpoints.get_mut(r) else {
                continue;
            };
            for (req, vm) in
                ep.expire_leases(&mut self.cluster.placement, &self.cluster.deps, until)
            {
                self.txn_aborted(req, vm);
            }
        }
    }

    /// Source-shim actions, in rack order for determinism. Hosts
    /// absorbing an in-flight pre-copy (PREPARE reserved the VM there,
    /// so `host_of` points at the destination while the stream runs)
    /// take no additional arrivals this window: Eqn. 1 prices moves
    /// independently, which only holds across distinct moves.
    fn step_shims(&mut self) {
        let hot_hosts: BTreeSet<HostId> = self
            .transfers
            .as_ref()
            .map(|ts| {
                let placement = &self.cluster.placement;
                ts.in_flight_vms()
                    .into_iter()
                    .map(|v| VmId::from_index(v as usize))
                    .filter(|vm| vm.index() < placement.vm_count())
                    .map(|vm| placement.host_of(vm))
                    .collect()
            })
            .unwrap_or_default();
        for i in 0..self.shims.len() {
            self.step_shim(i, &hot_hosts);
        }
    }

    /// One shim's turn: start planning once its gate opens, or expire
    /// deadlines and zombies and then replan or finish.
    fn step_shim(&mut self, i: usize, hot_hosts: &BTreeSet<HostId>) {
        let t = self.t;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        if shim.done || self.down.contains(&shim.st.rack) {
            return;
        }
        if !shim.started {
            if t >= self.cfg.hello_window && t >= shim.resume_at {
                if shim.rounds_left > 0 {
                    shim.started = true;
                    self.plan_and_send(i, hot_hosts);
                } else if shim.zombies.is_empty() {
                    shim.done = true;
                } else {
                    // out of planning rounds but still owed verdicts
                    shim.started = true;
                }
            }
            return;
        }
        self.expire_requests(i);
        self.expire_zombies(i);
        // batch resolved once every PREPARE has its vote: replan while
        // the commits drain (their placement effect is already visible),
        // or finish when truly idle
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        if shim
            .outstanding
            .values()
            .any(|o| o.phase == TxnPhase::Preparing)
        {
            return;
        }
        if !shim.st.pending.is_empty() && shim.rounds_left > 0 && (shim.progressed || shim.gave_up)
        {
            self.plan_and_send(i, hot_hosts);
        } else if shim.outstanding.is_empty() && shim.zombies.is_empty() {
            shim.done = true;
        }
    }

    /// Expire shim `i`'s request deadlines: retransmit with backoff, then
    /// give up and presume the destination dead — but a stale copy of
    /// the request may still commit there, so the VM's fate is unknown.
    /// It is parked as a zombie that keeps listening for a late verdict
    /// within the patience window; a VM of unknown fate is never
    /// replanned.
    fn expire_requests(&mut self, i: usize) {
        let t = self.t;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        let expired: Vec<ReqId> = shim
            .outstanding
            .iter()
            .filter(|(_, o)| o.deadline <= t)
            .map(|(&id, _)| id)
            .collect();
        for req_id in expired {
            self.report.timeouts += 1;
            let Some(o) = shim.outstanding.get_mut(&req_id) else {
                continue;
            };
            emit(self.sink, || Event::RequestTimeout {
                req: req_id.0,
                attempt: o.attempt as u64 + 1,
            });
            self.sink.counter("net.timeouts", 1);
            if o.attempt + 1 < self.cfg.backoff.max_attempts {
                o.attempt += 1;
                o.deadline = t + self.cfg.backoff.delay(o.attempt, req_id);
                self.report.resends += 1;
                emit(self.sink, || Event::RequestResent {
                    req: req_id.0,
                    attempt: o.attempt as u64 + 1,
                });
                self.sink.counter("net.resends", 1);
                let epoch = self.failover.view_of(shim.st.rack);
                let msg = match o.phase {
                    TxnPhase::Preparing => ShimMsg::Prepare {
                        req_id,
                        vm: o.vm,
                        dest: o.dest,
                        lease: o.lease,
                        epoch,
                    },
                    TxnPhase::Committing => ShimMsg::Commit { req_id, epoch },
                };
                let dest_rack = self.cluster.placement.rack_of_host(o.dest);
                self.net.send(t, shim.st.rack, dest_rack, msg);
            } else if let Some(mut o) = shim.outstanding.remove(&req_id) {
                shim.liveness
                    .presume_dead(self.cluster.placement.rack_of_host(o.dest));
                shim.degrade(self.sink);
                shim.st.excluded.insert((o.vm, o.dest));
                o.deadline = t + self.patience;
                shim.zombies.insert(req_id, o);
            }
        }
    }

    /// Zombies of shim `i` past their patience window stay unresolved;
    /// the report assembly settles them against ground truth. A
    /// best-effort ABORT lets the destination release a prepare early
    /// instead of waiting out its lease.
    fn expire_zombies(&mut self, i: usize) {
        let t = self.t;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        let expired: Vec<ReqId> = shim
            .zombies
            .iter()
            .filter(|(_, o)| o.deadline <= t)
            .map(|(&id, _)| id)
            .collect();
        for req_id in expired {
            let Some(o) = shim.zombies.remove(&req_id) else {
                continue;
            };
            let dest_rack = self.cluster.placement.rack_of_host(o.dest);
            let epoch = self.failover.view_of(shim.st.rack);
            self.net
                .send(t, shim.st.rack, dest_rack, ShimMsg::Abort { req_id, epoch });
            shim.unresolved.push(o);
        }
    }

    /// One planning round for shim `i`: rebuild the slot list from live
    /// racks (degradation ladder step 1; the own rack is always kept —
    /// step 2), run the matching, and send a PREPARE per assignment.
    fn plan_and_send(&mut self, i: usize, hot_hosts: &BTreeSet<HostId>) {
        let now = self.t;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        shim.rounds_left -= 1;
        shim.progressed = false;
        shim.gave_up = false;

        let live_region: Vec<RackId> = shim
            .region
            .iter()
            .copied()
            .filter(|&r| shim.liveness.alive(r, now))
            .collect();
        // an active partition cuts part of the region off *right now*:
        // plan around it immediately (degraded local handling, own rack
        // always kept) instead of waiting for the liveness deadline to
        // notice
        let reachable: Vec<RackId> = live_region
            .iter()
            .copied()
            .filter(|&r| !self.net.cut(now, shim.st.rack, r))
            .collect();
        // degraded-mode accounting keys off the ground-truth cut over the
        // whole region: liveness may have aged the far side out already
        // (its beacons stopped arriving the moment the cut opened), but
        // the shim is still planning around a partition, not a crash
        let cut_off = shim
            .region
            .iter()
            .any(|&r| self.net.cut(now, shim.st.rack, r));
        if cut_off && !shim.part_degraded {
            shim.part_degraded = true;
            self.report.partition_degraded += 1;
            self.sink.counter("region.partition_degraded", 1);
        }
        if reachable.len() < shim.region.len() {
            shim.degrade(self.sink);
        }
        shim.st.slots = region_slots(&self.cluster.dcn.inventory, &reachable, shim.st.rack);

        let pending = std::mem::take(&mut shim.st.pending);
        let (rows, space) = plan_proposals(
            &self.cluster.placement,
            &self.cluster.deps,
            self.metric,
            &self.cluster.sim,
            &pending,
            &shim.st.slots,
            &shim.st.excluded,
            hot_hosts,
        );
        shim.st.plan.search_space += space;
        shim.st.pending = unassigned(&pending, &rows);
        emit(self.sink, || Event::PlanComputed {
            rack: shim.st.rack.index() as u64,
            proposals: (rows.len() - shim.st.pending.len()) as u64,
            unassigned: shim.st.pending.len() as u64,
            search_space: space as u64,
        });

        for p in rows.into_iter().flatten() {
            let req_id = ReqId::new(shim.st.rack, shim.st.seq);
            shim.st.seq += 1;
            emit(self.sink, || Event::RequestSent {
                req: req_id.0,
                vm: p.vm.index() as u64,
                dest_host: p.dest.index() as u64,
                attempt: 1,
            });
            let from = self.cluster.placement.host_of(p.vm);
            let dest_rack = self.cluster.placement.rack_of_host(p.dest);
            let lease = now + self.cfg.prepare_lease;
            shim.outstanding.insert(
                req_id,
                Outstanding {
                    vm: p.vm,
                    from,
                    dest: p.dest,
                    cost: p.cost,
                    attempt: 0,
                    deadline: now + self.cfg.backoff.delay(0, req_id),
                    phase: TxnPhase::Preparing,
                    lease,
                },
            );
            let prepare = ShimMsg::Prepare {
                req_id,
                vm: p.vm,
                dest: p.dest,
                lease,
                epoch: self.failover.view_of(shim.st.rack),
            };
            self.net.send(now, shim.st.rack, dest_rack, prepare);
        }
    }

    // ---- termination, derived wakes, settlement -------------------------

    /// The round ends when every source shim settled; a crashed shim
    /// only holds the round open while a recovery is still scheduled,
    /// and a scheduled heal holds it open while any parked shim still
    /// has work the heal would wake it for. Every predicate flip lands
    /// on an activated tick (Recover and Heal are events; a partition
    /// *start* only delays settlement), so checking at activations only
    /// is exact.
    fn settled(&self) -> bool {
        let t = self.t;
        let recovers = |rack: RackId| {
            self.schedule
                .iter()
                .any(|w| w.rack == rack && w.recover_at.is_some_and(|r| r > t))
        };
        let heal_pending = self
            .cfg
            .partitions
            .iter()
            .any(|p| p.start_at <= t && p.heal_at.is_some_and(|h| h > t));
        let parked =
            |s: &FabricShim| s.done && !self.down.contains(&s.st.rack) && !s.st.pending.is_empty();
        self.shims
            .iter()
            .all(|s| s.done || (self.down.contains(&s.st.rack) && !recovers(s.st.rack)))
            && !(heal_pending && self.shims.iter().any(parked))
            // a streaming or queued pre-copy holds the round open: its
            // completion still has a commit, an ACK and a Move to land
            && self.transfers.as_ref().is_none_or(|ts| ts.is_idle())
    }

    /// Derived activations: make sure every tick at which any phase has
    /// due work is on the agenda (the activation-time superset
    /// invariant). All of these recompute each activation; the agenda
    /// dedupes repeats.
    fn schedule_wakes(&mut self) {
        let t = self.t;
        if let Some(d) = self.net.next_delivery() {
            self.agenda.wake(d.max(t + 1), WakeReason::Delivery);
        }
        let clock = self.failover.clock;
        if let Some(abs) = self.failover.detector.next_transition_after(clock + t) {
            let local = abs.saturating_sub(clock);
            self.agenda.wake(local.max(t + 1), WakeReason::Detector);
        }
        let next_lease = self
            .endpoints
            .iter()
            .enumerate()
            .filter(|(r, _)| !self.down.contains(&RackId::from_index(*r)))
            .filter_map(|(_, e)| e.next_lease())
            .min();
        if let Some(l) = next_lease {
            self.agenda.wake(l.max(t + 1), WakeReason::Lease);
        }
        if let Some(ts) = self.transfers.as_ref() {
            if let Some(done_at) = ts.next_event_time() {
                self.agenda.wake(done_at.max(t + 1), WakeReason::Transfer);
            } else if !ts.is_idle() {
                // nothing running but transfers are queued (e.g. the
                // running set was just cancelled): poll next tick so
                // admission can promote them
                self.agenda.wake(t + 1, WakeReason::Transfer);
            }
        }
        for shim in &self.shims {
            if shim.done || shim.started || self.down.contains(&shim.st.rack) {
                continue;
            }
            let gate = self.cfg.hello_window.max(shim.resume_at).max(t + 1);
            self.agenda.wake(gate, WakeReason::ShimStart);
        }
        let next_deadline = self
            .shims
            .iter()
            .filter(|s| !s.done && !self.down.contains(&s.st.rack))
            .flat_map(|s| {
                s.outstanding
                    .values()
                    .chain(s.zombies.values())
                    .map(|o| o.deadline)
            })
            .min();
        if let Some(d) = next_deadline {
            self.agenda.wake_timeout(d.max(t + 1));
        }
    }

    /// Close the round: abort every prepare still open, audit, settle
    /// unknown fates against ground truth, and assemble the report.
    fn finish(mut self) -> RoundOutcome {
        // no transaction outlives the round: sweep every journal and
        // abort whatever is still `Prepared` (sources that walked away,
        // schedules that never recovered, the tick cap). Must happen
        // before the ground-truth settlement below so a half-done
        // prepare can't be mistaken for a committed move.
        self.expire_leases(u64::MAX, false);

        // no VM may be managed by two shims at once: across takeovers,
        // partitions, and heals the pending / in-flight / unknown-fate
        // sets of different shims must stay disjoint (audited before
        // settlement collapses them against ground truth)
        let manager_audit = audit_managers(
            self.shims
                .iter()
                .map(|s| (s.st.rack, s.managed().collect::<Vec<_>>())),
        );

        // settle unknown fates against ground truth: the simulator
        // (unlike the shims) can see whether an unacknowledged request
        // actually committed at its destination. Requests cut off by the
        // tick cap are settled the same way.
        let placement = &self.cluster.placement;
        for shim in &mut self.shims {
            let leftovers: Vec<Outstanding> = shim
                .unresolved
                .drain(..)
                .chain(std::mem::take(&mut shim.outstanding).into_values())
                .chain(std::mem::take(&mut shim.zombies).into_values())
                .collect();
            for o in leftovers {
                if placement.host_of(o.vm) == o.dest {
                    shim.commit(&o, self.sink);
                } else {
                    emit(self.sink, || Event::MigrationFailed {
                        vm: o.vm.index() as u64,
                        rack: shim.st.rack.index() as u64,
                    });
                    self.sink.counter("migrations.failed", 1);
                    shim.st.pending.push(o.vm);
                }
            }
        }

        let cfg = self.cfg;
        let sink = self.sink;
        let net = &self.net;
        let mut report = self.report;
        report.ticks = self.t.min(cfg.max_ticks);
        // the detector's clock spans rounds: silence keeps accruing
        // across round boundaries, so a crashed shim is eventually
        // declared Dead even when every individual round is short
        self.failover.clock += report.ticks + 1;
        report.drops = net.stats.dropped;
        report.dedup_hits = self.endpoints.iter().map(|e| e.dedup_hits()).sum();
        report.transfer_p95_completion = p95_ticks(&report.transfer_durations);
        if let Some(ts) = &self.transfers {
            report.transfer_reroutes = ts.reroutes();
            report.transfer_queue_delays = ts.queue_delays();
            report.transfer_peak_sharing = ts.peak_link_sharing();
            report.transfer_stalls = ts.stalls();
            report.transfer_retries = ts.retries();
            report.transfer_failures = ts.failures() + self.rack_failed_transfers;
            report.resumed_bytes_saved = ts.resumed_bytes_saved();
            // stall-duration distribution: total ticks spent stalled (the
            // per-bucket shape stays queryable on the scheduler's
            // histogram)
            let hist = ts.stall_histogram();
            if hist.count() > 0 {
                sink.counter("transfer.stalled_ticks", hist.sum() as u64);
            }
        }
        sink.counter("net.sent", net.stats.sent as u64);
        sink.counter("net.delivered", net.stats.delivered as u64);
        sink.counter("net.dropped", net.stats.dropped as u64);
        sink.counter("net.duplicated", net.stats.duplicated as u64);
        sink.counter("net.reordered", net.stats.reordered as u64);
        sink.counter("net.blackholed", net.stats.blackholed as u64);
        sink.counter("net.partitioned", net.stats.partitioned as u64);
        sink.counter("net.dedup_hits", report.dedup_hits as u64);
        for shim in self.shims {
            let mut plan = shim.st.plan;
            let mut pending = shim.st.pending;
            pending.sort_unstable();
            pending.dedup();
            plan.unplaced.extend(pending);
            report.plan.absorb(plan);
            report.retries += shim.st.retries;
            if shim.degraded {
                report.degraded_shims += 1;
            }
        }
        let placement = &self.cluster.placement;
        report.audit = audit_placement(placement, &self.cluster.deps);
        report.audit.merge(manager_audit);
        report.audit.merge(self.transfer_audit);
        report.audit.merge(audit_moves(
            placement,
            report.plan.moves.iter().map(|m| (m.vm, m.to)),
        ));
        report.audit.merge(audit_journals(
            placement,
            self.endpoints.iter().map(|e| e.journal()),
        ));
        report
    }
}

/// Nearest-rank p95 over a set of transfer durations, 0.0 when empty.
fn p95_ticks(durations: &[u64]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * 0.95).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted.len() - 1);
    sorted.get(idx).copied().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistributedRuntime, FabricRuntime, Runtime};
    use dcn_sim::engine::ClusterConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::{NullSink, RingRecorder};

    /// One round of `rt` through [`Runtime::step`].
    fn step(
        rt: &mut dyn Runtime,
        c: &mut Cluster,
        metric: &RackMetric,
        alerts: &[Alert],
        vals: &[f64],
        sink: &mut dyn EventSink,
    ) -> RoundOutcome {
        rt.step(&mut RunCtx {
            cluster: c,
            metric,
            alerts,
            alert_values: vals,
            sink,
        })
    }

    /// One round of a fresh fabric runtime for `cfg`.
    fn round(
        c: &mut Cluster,
        metric: &RackMetric,
        alerts: &[Alert],
        vals: &[f64],
        cfg: &FabricConfig,
        sink: &mut dyn EventSink,
    ) -> RoundOutcome {
        let mut rt = FabricRuntime::with_config(cfg.clone());
        step(&mut rt, c, metric, alerts, vals, sink)
    }

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
    fn reliable_fabric_reproduces_threaded_plan_exactly() {
        let mut threaded = cluster(26);
        let mut fabric = cluster(26);
        let metric = RackMetric::build(&threaded.dcn, &threaded.sim);
        let alerts = threaded.fraction_alerts(0.10, 0);
        let vals = alert_values(&threaded);

        let cfg = FabricConfig::default();
        assert!(cfg.faults.is_reliable());
        let mut threaded_rt = DistributedRuntime {
            max_retry: cfg.max_retry,
        };
        let mut fabric_rt = FabricRuntime::with_config(cfg);
        let rt = step(
            &mut threaded_rt,
            &mut threaded,
            &metric,
            &alerts,
            &vals,
            &mut NullSink,
        );
        let rf = step(
            &mut fabric_rt,
            &mut fabric,
            &metric,
            &alerts,
            &vals,
            &mut NullSink,
        );

        assert_eq!(rt.plan.moves.len(), rf.plan.moves.len());
        for (a, b) in rt.plan.moves.iter().zip(&rf.plan.moves) {
            assert_eq!((a.vm, a.from, a.to), (b.vm, b.from, b.to));
            assert!((a.cost - b.cost).abs() < 1e-12);
        }
        assert!((rt.plan.total_cost - rf.plan.total_cost).abs() < 1e-9);
        assert_eq!(rt.plan.rejected, rf.plan.rejected);
        assert_eq!(rt.plan.unplaced, rf.plan.unplaced);
        for vm in threaded.placement.vm_ids() {
            assert_eq!(threaded.placement.host_of(vm), fabric.placement.host_of(vm));
        }
        // a perfect channel exercises none of the robustness machinery
        assert_eq!(rf.drops, 0);
        assert_eq!(rf.timeouts, 0);
        assert_eq!(rf.resends, 0);
        assert_eq!(rf.dedup_hits, 0);
        assert_eq!(rf.degraded_shims, 0);
        assert!(!rt.plan.moves.is_empty(), "vacuous equivalence");
        // every move travelled the full PREPARE -> COMMIT -> ACK path and
        // nothing was left half-done
        assert_eq!(rf.txn_committed, rf.plan.moves.len());
        assert_eq!(rf.txn_aborted, 0);
        assert_eq!(rf.recoveries, 0);
        assert!(rf.audit.is_clean(), "{}", rf.audit);
        assert!(rt.audit.is_clean(), "{}", rt.audit);
    }

    #[test]
    fn lossy_fabric_with_crash_completes_and_degrades_gracefully() {
        let mut c = cluster(27);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        // crash the shim of the first alerted rack: its own alert goes
        // unserved and every other shim must route around it
        let crashed = alerts[0].rack;
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop: 0.10,
                ..ChannelFaults::lossy(0.10)
            },
            seed: 99,
            crashed: vec![CrashWindow::whole_round(crashed)],
            ..FabricConfig::default()
        };
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);

        assert!(
            report.ticks < cfg.max_ticks,
            "round wedged until the tick cap"
        );
        assert!(
            !report.plan.moves.is_empty(),
            "lossy fabric still made progress"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        assert_eq!(report.crashed_shims, 1);
        assert!(report.drops > 0, "10% loss must drop something");
        assert!(report.timeouts > 0, "drops must surface as timeouts");
        assert!(report.resends > 0, "timeouts must trigger retransmissions");
        assert!(
            report.degraded_shims > 0,
            "crash must degrade someone's region"
        );
    }

    #[test]
    fn duplicated_requests_never_double_apply() {
        let mut c = cluster(28);
        let initial = c.placement.clone();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let cfg = FabricConfig {
            faults: ChannelFaults {
                duplicate: 0.5,
                ..ChannelFaults::reliable()
            },
            seed: 5,
            ..FabricConfig::default()
        };
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);
        assert!(
            report.dedup_hits > 0,
            "50% duplication must hit the dedup log"
        );
        // chaining the recorded moves from the initial placement lands
        // exactly on the final placement: every ACKed move applied once
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
        assert_capacity_ok(&c);
    }

    #[test]
    fn fabric_with_all_shims_crashed_is_a_noop() {
        let mut c = cluster(29);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.05, 0);
        let vals = alert_values(&c);
        let before = c.utilization_stddev();
        let crashed: Vec<RackId> = {
            let mut r: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        let cfg = FabricConfig {
            crashed: crashed
                .iter()
                .copied()
                .map(CrashWindow::whole_round)
                .collect(),
            ..FabricConfig::default()
        };
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);
        assert_eq!(report.shims, 0);
        assert_eq!(report.crashed_shims, crashed.len());
        assert!(report.plan.moves.is_empty());
        assert_eq!(c.utilization_stddev(), before);
    }

    #[test]
    fn mid_round_source_crash_recovers_and_audits_clean() {
        let mut c = cluster(31);
        let initial = c.placement.clone();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        // kill an alerted source shim between its PREPARE burst (applied
        // at t = 3 on the destinations) and the COMMIT phase, then
        // recover it: the orphaned prepares must lease-abort cleanly and
        // the recovered shim rejoins planning
        let victim = alerts[0].rack;
        let cfg = FabricConfig {
            crashed: vec![CrashWindow::during(victim, 4, 12)],
            ..FabricConfig::default()
        };
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);

        assert!(report.ticks < cfg.max_ticks, "round wedged");
        assert_eq!(report.recoveries, 1);
        assert_eq!(
            report.crashed_shims, 0,
            "a recovering shim is not written off"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        // exactly-once despite the crash: replaying the recorded moves
        // from the initial placement reproduces the final one
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }

    #[test]
    fn mid_round_source_crash_settles_without_zombie_txns() {
        let mut c = cluster(32);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        // kill an alerted source shim right after its PREPAREs land and
        // never bring it back: its prepares must lease-abort or settle,
        // never stay half-done
        let victim = alerts[0].rack;
        let cfg = FabricConfig {
            crashed: vec![CrashWindow {
                rack: victim,
                crash_at: 4,
                recover_at: None,
            }],
            ..FabricConfig::default()
        };
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);
        assert!(report.ticks < cfg.max_ticks, "round wedged");
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn sustained_crash_takeover_then_zombie_is_fenced() {
        let mut c = cluster(33);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let victim = alerts[0].rack;
        let mut rt = FabricRuntime {
            cfg: FabricConfig {
                crashed: vec![CrashWindow::whole_round(victim)],
                ..FabricConfig::default()
            },
            failover: RegionFailover::default(),
        };
        // the victim stays dark across rounds: the detector walks it to
        // Dead and exactly one takeover (epoch bump) follows, however
        // many further rounds it stays dead
        let mut takeovers = 0;
        for _ in 0..6 {
            let vals = alert_values(&c);
            let r = step(&mut rt, &mut c, &metric, &alerts, &vals, &mut NullSink);
            assert!(r.audit.is_clean(), "{}", r.audit);
            takeovers += r.takeovers;
        }
        assert_eq!(takeovers, 1, "one manager change, one epoch bump");
        assert_eq!(rt.failover.epoch_of(victim), 1);
        assert!(rt.failover.taken_over(victim));
        assert_eq!(
            rt.failover.view_of(victim),
            0,
            "the deposed shim never heard the bump"
        );

        // the shim returns: its first PREPARE burst still carries epoch
        // 0, gets fenced, and the reject teaches it the current epoch
        rt.cfg = FabricConfig::default();
        let vals = alert_values(&c);
        let r = step(&mut rt, &mut c, &metric, &alerts, &vals, &mut NullSink);
        assert!(r.fenced > 0, "zombie PREPAREs must be fenced");
        assert_eq!(rt.failover.view_of(victim), 1, "reject taught the epoch");
        assert!(
            !rt.failover.taken_over(victim),
            "beaconing again reinstates management"
        );
        assert!(r.audit.is_clean(), "{}", r.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn crash_recover_with_concurrent_takeover_never_double_manages() {
        let mut c = cluster(36);
        let initial = c.placement.clone();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let victim = alerts[0].rack;
        // an aggressive detector (dead after ~6 ticks of silence)
        // declares the crashed shim Dead mid-round; its unplanned work
        // moves to a successor under a bumped epoch, and the shim then
        // recovers into the takeover — the regression this guards is two
        // shims both claiming the victim's VMs
        let mut rt = FabricRuntime {
            cfg: FabricConfig {
                crashed: vec![CrashWindow::during(victim, 1, 20)],
                ..FabricConfig::default()
            },
            failover: RegionFailover::new(2, 4),
        };
        let report = step(&mut rt, &mut c, &metric, &alerts, &vals, &mut NullSink);
        assert!(report.ticks < rt.cfg.max_ticks, "round wedged");
        assert_eq!(report.takeovers, 1, "mid-round takeover must fire");
        assert_eq!(rt.failover.epoch_of(victim), 1);
        assert_eq!(report.recoveries, 1);
        // the manager audit (merged into report.audit) proves no VM was
        // pending/outstanding at two shims at once
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        // exactly-once despite crash + takeover: replaying the recorded
        // moves from the initial placement reproduces the final one
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }

    #[test]
    fn partition_degrades_minority_without_takeover_or_fencing() {
        let mut c = cluster(34);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let isolated = alerts[0].rack;
        let mut rt = FabricRuntime {
            cfg: FabricConfig {
                partitions: vec![PartitionWindow::new(vec![isolated], 0, Some(24))],
                ..FabricConfig::default()
            },
            failover: RegionFailover::default(),
        };
        let report = step(&mut rt, &mut c, &metric, &alerts, &vals, &mut NullSink);
        assert!(
            report.partition_degraded > 0,
            "the cut shim must notice its shrunken region"
        );
        // emission-based detection: a partitioned-but-alive shim keeps
        // beaconing, so the cut never looks like a crash
        assert_eq!(report.takeovers, 0, "a partition is not a crash");
        assert_eq!(report.fenced, 0, "no epoch bumped, nothing to fence");
        assert_eq!(report.crashed_shims, 0);
        for r in 0..c.dcn.rack_count() {
            assert_eq!(rt.failover.epoch_of(RackId::from_index(r)), 0);
        }
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn partitioned_lossy_fabric_is_deterministic() {
        let run = || {
            let mut c = cluster(35);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(0.10, 0);
            let vals = alert_values(&c);
            let mut rt = FabricRuntime {
                cfg: FabricConfig {
                    faults: ChannelFaults::lossy(0.05),
                    seed: 41,
                    partitions: vec![PartitionWindow::new(vec![alerts[0].rack], 2, Some(20))],
                    ..FabricConfig::default()
                },
                failover: RegionFailover::default(),
            };
            let report = step(&mut rt, &mut c, &metric, &alerts, &vals, &mut NullSink);
            let placement: Vec<HostId> = c
                .placement
                .vm_ids()
                .map(|vm| c.placement.host_of(vm))
                .collect();
            (report, placement)
        };
        let (r1, p1) = run();
        let (r2, p2) = run();
        assert_eq!(p1, p2, "same seed, same placement");
        assert!(!p1.is_empty());
        assert_eq!(r1.plan.moves.len(), r2.plan.moves.len());
        for (a, b) in r1.plan.moves.iter().zip(&r2.plan.moves) {
            assert_eq!((a.vm, a.from, a.to), (b.vm, b.from, b.to));
        }
        assert_eq!(
            (r1.drops, r1.resends, r1.ticks, r1.partition_degraded),
            (r2.drops, r2.resends, r2.ticks, r2.partition_degraded)
        );
        assert_eq!(r1.reconciliations, r2.reconciliations);
    }

    #[test]
    fn tighter_beacon_interval_detects_crash_before_recovery() {
        // Regression for heartbeat emission timing: beacons are scheduled
        // events at each rack's own interval, so watching one rack at a
        // tighter cadence shortens the adaptive detector's silence
        // thresholds for that rack alone and a mid-round crash is
        // declared before the shim recovers.
        //
        // The victim crashes mid-negotiation at t = 5 and recovers at
        // t = 20 under a detector with a dead floor of 6 ticks. On the
        // default 8-tick cadence only the t = 0 Hello lands before the
        // crash, the mean interval stays at the 8-tick hint, and Dead
        // needs max(6, 3·8) + 1 = 25 ticks of silence (t = 25) — the
        // post-recovery beacon at t = 24 resets the clock first, so no
        // death is ever declared. Beaconing the victim every 2 ticks
        // lands emissions at t = 0, 2, 4, driving the mean to 2: Dead
        // fires max(6, 3·2) + 1 = 7 ticks after the t = 4 emission,
        // i.e. t = 11, comfortably before recovery.
        let run = |tight: bool| {
            let mut c = cluster(26);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(0.10, 0);
            let vals = alert_values(&c);
            let victim = alerts[0].rack;
            let mut cfg = FabricConfig {
                crashed: vec![CrashWindow::during(victim, 5, 20)],
                ..FabricConfig::default()
            };
            if tight {
                cfg = cfg.with_beacon_interval(victim, 2);
            }
            let mut rt = FabricRuntime {
                cfg,
                failover: RegionFailover::new(8, 6),
            };
            let mut rec = RingRecorder::new(65536);
            let report = step(&mut rt, &mut c, &metric, &alerts, &vals, &mut rec);
            assert!(report.audit.is_clean(), "{}", report.audit);
            assert_eq!(report.recoveries, 1, "the victim must come back");
            (rec.count_kind("shim_declared_dead"), c)
        };
        let (slow_deaths, _) = run(false);
        assert_eq!(
            slow_deaths, 0,
            "default cadence cannot notice a 15-tick crash"
        );
        let (fast_deaths, c) = run(true);
        assert!(
            fast_deaths >= 1,
            "a 2-tick beacon interval must surface the crash before recovery"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn per_rack_alert_checks_fire_at_distinct_virtual_times() {
        // two alerted racks rescan for fresh pre-alerts at their own
        // intervals: within a single round their AlertCheckFired events
        // land at different virtual times — behavior a per-round phase
        // cannot express
        let mut c = cluster(37);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        assert!(racks.len() >= 2, "need two alerted racks");
        let (a, b) = (racks[0], racks[1]);
        let cfg = FabricConfig::default()
            .with_alert_check(a, 3)
            .with_alert_check(b, 5);
        let mut rec = RingRecorder::new(65536);
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut rec);
        let mut ticks_a: Vec<u64> = Vec::new();
        let mut ticks_b: Vec<u64> = Vec::new();
        for e in rec.to_vec() {
            if let Event::AlertCheckFired { rack, tick, .. } = e {
                if rack == a.index() as u64 {
                    ticks_a.push(tick);
                } else if rack == b.index() as u64 {
                    ticks_b.push(tick);
                }
            }
        }
        assert!(
            !ticks_a.is_empty() && !ticks_b.is_empty(),
            "both intervals must fire within the round (ticks={})",
            report.ticks
        );
        assert!(ticks_a.iter().all(|t| t % 3 == 0 && *t <= report.ticks));
        assert!(ticks_b.iter().all(|t| t % 5 == 0 && *t <= report.ticks));
        assert!(
            ticks_a.iter().any(|t| !ticks_b.contains(t)),
            "the two racks' checks must fire at distinct virtual times"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
    }

    #[test]
    fn alert_checks_adopt_fresh_victims_mid_round() {
        // a single rack re-scanning at a tight interval keeps adopting
        // whatever PRIORITY surfaces on the evolving placement; the
        // checks never double-adopt a VM the shim already manages, the
        // round still terminates, and every invariant audit stays clean
        let mut c = cluster(38);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let cfg = FabricConfig::default().with_alert_check(alerts[0].rack, 2);
        let mut rec = RingRecorder::new(65536);
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut rec);
        assert!(rec.count_kind("alert_check_fired") > 0);
        assert!(
            report.ticks < cfg.max_ticks,
            "checks must not wedge the round"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn uncommitted_leftovers_settle_as_failed_migrations() {
        // regression for the EVT01 dead-variant finding: a request cut
        // off by loss + crash whose move never reached ground truth must
        // surface as MigrationFailed (event and counter agree), not
        // vanish silently back into the pending queue
        let mut c = cluster(27);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let crashed = alerts[0].rack;
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop: 0.10,
                ..ChannelFaults::lossy(0.10)
            },
            seed: 3,
            crashed: vec![CrashWindow::whole_round(crashed)],
            ..FabricConfig::default()
        };
        let mut rec = RingRecorder::new(65536);
        let report = round(&mut c, &metric, &alerts, &vals, &cfg, &mut rec);
        let failed: Vec<u64> = rec
            .to_vec()
            .into_iter()
            .filter_map(|e| match e {
                Event::MigrationFailed { vm, .. } => Some(vm),
                _ => None,
            })
            .collect();
        assert_eq!(
            failed.len(),
            1,
            "seed 3 settles exactly one unknown fate as failed"
        );
        assert_eq!(rec.counters().get("migrations.failed"), 1);
        assert!(
            !report
                .plan
                .moves
                .iter()
                .any(|m| m.vm.index() as u64 == failed[0]),
            "a failed migration must not also appear in the committed plan"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn p95_is_the_nearest_rank_value() {
        assert_eq!(p95_ticks(&[]), 0.0);
        assert_eq!(p95_ticks(&[7]), 7.0);
        // n = 20: rank ceil(19.0) = 19, the 19th sorted value
        let twenty: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(p95_ticks(&twenty), 19.0);
        // n = 21: rank ceil(19.95) = 20, the 20th sorted value
        let twenty_one: Vec<u64> = (1..=21).rev().collect();
        assert_eq!(p95_ticks(&twenty_one), 20.0);
    }
}
