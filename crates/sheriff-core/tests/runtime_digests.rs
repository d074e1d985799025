//! Byte-identity pins for every non-fabric planner.
//!
//! Each case runs a seeded management loop and folds its observable
//! behaviour into one FNV-1a digest: every committed move (with the
//! cost's exact bit pattern), the plan's search space, rejections and
//! unplaced VMs, the recorded event stream, the counters, and the final
//! placement. A refactor of victim selection or planning that changes
//! any plan, event or report moves a digest. The fabric runtime is
//! pinned separately in `transfer_props.rs`.

use dcn_sim::engine::{Cluster, ClusterConfig, HoltPredictor};
use dcn_sim::flows::Flow;
use dcn_sim::{Alert, AlertSource, RackMetric, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::{RackId, VmId};
use sheriff_core::{
    drain_rack, CentralizedRuntime, DistributedRuntime, MigrationContext, MigrationPlan, RunCtx,
    Runtime, Sheriff, SystemBuilder,
};
use sheriff_obs::RingRecorder;

/// A 4-pod Fat-Tree; denser clusters leave victims unplaced and make
/// shims contend for the same destinations.
fn cluster(seed: u64, vms_per_host: f64) -> Cluster {
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host,
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

/// Host alerts on the hottest hosts plus one ToR alert, so both PRIORITY
/// branches (`w = 1` and the β knapsack) feed the planner.
fn alerts(c: &Cluster, fraction: f64, t: usize) -> Vec<Alert> {
    let mut alerts = c.fraction_alerts(fraction, t);
    if let Some(first) = alerts.first() {
        let rack = first.rack;
        alerts.push(Alert {
            rack,
            source: AlertSource::LocalTor(rack),
            severity: 0.95,
            time: t,
        });
    }
    alerts
}

/// The byte stream the digest is taken over.
#[derive(Default)]
struct Trace(String);

impl Trace {
    fn plan(&mut self, plan: &MigrationPlan) {
        for m in &plan.moves {
            self.0.push_str(&format!(
                "mv {} {} {} {:#x};",
                m.vm.index(),
                m.from.index(),
                m.to.index(),
                m.cost.to_bits()
            ));
        }
        self.0.push_str(&format!(
            "plan {:#x} {} {} {:?};",
            plan.total_cost.to_bits(),
            plan.search_space,
            plan.rejected,
            plan.unplaced
        ));
    }

    fn recorder(&mut self, rec: &RingRecorder) {
        for ev in rec.events() {
            self.0.push_str(&ev.to_json());
            self.0.push('\n');
        }
        for (name, value) in rec.counters().iter() {
            self.0.push_str(&format!("{name}={value};"));
        }
    }

    fn placement(&mut self, c: &Cluster) {
        for vm in c.placement.vm_ids() {
            self.0.push_str(&format!(
                "{}={};",
                vm.index(),
                c.placement.host_of(vm).index()
            ));
        }
    }

    fn fnv1a(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.0.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Three rounds of a [`Runtime`] on one seeded cluster.
fn runtime_digest(rt: &mut dyn Runtime, seed: u64, vms_per_host: f64) -> u64 {
    let mut c = cluster(seed, vms_per_host);
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let mut rec = RingRecorder::new(1 << 16);
    let mut trace = Trace::default();
    for t in 0..3 {
        let alerts = alerts(&c, 0.5, t);
        let values = alert_values(&c);
        let out = rt.step(&mut RunCtx {
            cluster: &mut c,
            metric: &metric,
            alerts: &alerts,
            alert_values: &values,
            sink: &mut rec,
        });
        trace.plan(&out.plan);
        trace
            .0
            .push_str(&format!("r {} {} {};", out.shims, out.retries, out.audit));
    }
    trace.recorder(&rec);
    trace.placement(&c);
    trace.fnv1a()
}

fn centralized_digest() -> u64 {
    runtime_digest(&mut CentralizedRuntime::default(), 41, 7.0)
}

fn distributed_digest() -> u64 {
    runtime_digest(&mut DistributedRuntime::default(), 42, 3.5)
}

/// The assembled system (`System::step` → `pre_alert_management` →
/// VMMIGRATION) with workloads and cross-rack flows, plus the same path
/// through `Sheriff::round`, whose report carries the merged plan.
fn system_digest() -> u64 {
    let seed = 44;
    let configured = |dcn| {
        SystemBuilder::new(dcn)
            .vms_per_host(2.0)
            .skew(2.5)
            .seed(seed)
            .workload_len(150)
    };
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let probe = configured(dcn.clone()).build().expect("valid config");
    let vms: Vec<VmId> = probe.cluster.placement.vm_ids().collect();
    let mut flows = Vec::new();
    for pair in vms.chunks(2) {
        if let [a, b] = *pair {
            if probe.cluster.placement.rack_of(a) != probe.cluster.placement.rack_of(b) {
                flows.push(Flow {
                    src: a,
                    dst: b,
                    rate: 0.4,
                    delay_sensitive: false,
                });
            }
        }
    }
    let mut system = configured(dcn)
        .flows(flows)
        .build_with_sink(RingRecorder::new(1 << 16))
        .expect("valid config");
    let p = HoltPredictor::default();
    let mut trace = Trace::default();
    for _ in 0..12 {
        let r = system.step(&p);
        trace.0.push_str(&format!(
            "s {} {} {} {} {} {} {:#x} {:#x} {};",
            r.time,
            r.host_alerts,
            r.tor_alerts,
            r.switch_alerts,
            r.migrations,
            r.reroutes,
            r.stddev.to_bits(),
            r.worst_queue.to_bits(),
            r.audit_violations
        ));
    }
    trace.recorder(system.sink());
    trace.placement(&system.cluster);

    let mut c = cluster(seed, 7.0);
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let sheriff = Sheriff::new(&c);
    for t in 0..3 {
        let alerts = alerts(&c, 0.5, t);
        let values = alert_values(&c);
        let report = sheriff.round(&mut c, &metric, None, &alerts, &|vm| values[vm.index()]);
        trace.plan(&report.plan);
    }
    trace.placement(&c);
    trace.fnv1a()
}

/// Drain three racks in turn, so later drains run short of regional
/// capacity and fall back to the global pass with VMs left unplaced.
fn drain_digest() -> u64 {
    let mut c = cluster(45, 8.0);
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let mut trace = Trace::default();
    for r in [0, 1, 2] {
        let rack = RackId::from_index(r);
        let region = c.dcn.neighbor_racks(rack, c.sim.region_hops);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = drain_rack(&mut ctx, rack, &region, 3);
        trace.plan(&plan);
    }
    trace.placement(&c);
    trace.fnv1a()
}

#[test]
#[ignore = "capture helper: prints digests for pinning"]
fn print_runtime_digests() {
    println!("centralized: {:#018x}", centralized_digest());
    println!("distributed: {:#018x}", distributed_digest());
    println!("system:      {:#018x}", system_digest());
    println!("drain:       {:#018x}", drain_digest());
}

#[test]
fn centralized_runtime_reproduces_pinned_digest() {
    assert_eq!(centralized_digest(), 0x9c9c_1cff_31ca_28bd);
}

#[test]
fn distributed_runtime_reproduces_pinned_digest() {
    assert_eq!(distributed_digest(), 0xcd48_5bab_89e5_df90);
}

#[test]
fn system_step_reproduces_pinned_digest() {
    assert_eq!(system_digest(), 0x71a3_8539_43ce_b90c);
}

#[test]
fn drain_rack_reproduces_pinned_digest() {
    assert_eq!(drain_digest(), 0x2b41_2eb1_1a4e_857b);
}
