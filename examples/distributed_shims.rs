//! The concurrent runtime: every alerted shim plans on its own thread
//! and commits through the FCFS REQUEST/ACK protocol (Alg. 4) — the
//! "communicate between each other to avoid conflictions" of Sec. VIII.
//! The same handshake over a lossy channel is `lossy_shims`.
//!
//! ```text
//! cargo run --release --example distributed_shims
//! ```

use sheriff_dcn::prelude::*;

fn main() {
    let dcn = fattree::build(&FatTreeConfig::paper(8));
    let mut cluster = Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 4.0,
            seed: 99,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    );
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    println!(
        "{} racks, {} VMs, initial std-dev {:.1}%",
        cluster.dcn.rack_count(),
        cluster.placement.vm_count(),
        cluster.utilization_stddev()
    );

    let mut runtime = DistributedRuntime { max_retry: 3 };
    for round in 0..6 {
        let alerts = cluster.fraction_alerts(0.08, round);
        let alert_values: Vec<f64> = cluster
            .placement
            .vm_ids()
            .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
            .collect();
        let report = runtime.step(&mut RunCtx {
            cluster: &mut cluster,
            metric: &metric,
            alerts: &alerts,
            alert_values: &alert_values,
            sink: &mut NullSink,
        });
        println!(
            "round {round}: {} shim threads, {} moves, {} REQUESTs rejected+retried, std-dev {:.1}%",
            report.shims,
            report.plan.moves.len(),
            report.retries,
            cluster.utilization_stddev()
        );
    }

    // verify the protocol kept every invariant despite concurrency
    let mut capacity_ok = true;
    for h in 0..cluster.placement.host_count() {
        let h = HostId::from_index(h);
        capacity_ok &=
            cluster.placement.used_capacity(h) <= cluster.placement.host_capacity(h) + 1e-9;
    }
    let mut conflicts = 0;
    for vm in cluster.placement.vm_ids() {
        let host = cluster.placement.host_of(vm);
        for &other in cluster.placement.vms_on(host) {
            if other != vm && cluster.deps.dependent(vm, other) {
                conflicts += 1;
            }
        }
    }
    println!(
        "\ninvariants after concurrent rounds: capacity {} | dependency conflicts {}",
        if capacity_ok { "OK" } else { "VIOLATED" },
        conflicts / 2
    );
}
