//! Workload specs and the calls the benchmark makes into the program.
//!
//! A workload is a scenario spec (the repository's TOML format) for the
//! fabric runtime. One *episode* builds the cluster from the run's seed
//! and runs the spec's `rounds` management rounds in a closed loop:
//! the next round starts only when the previous `step` returns.

use crate::trace::{Layer, LayerCounts, LayerSink, SpanLog};
use dcn_sim::engine::Cluster;
use dcn_sim::RackMetric;
use sheriff_core::audit::{audit_moves, audit_placement};
use sheriff_core::{FabricConfig, FabricRuntime, RunCtx, Runtime};
use sheriff_obs::NullSink;
use sheriff_scenario::spec::RuntimeSpec;
use sheriff_scenario::ScenarioSpec;
use std::path::Path;

/// The benchmark's workloads, by name.
pub const WORKLOADS: [(&str, &str); 3] = [
    ("plan_k32", include_str!("../workloads/plan_k32.toml")),
    (
        "transfer_k12",
        include_str!("../workloads/transfer_k12.toml"),
    ),
    ("lossy_k24", include_str!("../workloads/lossy_k24.toml")),
];

/// Spacing of the cluster seeds of consecutive `--seed` values.
const SEED_STRIDE: u64 = 1000;

/// A validated fabric-runtime scenario the benchmark can drive.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name (the spec's `name`).
    pub name: String,
    spec: ScenarioSpec,
}

impl Workload {
    /// Parse and validate a spec source.
    pub fn parse(src: &str) -> Result<Self, String> {
        let spec = ScenarioSpec::parse_str(src).map_err(|e| e.to_string())?;
        let warnings = spec.validate().map_err(|e| e.to_string())?;
        if let Some(w) = warnings.first() {
            return Err(format!("{}: {w}", spec.name));
        }
        let reject = |why: &str| Err(format!("{}: {why}", spec.name));
        if !matches!(spec.runtime, RuntimeSpec::Fabric { .. }) {
            return reject("the benchmark drives the fabric runtime only");
        }
        if spec.topologies.len() != 1 {
            return reject("exactly one topology is required");
        }
        if spec.trace_mode() || !spec.faults.is_empty() || !spec.workload.surges.is_empty() {
            return reject("fault schedules, surges and trace mode are not benchmarked");
        }
        if spec.seeds.iter().any(|&o| o >= SEED_STRIDE) {
            return reject("seeds are cluster-seed offsets and must be below 1000");
        }
        Ok(Self {
            name: spec.name.clone(),
            spec,
        })
    }

    /// One of [`WORKLOADS`] by name.
    pub fn builtin(name: &str) -> Result<Self, String> {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        let (_, src) = WORKLOADS
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("unknown workload {name:?} (known: {})", names.join(", ")))?;
        Self::parse(src)
    }

    /// A spec file outside the built-in set.
    pub fn load(path: &Path) -> Result<Self, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The same workload on a `pods`-pod Fat-Tree (for smoke runs).
    #[cfg(test)]
    pub fn on_fat_tree(mut self, pods: usize) -> Self {
        self.spec.topologies = vec![sheriff_scenario::spec::TopologySpec::FatTree {
            pods,
            hosts_per_rack: None,
        }];
        self
    }

    /// Management rounds per episode.
    pub fn rounds(&self) -> usize {
        self.spec.rounds
    }

    /// The cluster seeds of a run with `--seed run_seed`: the spec's
    /// `seeds` are offsets, added to `run_seed × 1000`. Several clusters
    /// per run average out how much one seed's cluster happens to cost.
    pub fn cluster_seeds(&self, run_seed: u64) -> Vec<u64> {
        self.spec
            .seeds
            .iter()
            .map(|&o| run_seed.wrapping_mul(SEED_STRIDE).wrapping_add(o))
            .collect()
    }

    /// The fabric's virtual-time backstop for this workload.
    pub fn max_ticks(&self) -> u64 {
        self.fabric_config(0).max_ticks
    }

    fn fabric_config(&self, seed: u64) -> FabricConfig {
        let RuntimeSpec::Fabric {
            max_retry,
            transfer,
        } = self.spec.runtime
        else {
            unreachable!("Workload::parse admits fabric specs only");
        };
        let mut cfg = FabricConfig::for_channel(self.spec.sim.channel.clone(), seed);
        cfg.max_retry = max_retry;
        if let Some(t) = transfer {
            cfg = cfg.with_transfer(t.to_config());
        }
        cfg
    }
}

/// Set-up step durations, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `TopologySpec::build`.
    pub topology: u64,
    /// `Cluster::try_build`.
    pub cluster: u64,
    /// `RackMetric::build`.
    pub metric: u64,
    /// The whole set-up, runtime construction included.
    pub total: u64,
}

/// A built cluster with its metric and runtime, ready for rounds.
#[derive(Clone)]
pub struct Instance {
    cluster: Cluster,
    metric: RackMetric,
    runtime: FabricRuntime,
    phase_cursor: usize,
}

/// Build the workload's cluster, metric and runtime for `seed`.
pub fn setup(w: &Workload, seed: u64, log: &mut SpanLog) -> Result<(Instance, SetupTimes), String> {
    let root = log.open("setup", None, None);
    let span = log.open("topology.build", Some(root), None);
    let dcn = w.spec.topologies[0].build();
    let topology = log.close(span);

    let span = log.open("cluster.build", Some(root), None);
    let mut ccfg = w.spec.cluster.clone();
    ccfg.seed = seed;
    let cluster = Cluster::try_build(dcn, &ccfg, w.spec.sim.clone()).map_err(|e| e.to_string())?;
    let cluster_ns = log.close(span);

    let span = log.open("metric.build", Some(root), None);
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let metric_ns = log.close(span);

    let span = log.open("runtime.build", Some(root), None);
    let runtime = FabricRuntime::with_config(w.fabric_config(seed));
    log.close(span);
    let total = log.close(root);
    let inst = Instance {
        cluster,
        metric,
        runtime,
        phase_cursor: 0,
    };
    let times = SetupTimes {
        topology,
        cluster: cluster_ns,
        metric: metric_ns,
        total,
    };
    Ok((inst, times))
}

/// The simulated outcome of one round: everything that must repeat
/// exactly for a given workload, seed and round.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Host alerts raised.
    pub alerts: usize,
    /// Committed migrations.
    pub moves: usize,
    /// Victims no destination could take.
    pub unplaced: usize,
    /// 2PC transactions prepared / committed / aborted.
    pub txn: (usize, usize, usize),
    /// Virtual ticks the round took.
    pub ticks: u64,
    /// Eqn. 1 cost of the committed moves.
    pub cost: f64,
    /// Host-utilisation std-dev after the round.
    pub stddev_pct: f64,
    /// Control messages dropped, request timeouts, resends, dedup hits.
    pub channel: (usize, usize, usize, usize),
    /// Shims that ran degraded.
    pub degraded_shims: usize,
    /// Pre-copies started / completed / rerouted.
    pub transfers: (usize, usize, usize),
    /// Nearest-rank p95 transfer completion, virtual ticks.
    pub transfer_p95: f64,
    /// Invariant violations: the runtime's own audit plus the
    /// benchmark's post-round `audit_placement` + `audit_moves`.
    pub violations: usize,
}

/// Host time and layer attribution of one round.
#[derive(Clone, Debug, Default)]
pub struct RoundTimes {
    /// Alert raising (`fraction_alerts` and ALERT magnitudes).
    pub alert: u64,
    /// `Runtime::step`.
    pub step: u64,
    /// The benchmark's post-round audit (outside the timed round).
    pub audit: u64,
    /// Step nanoseconds per layer (traced rounds only).
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Step nanoseconds after the last sink callback (traced only).
    pub unattributed: u64,
    /// Work counts the layer sink saw (traced only).
    pub counts: LayerCounts,
}

impl RoundTimes {
    /// The timed round: alert raising plus `step`.
    pub fn round(&self) -> u64 {
        self.alert + self.step
    }
}

/// Run round `t` of the episode; `round_id` labels its spans.
pub fn round(
    w: &Workload,
    inst: &mut Instance,
    t: usize,
    round_id: u64,
    traced: bool,
    log: &mut SpanLog,
) -> (Outcome, RoundTimes) {
    // channel phases re-shape the control channel, as the scenario
    // runner applies them
    let phases = &w.spec.channel_phases;
    while inst.phase_cursor < phases.len() && phases[inst.phase_cursor].round <= t {
        let phase = &phases[inst.phase_cursor];
        let cfg = &mut inst.runtime.cfg;
        cfg.faults = phase.faults.clone();
        *cfg = std::mem::take(cfg).with_hello_window(2u64.max(phase.faults.delay_max + 1));
        inst.phase_cursor += 1;
    }

    let mut times = RoundTimes::default();
    let id = Some(round_id);
    let root = log.open("round", None, id);

    let span = log.open("alert.raise", Some(root), id);
    let cluster = &mut inst.cluster;
    let alerts = cluster.fraction_alerts(w.spec.workload.alert_fraction, t);
    let alert_values: Vec<f64> = cluster
        .placement
        .vm_ids()
        .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
        .collect();
    times.alert = log.close(span);

    let span = log.open("runtime.step", Some(root), id);
    let mut sink = traced.then(|| LayerSink::begin(log, log.spans[span].start));
    let mut null = NullSink;
    let out = {
        let mut ctx = RunCtx {
            cluster,
            metric: &inst.metric,
            alerts: &alerts,
            alert_values: &alert_values,
            sink: match sink.as_mut() {
                Some(s) => s,
                None => &mut null,
            },
        };
        inst.runtime.step(&mut ctx)
    };
    times.step = log.close(span);
    if let Some(sink) = sink {
        let (unattributed, layer_ns, counts) = sink.finish(log, span);
        times.unattributed = unattributed;
        times.layer_ns = layer_ns;
        times.counts = counts;
    }

    let span = log.open("audit", Some(root), id);
    let mut audit = audit_placement(&cluster.placement, &cluster.deps);
    audit.merge(audit_moves(
        &cluster.placement,
        out.plan.moves.iter().map(|m| (m.vm, m.to)),
    ));
    times.audit = log.close(span);
    log.close(root);

    let outcome = Outcome {
        alerts: alerts.len(),
        moves: out.plan.moves.len(),
        unplaced: out.plan.unplaced.len(),
        txn: (out.txn_prepared, out.txn_committed, out.txn_aborted),
        ticks: out.ticks,
        cost: out.plan.total_cost,
        stddev_pct: cluster.utilization_stddev(),
        channel: (out.drops, out.timeouts, out.resends, out.dedup_hits),
        degraded_shims: out.degraded_shims,
        transfers: (
            out.transfers_started,
            out.transfers_completed,
            out.transfer_reroutes,
        ),
        transfer_p95: out.transfer_p95_completion,
        violations: out.audit.len() + audit.len(),
    };
    (outcome, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_parses_and_validates() {
        for (name, _) in WORKLOADS {
            let w = Workload::builtin(name).expect("built-in spec is valid");
            assert_eq!(w.name, name, "spec name matches its table entry");
            assert!(w.rounds() >= 1);
        }
    }

    #[test]
    fn the_demo_config_parses_and_is_not_a_workload() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("configs/congested_admission_k12.toml");
        let w = Workload::load(&path).expect("demo config is valid");
        assert!(Workload::builtin(&w.name).is_err());
    }

    #[test]
    fn non_fabric_specs_are_refused() {
        let src = "name = \"x\"\nrounds = 1\nseeds = [1]\n[topology]\nkind = \"fat_tree\"\npods = 4\n[runtime]\nkind = \"centralized\"\n";
        assert!(Workload::parse(src).is_err());
        assert!(Workload::builtin("nope").is_err());
    }
}
