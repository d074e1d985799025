//! One benchmark run: a first pass that builds every cluster, then
//! replays of those clusters and batches of extra set-ups until the time
//! budget is spent, then the metrics. A sample of the host-speed
//! [`Reference`] is taken before every episode and set-up batch, and
//! once at the end, so every timed unit has one on each side.
//!
//! Every episode of a cluster starts from the same state, so its
//! simulated outcomes must repeat exactly: the run compares each
//! episode's [`Outcome`]s (and, on traced episodes, the layer sink's
//! work counts) against the first and fails on any difference. The
//! trace-on run alternates untraced and traced passes, so it measures
//! its own tracing overhead.

use crate::heap;
use crate::reference::Reference;
use crate::trace::{Layer, LayerCounts, SpanLog};
use crate::workload::{round, setup, Instance, Outcome, RoundTimes, SetupTimes, Workload};
use std::time::{Duration, Instant};

/// Set-up batches measured per run, at least.
const MIN_SETUP_BATCHES: usize = 5;
/// A set-up batch repeats the set-up until it takes about this long, so
/// that set-ups of a few milliseconds are timed over many of them, and
/// the reference sample next to it costs little.
const SETUP_BATCH_S: f64 = 0.2;
/// Share of the run's time spent on set-up batches between episodes.
const SETUP_SHARE: f64 = 0.12;
/// Bytes in a MiB.
const MIB: f64 = (1 << 20) as f64;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The run's seed; the workload derives its cluster seeds from it.
    pub seed: u64,
    /// Time budget of the run.
    pub seconds: f64,
    /// Alternate untraced and traced passes (per-layer metrics).
    pub traced: bool,
}

/// One episode: set-up of one cluster, then the workload's rounds.
#[derive(Debug)]
pub struct Episode {
    /// Index of the cluster seed.
    pub cluster: usize,
    /// Whether the steps ran with the layer sink.
    pub traced: bool,
    /// The reference sample taken right before the episode.
    pub ref_at: usize,
    /// Simulated outcome of each round.
    pub outcomes: Vec<Outcome>,
    /// Host time of each round.
    pub times: Vec<RoundTimes>,
}

impl Episode {
    fn counts(&self) -> LayerCounts {
        let mut all = LayerCounts::default();
        for t in &self.times {
            all.absorb(&t.counts);
        }
        all
    }
}

/// Everything one run measured.
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Cluster seeds of the run.
    pub cluster_seeds: Vec<u64>,
    /// Rounds per episode.
    pub rounds_per_episode: usize,
    /// The fabric's `max_ticks` backstop.
    pub max_ticks: u64,
    /// Every set-up measured.
    pub setups: Vec<SetupTimes>,
    /// Each set-up batch: seconds per set-up, and the reference sample
    /// taken right before it.
    pub setup_batches: Vec<(f64, usize)>,
    /// Every episode run, in order.
    pub episodes: Vec<Episode>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
    /// Heap high-water growth of each first-pass episode, MiB.
    pub peak_heap_mb: Vec<f64>,
    /// The run's spans.
    pub log: SpanLog,
    /// The host-speed reference samples.
    pub reference: Reference,
}

/// Run `w` for `opts.seconds`. The first pass builds each cluster,
/// keeps an untouched copy of it and runs one episode on it. Later
/// passes replay the copies, so the budget goes to rounds rather than to
/// rebuilding, and batches of extra set-ups run between episodes. The
/// run ends when the budget is spent and every cluster has been replayed
/// at least once; traced runs alternate untraced and traced passes.
pub fn run(w: &Workload, opts: &Options) -> Result<RunResult, String> {
    let mut log = SpanLog::new();
    // wall time only bounds the run; it never feeds a simulated outcome
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let seeds = w.cluster_seeds(opts.seed);
    let mut setups = Vec::new();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut round_id = 0u64;
    let mut reference = Reference::new();
    let mut play =
        |log: &mut SpanLog, inst: &mut Instance, traced: bool, cluster: usize, ref_at: usize| {
            let mut ep = Episode {
                cluster,
                traced,
                ref_at,
                outcomes: Vec::with_capacity(w.rounds()),
                times: Vec::with_capacity(w.rounds()),
            };
            for t in 0..w.rounds() {
                let (outcome, times) = round(w, inst, t, round_id, traced, log);
                round_id += 1;
                ep.outcomes.push(outcome);
                ep.times.push(times);
            }
            ep
        };

    // the first pass allocates the same way on every run, so each
    // episode's heap growth over what was live before it (earlier
    // workloads' results included) repeats for its cluster seed; the
    // kept copy and the reference sample are left out of it
    let mut pristine = Vec::with_capacity(seeds.len());
    let mut peaks = Vec::with_capacity(seeds.len());
    for (cluster, &seed) in seeds.iter().enumerate() {
        let base = heap::reset_peak();
        let (mut inst, times) = setup(w, seed, &mut log)?;
        setups.push(times);
        let setup_peak = heap::peak_bytes().saturating_sub(base);
        let held = heap::reset_peak().saturating_sub(base);
        let ref_at = reference.sample();
        pristine.push(inst.clone());
        let before_rounds = heap::reset_peak();
        episodes.push(play(&mut log, &mut inst, false, cluster, ref_at));
        let rounds_peak = heap::peak_bytes().saturating_sub(before_rounds);
        peaks.push(setup_peak.max(held + rounds_peak) as f64 / MIB);
    }

    let first_setups: Vec<f64> = setups.iter().map(|s| s.total as f64 / 1e9).collect();
    let batch_len = (SETUP_BATCH_S / median(&first_setups)).ceil().max(1.0) as usize;
    let mut setup_batches = Vec::new();
    #[allow(clippy::disallowed_methods)]
    let after_first_pass = Instant::now();
    let mut extra_s = 0.0;
    loop {
        // set-up batches are spread over the rest of the run, so their
        // median sees the same host as the rounds do
        while setup_batches.len() < MIN_SETUP_BATCHES
            || extra_s < SETUP_SHARE * after_first_pass.elapsed().as_secs_f64()
        {
            let ref_at = reference.sample();
            let mut batch_ns = 0;
            for _ in 0..batch_len {
                let (_, times) = setup(w, seeds[setups.len() % seeds.len()], &mut log)?;
                batch_ns += times.total;
                setups.push(times);
            }
            extra_s += batch_ns as f64 / 1e9;
            setup_batches.push((batch_ns as f64 / 1e9 / batch_len as f64, ref_at));
        }
        if episodes.len() >= 2 * seeds.len() && started.elapsed() >= budget {
            break;
        }
        let cluster = episodes.len() % seeds.len();
        let traced = opts.traced && (episodes.len() / seeds.len()) % 2 == 1;
        let ref_at = reference.sample();
        let mut inst = pristine[cluster].clone();
        episodes.push(play(&mut log, &mut inst, traced, cluster, ref_at));
    }
    reference.sample();

    let mut result = RunResult {
        workload: w.name.clone(),
        cluster_seeds: seeds,
        rounds_per_episode: w.rounds(),
        max_ticks: w.max_ticks(),
        setups,
        setup_batches,
        episodes,
        errors: Vec::new(),
        peak_heap_mb: peaks,
        log,
        reference,
    };
    result.check();
    Ok(result)
}

impl RunResult {
    /// The first episode of each cluster (of the given kind), by cluster.
    fn reference(&self, traced: bool) -> Vec<&Episode> {
        (0..self.cluster_seeds.len())
            .filter_map(|k| {
                self.episodes
                    .iter()
                    .find(|ep| ep.cluster == k && ep.traced == traced)
            })
            .collect()
    }

    /// The exact outcome gate: audits clean, every episode repeats the
    /// first outcome of its cluster, traced episodes repeat the first
    /// traced one's work counts, and no span outgrows its parent.
    fn check(&mut self) {
        let first = self.reference(false);
        let first_traced = self.reference(true);
        let mut errors = Vec::new();
        for (e, ep) in self.episodes.iter().enumerate() {
            let seed = self.cluster_seeds[ep.cluster];
            for (t, o) in ep.outcomes.iter().enumerate() {
                if o.violations > 0 {
                    errors.push(format!(
                        "cluster seed {seed} round {t}: auditor reports {} violations",
                        o.violations
                    ));
                }
            }
            if ep.outcomes != first[ep.cluster].outcomes {
                errors.push(format!(
                    "episode {e} (traced: {}) disagrees with the first run of cluster seed {seed}",
                    ep.traced
                ));
            }
            if ep.traced && ep.counts() != first_traced[ep.cluster].counts() {
                errors.push(format!(
                    "episode {e} disagrees on layer work counts with the first traced run of cluster seed {seed}"
                ));
            }
        }
        if self.log.self_times().iter().any(|&t| t < 0) {
            errors.push("a span's children cover more than the span itself".into());
        }
        for ep in &first {
            if ep.outcomes.iter().all(|o| o.moves == 0) {
                errors.push(format!(
                    "cluster seed {} committed no migration: the workload exercises nothing",
                    self.cluster_seeds[ep.cluster]
                ));
            }
        }
        self.errors.extend(errors);
    }

    /// `(cluster seed, round, transactions aborted)` of every round of
    /// the first pass that ended at the backstop.
    pub fn capped_rounds(&self) -> Vec<(u64, usize, usize)> {
        let mut capped = Vec::new();
        for ep in self.reference(false) {
            for (t, o) in ep.outcomes.iter().enumerate() {
                if o.ticks >= self.max_ticks {
                    capped.push((self.cluster_seeds[ep.cluster], t, o.txn.2));
                }
            }
        }
        capped
    }

    /// Management rounds run.
    pub fn attempted(&self) -> usize {
        self.episodes.iter().map(|ep| ep.outcomes.len()).sum()
    }

    /// Rounds that broke an invariant or only ended at the backstop.
    pub fn failed(&self) -> usize {
        self.episodes
            .iter()
            .flat_map(|ep| &ep.outcomes)
            .filter(|o| o.violations > 0 || o.ticks >= self.max_ticks)
            .count()
    }

    /// Round host time (alert raising plus `step`) in ns for each
    /// cluster and round index: the median over that cluster's
    /// episodes of one kind, each episode's times scaled to the
    /// reference host speed (or raw, when `scaled` is false).
    fn round_ns(&self, traced: bool, scaled: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for k in 0..self.cluster_seeds.len() {
            let eps: Vec<&Episode> = self
                .episodes
                .iter()
                .filter(|ep| ep.cluster == k && ep.traced == traced)
                .collect();
            for t in 0..self.rounds_per_episode {
                let v: Vec<f64> = eps
                    .iter()
                    .map(|ep| {
                        let scale = if scaled {
                            self.reference.scale(ep.ref_at)
                        } else {
                            1.0
                        };
                        ep.times[t].round() as f64 * scale
                    })
                    .collect();
                out.push(median(&v));
            }
        }
        out
    }

    /// Seconds per set-up: the median over set-up batches, scaled to
    /// the reference host speed.
    fn setup_s(&self) -> f64 {
        let v: Vec<f64> = self
            .setup_batches
            .iter()
            .map(|&(s, at)| s * self.reference.scale(at))
            .collect();
        median(&v)
    }

    /// End-to-end metrics: host time from untraced episodes, scaled to
    /// the reference host speed; simulated statistics from the first
    /// episode of each cluster.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let round_ns = self.round_ns(false, true);
        let total_s = round_ns.iter().sum::<f64>() / 1e9;
        let first = self.reference(false);
        let outcomes: Vec<&Outcome> = first.iter().flat_map(|ep| &ep.outcomes).collect();
        let sum =
            |f: &dyn Fn(&Outcome) -> usize| outcomes.iter().map(|o| f(o)).sum::<usize>() as f64;
        let (committed, aborted) = (sum(&|o| o.txn.1), sum(&|o| o.txn.2));
        let (moves, unplaced) = (sum(&|o| o.moves), sum(&|o| o.unplaced));
        let cost: f64 = outcomes.iter().map(|o| o.cost).sum();
        let ticks: Vec<f64> = outcomes.iter().map(|o| o.ticks as f64).collect();
        let final_stddev: Vec<f64> = first
            .iter()
            .map(|ep| {
                ep.outcomes
                    .last()
                    .expect("an episode has rounds")
                    .stddev_pct
            })
            .collect();

        vec![
            Metric::new("rounds_per_s", round_ns.len() as f64 / total_s, "1/s"),
            Metric::new("round_ms_p50", median(&round_ns) / 1e6, "ms"),
            Metric::new("migrations_per_s", moves / total_s, "1/s"),
            Metric::new("setup_s", self.setup_s(), "s"),
            Metric::new("peak_heap_mb", median(&self.peak_heap_mb), "MB"),
            Metric::new(
                "committed_share",
                committed / (committed + unplaced + aborted),
                "share",
            ),
            Metric::new(
                "final_stddev_pct",
                final_stddev.iter().sum::<f64>() / final_stddev.len() as f64,
                "%",
            ),
            Metric::new("cost_per_migration", cost / moves, "cost"),
            Metric::new("round_vticks_p50", median(&ticks), "vticks"),
        ]
    }

    /// Per-layer metrics from the traced episodes: host times as means
    /// per traced round (set-up steps as medians), layer times as shares
    /// of `runtime.step`, work as counts per round of one traced pass.
    pub fn per_layer(&self) -> Vec<Metric> {
        let times: Vec<&RoundTimes> = self
            .episodes
            .iter()
            .filter(|ep| ep.traced)
            .flat_map(|ep| &ep.times)
            .collect();
        let n = times.len() as f64;
        let mean_ms = |f: &dyn Fn(&RoundTimes) -> u64| {
            times.iter().map(|t| f(t)).sum::<u64>() as f64 / n / 1e6
        };
        let step_ns: u64 = times.iter().map(|t| t.step).sum();
        let layer_ns = |l: Layer| times.iter().map(|t| t.layer_ns[l as usize]).sum::<u64>();
        let pct = |ns: u64| 100.0 * ns as f64 / step_ns as f64;
        let rps = |traced: bool| {
            let v = self.round_ns(traced, true);
            v.len() as f64 / (v.iter().sum::<f64>() / 1e9)
        };
        let setup_ms = |f: &dyn Fn(&SetupTimes) -> u64| {
            let v: Vec<f64> = self.setups.iter().map(|s| f(s) as f64 / 1e6).collect();
            median(&v)
        };

        // work per round over one traced pass (every pass agrees)
        let pass = self.reference(true);
        let outcomes: Vec<&Outcome> = pass.iter().flat_map(|ep| &ep.outcomes).collect();
        let r = outcomes.len() as f64;
        let mut counts = LayerCounts::default();
        for ep in &pass {
            counts.absorb(&ep.counts());
        }
        let per_round = |x: u64| x as f64 / r;
        let outcome_mean =
            |f: &dyn Fn(&Outcome) -> usize| outcomes.iter().map(|o| f(o)).sum::<usize>() as f64 / r;
        let ticks: u64 = outcomes.iter().map(|o| o.ticks).sum();
        let pass_step_ns: u64 = pass.iter().flat_map(|ep| &ep.times).map(|t| t.step).sum();
        let attributed: u64 = Layer::ALL.iter().map(|&l| layer_ns(l)).sum();
        let ref_ms: Vec<f64> = self
            .reference
            .samples()
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();

        let mut m = vec![
            Metric::new("topology.build_ms", setup_ms(&|s| s.topology), "ms"),
            Metric::new("cluster.build_ms", setup_ms(&|s| s.cluster), "ms"),
            Metric::new("metric.build_ms", setup_ms(&|s| s.metric), "ms"),
            Metric::new("alert.raise_ms", mean_ms(&|t| t.alert), "ms"),
            Metric::new("alert.count", outcome_mean(&|o| o.alerts), "count"),
            Metric::new("step.ms", mean_ms(&|t| t.step), "ms"),
        ];
        // the fabric layer collects events outside the five named groups;
        // the fabric runtime emits none, so only its unattributed tail is
        // reported
        for l in Layer::ALL.into_iter().filter(|&l| l != Layer::Fabric) {
            m.push(Metric::new(
                &format!("{}.step_pct", l.name()),
                pct(layer_ns(l)),
                "%",
            ));
        }
        m.extend([
            Metric::new(
                "plan.calls",
                per_round(counts.kind("plan_computed")),
                "count",
            ),
            Metric::new("plan.victims", per_round(counts.victims), "count"),
            Metric::new("plan.search_cells", per_round(counts.search_cells), "count"),
            Metric::new("txn.prepared", outcome_mean(&|o| o.txn.0), "count"),
            Metric::new("txn.committed", outcome_mean(&|o| o.txn.1), "count"),
            Metric::new("txn.aborted", outcome_mean(&|o| o.txn.2), "count"),
            Metric::new(
                "txn.rejects",
                per_round(counts.kind("reject_received")),
                "count",
            ),
        ]);
        for name in [
            "sent",
            "dropped",
            "duplicated",
            "timeouts",
            "resends",
            "dedup_hits",
        ] {
            let c = counts.counter(&format!("net.{name}"));
            m.push(Metric::new(
                &format!("channel.{name}"),
                per_round(c),
                "count",
            ));
        }
        m.extend([
            Metric::new(
                "failover.degraded_shims",
                outcome_mean(&|o| o.degraded_shims),
                "count",
            ),
            Metric::new("fabric.vticks", per_round(ticks), "vticks"),
            Metric::new(
                "fabric.ns_per_vtick",
                pass_step_ns as f64 / ticks as f64,
                "ns/vtick",
            ),
            Metric::new("fabric.events", per_round(counts.events), "count"),
            Metric::new("fabric.unattributed_ms", mean_ms(&|t| t.unattributed), "ms"),
            Metric::new(
                "fabric.tick_cap_rounds",
                self.capped_rounds().len() as f64,
                "count",
            ),
        ]);
        for name in ["started", "completed", "rerouted"] {
            let c = counts.counter(&format!("transfer.{name}"));
            m.push(Metric::new(
                &format!("transfer.{name}"),
                per_round(c),
                "count",
            ));
        }
        let p95: Vec<f64> = outcomes.iter().map(|o| o.transfer_p95).collect();
        m.extend([
            Metric::new("transfer.p95_vticks", median(&p95), "vticks"),
            Metric::new(
                "transfer.abort_ignored",
                per_round(counts.counter("transfer.abort_ignored")),
                "count",
            ),
            Metric::new("audit.ms", mean_ms(&|t| t.audit), "ms"),
            Metric::new(
                "host.round_ms_p50",
                median(&self.round_ns(false, false)) / 1e6,
                "ms",
            ),
            Metric::new("host.reference_ms", median(&ref_ms), "ms"),
            Metric::new("trace.attributed_pct", pct(attributed), "%"),
            Metric::new(
                "trace.overhead_pct",
                100.0 * (rps(false) / rps(true) - 1.0),
                "%",
            ),
        ]);
        m
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Track;
    use crate::workload::WORKLOADS;

    fn smoke(name: &str, traced: bool) -> RunResult {
        let w = Workload::builtin(name)
            .expect("built-in spec is valid")
            .on_fat_tree(4);
        let opts = Options {
            seed: 1,
            seconds: 0.01,
            traced,
        };
        run(&w, &opts).expect("smoke run completes")
    }

    #[test]
    fn every_workload_runs_at_k4() {
        for (name, _) in WORKLOADS {
            let r = smoke(name, false);
            assert!(r.errors.is_empty(), "{name}: {:?}", r.errors);
            assert_eq!(r.failed(), 0, "{name}");
            assert!(r.attempted() >= 2 * r.cluster_seeds.len() * r.rounds_per_episode);
            for m in r.end_to_end() {
                assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
            }
        }
    }

    #[test]
    fn traced_smoke_spans_nest_inside_their_parents() {
        for (name, _) in WORKLOADS {
            let r = smoke(name, true);
            assert!(r.errors.is_empty(), "{name}: {:?}", r.errors);
            let spans = &r.log.spans;
            let mut layer_children = 0;
            for s in spans {
                if let Some(p) = s.parent {
                    let parent = &spans[p];
                    assert!(
                        s.start >= parent.start && s.end <= parent.end,
                        "{name}: {} escapes {}",
                        s.name,
                        parent.name
                    );
                    if matches!(s.track, Track::Layer(_)) {
                        assert_eq!(parent.name, "runtime.step");
                        layer_children += 1;
                    }
                }
            }
            assert!(
                layer_children > 0,
                "{name}: traced steps produced no layer spans"
            );
            assert!(r.log.self_times().iter().all(|&t| t >= 0), "{name}");
            for m in r.per_layer() {
                assert!(m.value.is_finite(), "{name}: {m:?}");
            }
        }
    }

    #[test]
    fn same_seed_repeats_simulated_metrics_and_counts_exactly() {
        // host times vary between runs, and the heap counter is
        // process-wide while tests run in parallel
        let not_exact = [
            "rounds_per_s",
            "round_ms_p50",
            "migrations_per_s",
            "setup_s",
            "peak_heap_mb",
        ];
        let exact = |r: &RunResult| -> Vec<(String, u64)> {
            let mut v: Vec<(String, u64)> = r
                .end_to_end()
                .into_iter()
                .filter(|m| !not_exact.contains(&m.name.as_str()))
                .map(|m| (m.name, m.value.to_bits()))
                .collect();
            v.extend(
                r.per_layer()
                    .into_iter()
                    .filter(|m| m.unit == "count" || m.unit == "vticks")
                    .map(|m| (m.name, m.value.to_bits())),
            );
            v
        };
        let a = smoke("lossy_k24", true);
        let b = smoke("lossy_k24", true);
        assert_eq!(exact(&a), exact(&b));
    }
}
