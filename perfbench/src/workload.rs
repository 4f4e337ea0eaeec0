//! The three workloads, their set-up, timing loops and output checks.
//!
//! Every job runs on tables ingested from CSV bytes through
//! `falcon-table`'s reader; the bytes come from `falcon-datagen` with the
//! run's seed, and generating them is not timed.

use crate::alloc;
use crate::pipeline;
use crate::trace::{Summary, Trace};
use crate::Outcome;
use falcon_core::driver::{Falcon, FalconConfig, RunReport};
use falcon_core::metrics::em_quality;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_dataflow::Cluster;
use falcon_serve::{match_digest, serve, JobSpec, Policy, ServeConfig, ServeReport, TenantStatus};
use falcon_table::{IdPair, Table};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by `--trace 0` runs.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("f1", "ratio"),
    ("crowd_usd", "USD"),
    ("sim_total_s", "s"),
    ("sim_unmasked_s", "s"),
];

/// `RunReport::op_times` labels the driver records.
const TIMELINE_OPS: &[&str] = &[
    "gen_features",
    "sample_pairs",
    "gen_fvs_b",
    "al_matcher_b",
    "index_build",
    "get_block_rules",
    "eval_rules",
    "speculative_exec",
    "sel_opt_seq",
    "apply_block_rules",
    "gen_fvs_m",
    "al_matcher_m",
    "apply_matcher",
    "accuracy_estimator",
];

/// Per-layer metrics, reported by `--trace 1` runs (`<op>.sim_s` for each
/// of [`TIMELINE_OPS`] follows these).
const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.wall_s", "s"),
    ("ingest.rows", "count"),
    ("ingest.mb_per_s", "MB/s"),
    ("analyze.wall_s", "s"),
    ("gen_features.wall_s", "s"),
    ("cross_product.wall_s", "s"),
    ("sample_pairs.wall_s", "s"),
    ("sample_pairs.pairs", "count"),
    ("gen_fvs_b.wall_s", "s"),
    ("gen_fvs_b.pairs", "count"),
    ("gen_fvs_m.wall_s", "s"),
    ("gen_fvs_m.pairs", "count"),
    ("gen_fvs_m.pairs_per_s", "1/s"),
    ("gen_fvs_m.heap_peak_mb", "MB"),
    ("al_matcher_b.self_s", "s"),
    ("al_matcher_m.self_s", "s"),
    ("al_matcher_m.iterations", "count"),
    ("al_matcher_m.labels", "count"),
    ("crowd.self_s", "s"),
    ("crowd.questions", "count"),
    ("crowd.answers", "count"),
    ("crowd.sim_wait_s", "s"),
    ("get_blocking_rules.wall_s", "s"),
    ("get_blocking_rules.rules", "count"),
    ("eval_rules.self_s", "s"),
    ("eval_rules.retained", "count"),
    ("select_opt_seq.wall_s", "s"),
    ("prebuild.wall_s", "s"),
    ("prebuild.indexes", "count"),
    ("speculate.wall_s", "s"),
    ("speculate.rules_run", "count"),
    ("speculate.hit", "count"),
    ("index_build.wall_s", "s"),
    ("index_build.indexes", "count"),
    ("probe.wall_s", "s"),
    ("probe.pairs_examined", "count"),
    ("probe.pruned_by_signature", "count"),
    ("probe.pruned_by_exact", "count"),
    ("probe.candidates", "count"),
    ("probe.useful_ratio", "ratio"),
    ("apply_matcher.wall_s", "s"),
    ("apply_matcher.pairs", "count"),
    ("accuracy_estimator.self_s", "s"),
    ("difficult_pairs.wall_s", "s"),
    ("dataflow.jobs", "count"),
    ("dataflow.map_tasks", "count"),
    ("dataflow.records", "count"),
    ("dataflow.failed_attempts", "count"),
    ("serve.wall_s", "s"),
    ("serve.rounds", "count"),
    ("serve.makespan_s", "s"),
    ("serve.sched_overhead_s", "s"),
    ("serve.utilization", "ratio"),
    ("serve.masking_speedup", "ratio"),
    ("journal.bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("failed_frac", "ratio"),
];

/// Set-up samples per run, about; `setup_s` is their median. They are
/// taken in equal groups of at least one at checkpoints spread over the
/// run (see [`SetupSampler`]).
const SETUP_SAMPLES: usize = 31;

/// CSV bytes one set-up sample ingests, at least. A sample sets up every
/// job of the run as many times over as it takes to reach this, so that
/// each lasts some 40 ms rather than the under a millisecond of one
/// `match_only` set-up, and timer and scheduler noise are small beside
/// it.
const SETUP_BYTES: usize = 4_000_000;

/// Inputs per `block_match` run. The learned blocking rules, and with
/// them the probe work and the job's cost, differ from input to input
/// (one panel ranged from 4.8 thousand to 112 million probed pairs, and
/// the jobs from 0.7 to 6.7 s); the median job of a panel is far steadier
/// than a single job. Over random panels drawn from 60 inputs, the
/// quartile spread of ten panel medians was 0.16 with ten inputs a panel
/// and 0.09 with twenty.
const BLOCK_PANEL: u64 = 20;

/// Inputs of a `block_match` panel that a `--trace 1` run replays: the
/// first ten. A traced run makes an untraced and a traced run of every
/// input it replays; per-layer values have no bound, and the whole panel
/// would double the traced run's length.
const TRACED_PANEL: usize = 10;

/// Serve runs per `serve_mixed` run, each on its own tenant set. A
/// citations tenant whose learned rules keep a hundred times the usual
/// candidates adds about 5 s to a serve run, so one run's wall time jumped
/// with the inputs drawn; the median of three sets does not.
const SERVE_PANEL: u64 = 3;

/// Per-answer error rate of the simulated crowd. The CLI defaults to 5%,
/// but with noisy answers the learned rule sequence swings with the
/// answer draws: on one citations input, six crowd seeds gave 867 to
/// 93,457 candidates and 1.6 to 13 s of host time. An error-free crowd
/// (same MTurk price and latency) keeps each seed's plan a property of
/// its data.
const CROWD_ERROR: f64 = 0.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MatchOnly,
    BlockMatch,
    ServeMixed,
}

impl Kind {
    pub fn parse(s: &str) -> Result<Kind, String> {
        match s {
            "match_only" => Ok(Kind::MatchOnly),
            "block_match" => Ok(Kind::BlockMatch),
            "serve_mixed" => Ok(Kind::ServeMixed),
            other => Err(format!(
                "unknown workload {other:?} (match_only, block_match, serve_mixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::MatchOnly => "match_only",
            Kind::BlockMatch => "block_match",
            Kind::ServeMixed => "serve_mixed",
        }
    }

    /// Lowest acceptable F1 of one job (of the tenants' mean for
    /// `serve_mixed`).
    fn f1_floor(self) -> f64 {
        match self {
            Kind::MatchOnly => 0.95,
            Kind::BlockMatch => 0.75,
            Kind::ServeMixed => 0.9,
        }
    }
}

/// One tenant as generated: CSV bytes, ground truth and job settings.
struct Tenant {
    name: String,
    csv_a: Vec<u8>,
    csv_b: Vec<u8>,
    truth: Vec<IdPair>,
    config: FalconConfig,
    crowd_seed: u64,
    priority: i32,
    arrival: Duration,
    workflow: usize,
}

impl Tenant {
    /// `falcon demo`'s job settings: sample 8,000 pairs with fan-out 20.
    fn generate(name: String, dataset: &str, scale: f64, seed: u64) -> Tenant {
        let d = falcon_datagen::generate(dataset, scale, seed);
        let csv = |t: &Table| {
            let mut bytes = Vec::new();
            falcon_table::csv::write_table(t, &mut bytes).expect("writing CSV to memory");
            bytes
        };
        Tenant {
            name,
            csv_a: csv(&d.a),
            csv_b: csv(&d.b),
            truth: d.truth,
            config: FalconConfig {
                sample_size: 8_000,
                sample_fanout: 20,
                ..FalconConfig::default()
            },
            crowd_seed: seed,
            priority: 0,
            arrival: Duration::ZERO,
            workflow: 0,
        }
    }
}

/// The jobs of one run, each a list of tenants: one tenant per job for
/// `match_only` and `block_match`, one job of eight tenants for
/// `serve_mixed`. Every input derives from `seed`. Where a run has several
/// inputs they use the consecutive data seeds `seed, seed + 1, ...`, so
/// neighbouring seeds share most inputs and the spread between runs
/// reflects the program rather than which inputs were drawn.
fn jobs(kind: Kind, seed: u64) -> Vec<Vec<Tenant>> {
    match kind {
        // `falcon demo songs --scale 0.5`: 1000 x 1000, planned MatchOnly.
        Kind::MatchOnly => vec![vec![Tenant::generate("songs".into(), "songs", 0.001, seed)]],
        // `falcon demo citations`: 2736 x 3769, planned BlockAndMatch.
        Kind::BlockMatch => (0..BLOCK_PANEL)
            .map(|k| {
                let s = seed.wrapping_add(k);
                vec![Tenant::generate(
                    format!("citations-{s}"),
                    "citations",
                    0.0015,
                    s,
                )]
            })
            .collect(),
        // A `falcon serve` manifest: dataset, scale multiplier, priority,
        // arrival (s) and workflow rounds per tenant. One citations tenant
        // (the workflow one) rather than three: each citations input has
        // a one-in-six or so chance of rules that keep a hundred times the
        // usual candidates and add 5 s to a serve run, so with three per
        // set most runs hit one. The songs tenants are 200 x 200
        // (MatchOnly) so that three serve runs fit the benchmark's time
        // budget. Tenants keep `falcon demo`'s 8,000-pair sample rather
        // than the manifest default of 2,000: at 2,000 the rule
        // evaluation's crowd rounds, and with them `crowd_usd` and the
        // makespan, varied by a third from seed to seed.
        Kind::ServeMixed => {
            let mix: [(&str, f64, i32, f64, usize); 8] = [
                ("citations", 1.0, 0, 0.0, 2),
                ("songs", 0.1, 0, 0.0, 0),
                ("songs", 0.1, 0, 0.0, 0),
                ("products", 0.3, 1, 0.0, 0),
                ("products", 0.3, 0, 3600.0, 0),
                ("products", 0.3, 0, 0.0, 0),
                ("products", 0.3, 0, 0.0, 0),
                ("products", 0.3, 0, 0.0, 0),
            ];
            (0..SERVE_PANEL)
                .map(|k| {
                    mix.iter()
                        .enumerate()
                        .map(|(i, &(dataset, scale, priority, arrival, workflow))| {
                            // The CLI's per-dataset default scales.
                            let base = match dataset {
                                "citations" => 0.0015,
                                "songs" => 0.002,
                                _ => 0.05,
                            };
                            // Set k of seed + 1 is set k + 1 of seed, so
                            // neighbouring seeds share two of three sets.
                            let s = seed.wrapping_add(k + SERVE_PANEL * i as u64);
                            let name = format!("{dataset}-{}", i + 1);
                            let mut t = Tenant::generate(name, dataset, base * scale, s);
                            t.config.seed = s;
                            t.priority = priority;
                            t.arrival = Duration::from_secs_f64(arrival);
                            t.workflow = workflow;
                            t
                        })
                        .collect()
                })
                .collect()
        }
    }
}

fn serve_config(journal_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        pool_nodes: 10,
        threads: 1,
        policy: Policy::FairShare,
        journal: journal_dir.map(|d| d.join("service.journal")),
        ..ServeConfig::default()
    }
}

/// One timed set-up: ingest every tenant's CSV bytes and build its job.
struct Setup {
    jobs: Vec<JobSpec>,
    total: Duration,
    ingest: Duration,
    rows: usize,
    bytes: usize,
}

fn setup(tenants: &[Tenant], journal_dir: Option<&Path>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut ingest = Duration::ZERO;
    let (mut rows, mut bytes) = (0, 0);
    let mut jobs = Vec::with_capacity(tenants.len());
    for t in tenants {
        let ti = Instant::now();
        let read = |side: &str, csv: &[u8]| {
            falcon_table::csv::read_table(&format!("{}.{side}", t.name), csv)
                .map_err(|e| format!("{}: ingest {side}: {e}", t.name))
        };
        let a = read("a", &t.csv_a)?;
        let b = read("b", &t.csv_b)?;
        ingest += ti.elapsed();
        rows += a.len() + b.len();
        bytes += t.csv_a.len() + t.csv_b.len();
        let crowd = RandomWorkerCrowd::new(
            GroundTruth::new(t.truth.iter().copied()),
            CROWD_ERROR,
            t.crowd_seed,
        );
        let mut job = JobSpec::new(t.name.clone(), a, b, t.config.clone(), Arc::new(crowd))
            .with_priority(t.priority)
            .with_arrival(t.arrival)
            .with_workflow(t.workflow);
        if let Some(dir) = journal_dir {
            job = job.with_journal(dir.join(format!("{}.crowd.journal", t.name)));
        }
        jobs.push(job);
    }
    Ok(Setup {
        jobs,
        total: t0.elapsed(),
        ingest,
        rows,
        bytes,
    })
}

/// `setup_s`: seconds to set up every job of the run once, as the median
/// of samples of several set-ups each. The samples are taken in equal
/// groups at checkpoints spread over the run (before each job of the first
/// pass and after the last), so that a slow spell of the host, which can
/// last seconds, moves a group rather than every sample. Dropping the
/// built jobs is not timed.
struct SetupSampler<'a> {
    jobs: &'a [Vec<Tenant>],
    reps: usize,
    per_checkpoint: usize,
    samples: Vec<f64>,
    error: Option<String>,
}

impl<'a> SetupSampler<'a> {
    fn new(jobs: &'a [Vec<Tenant>], checkpoints: usize) -> Self {
        let bytes: usize = jobs
            .iter()
            .flatten()
            .map(|t| t.csv_a.len() + t.csv_b.len())
            .sum();
        SetupSampler {
            jobs,
            reps: SETUP_BYTES.div_ceil(bytes.max(1)),
            per_checkpoint: (SETUP_SAMPLES / checkpoints.max(1)).max(1),
            samples: Vec::new(),
            error: None,
        }
    }

    /// One group of samples; after an error, nothing.
    fn checkpoint(&mut self) {
        for _ in 0..self.per_checkpoint {
            if self.error.is_some() {
                return;
            }
            let mut total = Duration::ZERO;
            for _ in 0..self.reps {
                for t in self.jobs {
                    match setup(t, None) {
                        Ok(st) => total += st.total,
                        Err(e) => {
                            self.error = Some(e);
                            return;
                        }
                    }
                }
            }
            self.samples.push(total.as_secs_f64() / self.reps as f64);
        }
    }

    /// The median sample, or the first set-up error.
    fn finish(self) -> Result<f64, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let (lo, hi) = self
            .samples
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        eprintln!(
            "setup: {} samples of {} set-ups of every job, {lo:.5}..{hi:.5} s",
            self.samples.len(),
            self.reps
        );
        Ok(median(self.samples))
    }
}

/// Attempted and failed jobs and checks of one run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// A job that returned `Err` or panicked counts as one failure.
    fn job<T>(&mut self, name: &str, r: std::thread::Result<Result<T, String>>) -> Option<T> {
        let r = r.unwrap_or_else(|_| Err("panicked".into()));
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("job failed: {name}: {e}");
                None
            }
        }
    }
}

/// Wall time and peak live heap of `f`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Duration, f64) {
    alloc::reset_peak();
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed(), alloc::peak_bytes() as f64 / 1e6)
}

fn solo(job: &JobSpec) -> std::thread::Result<Result<RunReport, String>> {
    catch_unwind(AssertUnwindSafe(|| {
        let falcon = Falcon::new(job.config.clone());
        if job.workflow_rounds > 0 {
            falcon
                .try_run_workflow(&job.a, &job.b, job.crowd.clone(), job.workflow_rounds)
                .map(|(r, _)| r)
        } else {
            falcon.try_run(&job.a, &job.b, job.crowd.clone())
        }
        .map_err(|e| e.to_string())
    }))
}

fn traced(job: &JobSpec, tr: &Trace) -> std::thread::Result<Result<RunReport, String>> {
    catch_unwind(AssertUnwindSafe(|| {
        pipeline::run(
            &job.config,
            &job.a,
            &job.b,
            job.crowd.clone(),
            job.workflow_rounds,
            tr,
        )
        .map_err(|e| e.to_string())
    }))
}

fn served(jobs: Vec<JobSpec>, dir: &Path) -> std::thread::Result<Result<ServeReport, String>> {
    catch_unwind(AssertUnwindSafe(|| {
        serve(jobs, &serve_config(Some(dir))).map_err(|e| e.to_string())
    }))
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// End-to-end values over a run's jobs. Quality, bill and simulated total
/// are fixed per input and take a few discrete values (whole crowd
/// rounds: 1,480 or 1,580 questions on most citations inputs), so a median
/// over a panel jumps between them from seed to seed while the mean moves
/// by one input's share. Host times and memory keep the median, which the
/// odd input whose rules keep 100 times the candidates cannot move.
fn end_to_end(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut m = medians(samples);
    for k in ["f1", "crowd_usd", "sim_total_s"] {
        let v: Vec<f64> = samples.iter().filter_map(|s| s.get(k).copied()).collect();
        if !v.is_empty() {
            m.insert(k.to_string(), v.iter().sum::<f64>() / v.len() as f64);
        }
    }
    m
}

/// Per-key medians of several samples of one metric map.
fn medians(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = samples.iter().flat_map(BTreeMap::keys).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v = samples.iter().map(|s| s.get(k).copied().unwrap_or(0.0));
            (k.clone(), median(v.collect()))
        })
        .collect()
}

/// A fresh scratch directory for one serve run's journals.
fn scratch_dir(tmp: &Path, k: usize) -> Result<PathBuf, String> {
    let dir = tmp.join(format!("serve-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Total size of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Additive per-layer values of one job, from the traced run's spans and
/// the untraced run's `report` (ratios are derived after summing, in
/// [`derive`]).
fn layer_values(s: &Summary, report: &RunReport) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    for name in [
        "analyze",
        "gen_features",
        "cross_product",
        "sample_pairs",
        "gen_fvs_b",
        "gen_fvs_m",
        "get_blocking_rules",
        "select_opt_seq",
        "prebuild",
        "speculate",
        "index_build",
        "probe",
        "apply_matcher",
        "difficult_pairs",
    ] {
        put(&format!("{name}.wall_s"), s.wall_s(name));
    }
    for name in [
        "al_matcher_b",
        "al_matcher_m",
        "crowd",
        "eval_rules",
        "accuracy_estimator",
    ] {
        put(&format!("{name}.self_s"), s.self_s(name));
    }
    for (k, v) in &s.counts {
        put(k, *v);
    }
    put(
        "crowd.answers",
        s.calls.get("crowd").copied().unwrap_or(0) as f64,
    );
    put("crowd.questions", report.ledger.questions as f64);
    put("crowd.sim_wait_s", report.ledger.crowd_time.as_secs_f64());
    let ops = report.op_times();
    for op in TIMELINE_OPS {
        put(
            &format!("{op}.sim_s"),
            ops.get(*op).map_or(0.0, Duration::as_secs_f64),
        );
    }
    put("trace.root_s", s.root.as_secs_f64());
    put("trace.covered_s", s.coverage * s.root.as_secs_f64());
    m
}

/// Sum per-layer values over tenants; the heap peak is a maximum.
fn add_values(into: &mut BTreeMap<String, f64>, from: BTreeMap<String, f64>) {
    for (k, v) in from {
        let e = into.entry(k.clone()).or_default();
        if k == "gen_fvs_m.heap_peak_mb" {
            *e = e.max(v);
        } else {
            *e += v;
        }
    }
}

/// Ratios computed from summed values.
fn derive(m: &mut BTreeMap<String, f64>) {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let pps = ratio(get(m, "gen_fvs_m.pairs"), get(m, "gen_fvs_m.wall_s"));
    let useful = ratio(get(m, "probe.candidates"), get(m, "probe.pairs_examined"));
    let coverage = ratio(get(m, "trace.covered_s"), get(m, "trace.root_s"));
    m.insert("gen_fvs_m.pairs_per_s".into(), pps);
    m.insert("probe.useful_ratio".into(), useful);
    m.insert("trace.coverage".into(), coverage);
}

fn ingest_values(m: &mut BTreeMap<String, f64>, st: &Setup) {
    let secs = st.ingest.as_secs_f64();
    m.insert("ingest.wall_s".into(), secs);
    m.insert("ingest.rows".into(), st.rows as f64);
    let mb_per_s = if secs > 0.0 {
        st.bytes as f64 / 1e6 / secs
    } else {
        0.0
    };
    m.insert("ingest.mb_per_s".into(), mb_per_s);
}

/// Quality, bill and simulated times of one job, as end-to-end values.
fn job_values(report: &RunReport, truth: &[IdPair]) -> (f64, f64, f64, f64) {
    (
        em_quality(&report.matches, truth).f1,
        report.ledger.cost,
        report.total_time().as_secs_f64(),
        report.unmasked_machine_time().as_secs_f64(),
    )
}

/// Run one workload for `seconds` and return its metrics.
pub fn run(kind: Kind, seed: u64, seconds: Duration, trace: bool, tmp: &Path) -> Outcome {
    let jobs = jobs(kind, seed);
    let mut tally = Tally::default();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let start = Instant::now();
    let r = match (kind, trace) {
        (Kind::ServeMixed, false) => serve_untraced(&jobs, seconds, tmp, &mut tally, &mut values),
        (Kind::ServeMixed, true) => serve_traced(&jobs[0], tmp, &mut tally, &mut values),
        (_, false) => single_untraced(kind, &jobs, seconds, &mut tally, &mut values),
        (_, true) => single_traced(kind, &jobs, seconds, &mut tally, &mut values),
    };
    if let Err(e) = r {
        tally.check(false, || e);
    }
    eprintln!(
        "{}: measured {:.1}s, {} jobs and checks, {} failed",
        kind.name(),
        start.elapsed().as_secs_f64(),
        tally.attempted,
        tally.failed
    );
    values.insert(
        "failed_frac".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let listed = if trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(TIMELINE_OPS.iter().map(|op| (format!("{op}.sim_s"), "s")))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect::<Vec<_>>()
    };
    let metrics = listed
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, (v, unit))
        })
        .collect();

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cluster_threads = Cluster::new(FalconConfig::default().cluster).threads();
    let serve_threads = match kind {
        Kind::ServeMixed => serve_config(None).threads.to_string(),
        _ => "unused".into(),
    };
    let provenance = [
        ("workload", kind.name().to_string()),
        ("seed", seed.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cluster_threads", cluster_threads.to_string()),
        ("serve_threads", serve_threads),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    Outcome {
        provenance,
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

/// `--trace 0` on single-tenant jobs: whole passes over the jobs until
/// `seconds` have passed; each metric summarises every job run (see
/// [`end_to_end`]). Set-up samples are taken around the first pass's jobs.
fn single_untraced(
    kind: Kind,
    jobs: &[Vec<Tenant>],
    seconds: Duration,
    tally: &mut Tally,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut setups = SetupSampler::new(jobs, jobs.len() + 1);
    let mut samples: Vec<BTreeMap<String, f64>> = Vec::new();
    for pass in 0.. {
        for tenants in jobs {
            if pass == 0 {
                setups.checkpoint();
            }
            let t = &tenants[0];
            let st = setup(tenants, None)?;
            let (r, wall, peak) = measured(|| solo(&st.jobs[0]));
            let Some(report) = tally.job(&t.name, r) else {
                continue;
            };
            let (f1, usd, total, unmasked) = job_values(&report, &t.truth);
            eprintln!(
                "{}: wall {:.3}s, {:?} plan, {} candidates, f1 {f1:.3}",
                t.name,
                wall.as_secs_f64(),
                report.plan,
                report.candidate_size.unwrap_or(0)
            );
            tally.check(f1 >= kind.f1_floor(), || {
                format!("{}: f1 {f1} below floor {}", t.name, kind.f1_floor())
            });
            samples.push(BTreeMap::from([
                ("wall_s".to_string(), wall.as_secs_f64()),
                ("peak_heap_mb".to_string(), peak),
                ("f1".to_string(), f1),
                ("crowd_usd".to_string(), usd),
                ("sim_total_s".to_string(), total),
                ("sim_unmasked_s".to_string(), unmasked),
            ]));
        }
        if pass == 0 {
            setups.checkpoint();
        }
        if samples.is_empty() || start.elapsed() >= seconds {
            break;
        }
    }
    values.extend(end_to_end(&samples));
    if let Some(secs) = tally.job("setup", Ok(setups.finish())) {
        values.insert("setup_s".into(), secs);
    }
    Ok(())
}

/// `--trace 1` on single-tenant jobs: per job (at most the first
/// [`TRACED_PANEL`]) an untraced and a traced run, in whole passes until
/// `seconds` have passed; each per-layer value is the median over the
/// traced runs. Simulated op times come from the
/// untraced run, so they are the program's own.
fn single_traced(
    kind: Kind,
    jobs: &[Vec<Tenant>],
    seconds: Duration,
    tally: &mut Tally,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut samples: Vec<BTreeMap<String, f64>> = Vec::new();
    while samples.is_empty() || start.elapsed() < seconds {
        for tenants in jobs.iter().take(TRACED_PANEL) {
            let t = &tenants[0];
            let plain = setup(tenants, None)?;
            let (r, untraced_wall, _) = measured(|| solo(&plain.jobs[0]));
            let reference = tally.job(&t.name, r);
            drop(plain);
            let st = setup(tenants, None)?;
            let tr = Trace::new();
            let (r, traced_wall, _) = measured(|| traced(&st.jobs[0], &tr));
            let report = tally.job(&format!("{} (traced)", t.name), r);
            let (Some(reference), Some(report)) = (reference, report) else {
                continue;
            };
            same_run(tally, &t.name, &reference, &report);
            let f1 = em_quality(&report.matches, &t.truth).f1;
            tally.check(f1 >= kind.f1_floor(), || {
                format!("{}: f1 {f1} below floor {}", t.name, kind.f1_floor())
            });
            let mut m = layer_values(&tr.summary(), &reference);
            derive(&mut m);
            ingest_values(&mut m, &st);
            m.insert(
                "trace.overhead_s".into(),
                traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
            );
            samples.push(m);
        }
        if tally.failed > 0 && samples.is_empty() {
            break;
        }
    }
    values.extend(medians(&samples));
    Ok(())
}

/// The traced run must reproduce the untraced one exactly.
fn same_run(tally: &mut Tally, name: &str, reference: &RunReport, report: &RunReport) {
    tally.check(reference.matches == report.matches, || {
        format!("{name}: traced match set differs from the untraced run")
    });
    tally.check(reference.ledger == report.ledger, || {
        format!(
            "{name}: traced ledger {:?} differs from untraced {:?}",
            report.ledger, reference.ledger
        )
    });
    tally.check(reference.candidate_size == report.candidate_size, || {
        format!(
            "{name}: traced candidate count {:?} differs from untraced {:?}",
            report.candidate_size, reference.candidate_size
        )
    });
}

/// Checks on one serve report; returns its tenants' match digests.
fn check_serve(tally: &mut Tally, tenants: &[Tenant], rep: &ServeReport) -> Vec<Option<u64>> {
    let digests = rep
        .outcomes
        .iter()
        .map(|o| {
            tally.check(o.status == TenantStatus::Ok, || {
                format!("{}: status {}", o.name, o.status.as_str())
            });
            let report = tally.job(&o.name, Ok(o.result.as_ref().map_err(ToString::to_string)))?;
            Some(match_digest(&report.matches))
        })
        .collect();
    let mean_f1 = serve_values(tenants, rep)["f1"];
    tally.check(mean_f1 >= Kind::ServeMixed.f1_floor(), || {
        format!(
            "serve: mean f1 {mean_f1} below floor {}",
            Kind::ServeMixed.f1_floor()
        )
    });
    digests
}

/// End-to-end values of one serve run. `sim_total_s` is the tenants' mean
/// virtual latency: the makespan is one tenant's latency and swung by a
/// tenth from seed to seed; it is reported per layer as
/// `serve.makespan_s`.
fn serve_values(tenants: &[Tenant], rep: &ServeReport) -> BTreeMap<String, f64> {
    let ok: Vec<(&RunReport, &Tenant)> = rep
        .outcomes
        .iter()
        .zip(tenants)
        .filter_map(|(o, t)| o.result.as_ref().ok().map(|r| (r, t)))
        .collect();
    let f1 = ok
        .iter()
        .map(|(r, t)| em_quality(&r.matches, &t.truth).f1)
        .sum::<f64>()
        / ok.len().max(1) as f64;
    let unmasked: f64 = ok
        .iter()
        .map(|(r, _)| r.unmasked_machine_time().as_secs_f64())
        .sum();
    let latency = rep
        .outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64())
        .sum::<f64>()
        / rep.outcomes.len().max(1) as f64;
    BTreeMap::from([
        ("f1".to_string(), f1),
        ("crowd_usd".to_string(), rep.aggregate_ledger().cost),
        ("sim_total_s".to_string(), latency),
        ("sim_unmasked_s".to_string(), unmasked),
    ])
}

/// One `falcon_serve::serve` run in a fresh journal directory, removed
/// afterwards. Returns the report, wall time, peak heap and journal bytes.
fn serve_once(
    tenants: &[Tenant],
    tmp: &Path,
    k: usize,
    tally: &mut Tally,
) -> Result<Option<(ServeReport, Duration, f64, u64)>, String> {
    let dir = scratch_dir(tmp, k)?;
    let st = setup(tenants, Some(&dir))?;
    let (r, wall, peak) = measured(|| served(st.jobs, &dir));
    let bytes = dir_bytes(&dir);
    let removed = std::fs::remove_dir_all(&dir);
    tally.check(removed.is_ok(), || {
        format!("remove {}: {removed:?}", dir.display())
    });
    Ok(tally.job("serve", r).map(|rep| (rep, wall, peak, bytes)))
}

/// Each tenant's solo run must give the match set it got on the shared
/// pool.
fn check_digests(tally: &mut Tally, name: &str, expected: Option<u64>, solo: &RunReport) {
    let got = match_digest(&solo.matches);
    tally.check(expected == Some(got), || {
        format!("{name}: solo match digest {got:x} differs from the served {expected:x?}")
    });
}

/// `--trace 0` on `serve_mixed`: whole passes of serve runs, one per
/// tenant set, until `seconds` have passed, with set-up samples taken
/// around the first pass's serve runs. Then, untimed, the first
/// tenant set runs solo, tenant by tenant, for the digest check.
fn serve_untraced(
    jobs: &[Vec<Tenant>],
    seconds: Duration,
    tmp: &Path,
    tally: &mut Tally,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut setups = SetupSampler::new(jobs, jobs.len() + 1);
    let mut samples = Vec::new();
    let mut first_digests = None;
    for pass in 0.. {
        for (k, tenants) in jobs.iter().enumerate() {
            if pass == 0 {
                setups.checkpoint();
            }
            let dir = pass * jobs.len() + k;
            let Some((rep, wall, peak, _)) = serve_once(tenants, tmp, dir, tally)? else {
                continue;
            };
            eprintln!(
                "serve {k}: wall {:.3}s, {} rounds",
                wall.as_secs_f64(),
                rep.rounds
            );
            let digests = check_serve(tally, tenants, &rep);
            if pass == 0 && k == 0 {
                first_digests = Some(digests);
            }
            let mut m = serve_values(tenants, &rep);
            m.insert("wall_s".into(), wall.as_secs_f64());
            m.insert("peak_heap_mb".into(), peak);
            samples.push(m);
        }
        if pass == 0 {
            setups.checkpoint();
        }
        if samples.is_empty() || start.elapsed() >= seconds {
            break;
        }
    }
    values.extend(end_to_end(&samples));
    if let Some(secs) = tally.job("setup", Ok(setups.finish())) {
        values.insert("setup_s".into(), secs);
    }
    if let Some(digests) = first_digests {
        let st = setup(&jobs[0], None)?;
        for (i, job) in st.jobs.iter().enumerate() {
            if let Some(reference) = tally.job(&job.name, solo(job)) {
                check_digests(
                    tally,
                    &job.name,
                    digests.get(i).copied().flatten(),
                    &reference,
                );
            }
        }
    }
    Ok(())
}

/// `--trace 1` on `serve_mixed`: one untraced serve run of the first
/// tenant set, then per tenant an untraced and a traced solo run.
/// Per-layer values are summed over the tenants; simulated op times come
/// from the untraced solo runs.
fn serve_traced(
    tenants: &[Tenant],
    tmp: &Path,
    tally: &mut Tally,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let Some((rep, serve_wall, _, bytes)) = serve_once(tenants, tmp, 0, tally)? else {
        return Ok(());
    };
    let digests = check_serve(tally, tenants, &rep);
    let plain = setup(tenants, None)?;
    let st = setup(tenants, None)?;
    let mut m = BTreeMap::new();
    let (mut untraced_total, mut traced_total) = (0.0, 0.0);
    for (i, (p, job)) in plain.jobs.iter().zip(&st.jobs).enumerate() {
        let (r, untraced_wall, _) = measured(|| solo(p));
        let reference = tally.job(&job.name, r);
        let tr = Trace::new();
        let (r, traced_wall, _) = measured(|| traced(job, &tr));
        let report = tally.job(&format!("{} (traced)", job.name), r);
        if let (Some(reference), Some(report)) = (reference, report) {
            check_digests(
                tally,
                &job.name,
                digests.get(i).copied().flatten(),
                &reference,
            );
            same_run(tally, &job.name, &reference, &report);
            add_values(&mut m, layer_values(&tr.summary(), &reference));
        }
        untraced_total += untraced_wall.as_secs_f64();
        traced_total += traced_wall.as_secs_f64();
    }
    derive(&mut m);
    ingest_values(&mut m, &st);
    let serve_s = serve_wall.as_secs_f64();
    m.insert("trace.overhead_s".into(), traced_total - untraced_total);
    m.insert("serve.wall_s".into(), serve_s);
    m.insert("serve.rounds".into(), rep.rounds as f64);
    m.insert("serve.makespan_s".into(), rep.makespan.as_secs_f64());
    m.insert("serve.sched_overhead_s".into(), serve_s - traced_total);
    m.insert("serve.utilization".into(), rep.utilization);
    m.insert("serve.masking_speedup".into(), rep.throughput_speedup());
    m.insert("journal.bytes".into(), bytes as f64);
    values.extend(m);
    Ok(())
}
