//! The traced run: `Falcon::try_run` and `Falcon::try_run_workflow`
//! replayed from outside, calling each layer's public function in the
//! order `falcon_core::driver` does and wrapping every call in a span.
//!
//! The replay must compute exactly what the driver computes; the
//! benchmark checks its match set, ledger and candidate count against an
//! untraced run of the same job on every traced run.

use crate::alloc;
use crate::trace::{Trace, TracedCrowd};
use falcon_core::analyze;
use falcon_core::driver::{FalconConfig, RunReport};
use falcon_core::error::FalconError;
use falcon_core::features::{generate_features, FeatureLibrary};
use falcon_core::fv::FvSet;
use falcon_core::indexing::{BuiltIndexes, ConjunctSpecs};
use falcon_core::ops::accuracy_estimator::{estimate_accuracy, AccuracyEstimate, EstimatorConfig};
use falcon_core::ops::al_matcher::{al_matcher, AlConfig};
use falcon_core::ops::apply_matcher::apply_matcher;
use falcon_core::ops::difficult_pairs::locate_difficult_pairs;
use falcon_core::ops::eval_rules::{eval_rules, EvalConfig, EvaluatedRule};
use falcon_core::ops::gen_fvs::gen_fvs;
use falcon_core::ops::get_blocking_rules::get_blocking_rules;
use falcon_core::ops::sample_pairs::sample_pairs;
use falcon_core::ops::select_opt_seq::select_opt_seq;
use falcon_core::optimizer::{prebuild_for_rules, prebuild_generic, speculate_rules};
use falcon_core::physical::{self, estimate_table_bytes, BlockingStats, PhysicalOp};
use falcon_core::plan::{choose_plan, PlanKind};
use falcon_core::rules::RuleSequence;
use falcon_core::stage::{shape_of, shape_sum};
use falcon_core::timeline::{check_cancel, Timeline};
use falcon_crowd::{Crowd, CrowdSession};
use falcon_dataflow::{run_map_only, wall_now, Cluster, JobStats};
use falcon_forest::Forest;
use falcon_table::{IdPair, Table};
use std::collections::HashMap;
use std::sync::Arc;

type Session<C> = CrowdSession<TracedCrowd<C>>;

/// One traced job: `workflow_rounds == 0` replays `try_run`, otherwise
/// `try_run_workflow` with that outer-round cap. The whole job is one
/// root span named `job`.
pub fn run<C: Crowd>(
    cfg: &FalconConfig,
    a: &Table,
    b: &Table,
    crowd: C,
    workflow_rounds: usize,
    tr: &Trace,
) -> Result<RunReport, FalconError> {
    tr.span("job", || {
        let t = Traced { cfg, a, b, tr };
        let analysis = tr.span("analyze", || analyze::analyze(a, b, cfg));
        if !analysis.is_ok() {
            return Err(FalconError::Plan(analysis.errors));
        }
        let cluster = Cluster::new(cfg.cluster.clone());
        let cluster = match &cfg.fault {
            Some(plan) => cluster.with_faults(plan.clone()),
            None => cluster,
        };
        let mut session = CrowdSession::new(TracedCrowd::new(crowd, tr.clone()));
        let mut timeline = Timeline::new();
        let lib = tr.span("gen_features", || {
            let t0 = wall_now();
            let lib = generate_features(a, b);
            timeline.machine("gen_features", t0.elapsed());
            lib
        });
        let mut report = if workflow_rounds > 0 {
            t.workflow(&lib, &cluster, &mut session, timeline, workflow_rounds)?
        } else {
            let plan = tr.span("plan", || {
                cfg.force_plan.unwrap_or_else(|| {
                    choose_plan(
                        a,
                        b,
                        lib.matching.len(),
                        cfg.cluster.mapper_memory_bytes,
                        cfg.max_pairs,
                    )
                })
            });
            match plan {
                PlanKind::MatchOnly => t.match_only(&lib, &cluster, &mut session, &mut timeline)?,
                PlanKind::BlockAndMatch => {
                    t.block_and_match(&lib, &cluster, &mut session, &mut timeline)?
                }
            }
        };
        report.faults = cluster.fault_stats().unwrap_or_default();
        report.journal_error = session.journal_error().map(ToString::to_string);
        Ok(report)
    })
}

struct Traced<'a> {
    cfg: &'a FalconConfig,
    a: &'a Table,
    b: &'a Table,
    tr: &'a Trace,
}

struct Blocked {
    candidates: Vec<IdPair>,
    physical_op: PhysicalOp,
    seq: RuleSequence,
    rules_extracted: usize,
    rules_retained: usize,
    sample_len: usize,
    blocking: Option<BlockingStats>,
}

struct Matched {
    matches: Vec<IdPair>,
    forest: Option<Forest>,
    fvs: FvSet,
    labeled: Vec<(usize, bool)>,
}

impl Traced<'_> {
    /// Count the dataflow jobs whose statistics a layer returns.
    fn jobs<'s>(&self, stats: impl IntoIterator<Item = &'s JobStats>) {
        for s in stats {
            self.tr.count("dataflow.jobs", 1.0);
            self.tr.count("dataflow.map_tasks", s.map_tasks as f64);
            self.tr.count("dataflow.records", s.input_records as f64);
            self.tr
                .count("dataflow.failed_attempts", s.faults.retries as f64);
        }
    }

    fn report(
        &self,
        lib: &FeatureLibrary,
        session: &Session<impl Crowd>,
        timeline: Timeline,
        plan: PlanKind,
        block: Option<Blocked>,
        matches: Vec<IdPair>,
    ) -> RunReport {
        let (physical, candidate_size, rule_sequence, extracted, retained, sample_size, blocking) =
            match block {
                Some(b) => (
                    Some(b.physical_op),
                    Some(b.candidates.len()),
                    b.seq,
                    b.rules_extracted,
                    b.rules_retained,
                    b.sample_len,
                    b.blocking,
                ),
                None => (None, None, RuleSequence::default(), 0, 0, 0, None),
            };
        RunReport {
            matches,
            plan,
            physical,
            candidate_size,
            rule_sequence,
            rules_extracted: extracted,
            rules_retained: retained,
            sample_size,
            timeline,
            ledger: session.ledger(),
            feature_counts: (lib.blocking.len(), lib.matching.len()),
            faults: Default::default(),
            journal_error: None,
            blocking,
        }
    }

    fn match_only<C: Crowd>(
        &self,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut Session<C>,
        timeline: &mut Timeline,
    ) -> Result<RunReport, FalconError> {
        let (cfg, a, b, tr) = (self.cfg, self.a, self.b, self.tr);
        session.mark_op("match_only_stage");
        check_cancel(timeline, session)?;
        let pairs: Vec<IdPair> = tr.span("cross_product", || {
            (0..a.len() as u32)
                .flat_map(|x| (0..b.len() as u32).map(move |y| (x, y)))
                .collect()
        });
        let fv_out = self.gen_fvs_m(cluster, &pairs, lib)?;
        let (tasks, records) = shape_sum(fv_out.prep_stats.iter().chain([&fv_out.stats]));
        timeline.machine_shaped(
            "gen_fvs_m",
            fv_out.sim_duration(&cfg.cluster),
            tasks,
            records,
        );
        check_cancel(timeline, session)?;
        let higher: Vec<bool> = lib
            .matching
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al_cfg = AlConfig {
            mask_pair_selection: false,
            seed: cfg.seed,
            ..cfg.al.clone()
        };
        let al = tr.span("al_matcher_m", || {
            al_matcher(
                cluster,
                session,
                timeline,
                "al_matcher_m",
                &fv_out.fvs,
                &higher,
                &al_cfg,
            )
        })?;
        tr.count("al_matcher_m.iterations", al.iterations as f64);
        tr.count("al_matcher_m.labels", al.labeled.len() as f64);
        let applied = tr.span("apply_matcher", || {
            apply_matcher(cluster, &al.forest, &fv_out.fvs)
        })?;
        tr.count("apply_matcher.pairs", fv_out.fvs.len() as f64);
        self.jobs([&applied.stats]);
        let (tasks, records) = shape_of(&applied.stats);
        timeline.machine_shaped(
            "apply_matcher",
            applied.stats.sim_duration(&cfg.cluster),
            tasks,
            records,
        );
        Ok(self.report(
            lib,
            session,
            std::mem::take(timeline),
            PlanKind::MatchOnly,
            None,
            applied.matches,
        ))
    }

    fn gen_fvs_m(
        &self,
        cluster: &Cluster,
        pairs: &[IdPair],
        lib: &FeatureLibrary,
    ) -> Result<falcon_core::ops::gen_fvs::GenFvsOutput, FalconError> {
        alloc::reset_peak();
        let out = self.tr.span("gen_fvs_m", || {
            gen_fvs(cluster, self.a, self.b, pairs, &lib.matching)
        })?;
        let tr = self.tr;
        tr.max("gen_fvs_m.heap_peak_mb", alloc::peak_bytes() as f64 / 1e6);
        tr.count("gen_fvs_m.pairs", pairs.len() as f64);
        self.jobs(out.prep_stats.iter().chain([&out.stats]));
        Ok(out)
    }

    #[allow(clippy::too_many_lines)]
    fn blocking_stage<C: Crowd>(
        &self,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut Session<C>,
        timeline: &mut Timeline,
    ) -> Result<Blocked, FalconError> {
        let (cfg, a, b, tr) = (self.cfg, self.a, self.b, self.tr);
        session.mark_op("blocking_stage");
        check_cancel(timeline, session)?;
        let mut built = BuiltIndexes::new();

        let sample = tr.span("sample_pairs", || {
            sample_pairs(cluster, a, b, cfg.sample_size, cfg.sample_fanout, cfg.seed)
        })?;
        tr.count("sample_pairs.pairs", sample.pairs.len() as f64);
        self.jobs([&sample.index_job, &sample.pair_job]);
        let (tasks, records) = shape_sum([&sample.index_job, &sample.pair_job]);
        timeline.machine_shaped(
            "sample_pairs",
            sample.index_job.sim_duration(&cfg.cluster)
                + sample.pair_job.sim_duration(&cfg.cluster),
            tasks,
            records,
        );
        check_cancel(timeline, session)?;

        let s_fvs = tr.span("gen_fvs_b", || {
            gen_fvs(cluster, a, b, &sample.pairs, &lib.blocking)
        })?;
        tr.count("gen_fvs_b.pairs", sample.pairs.len() as f64);
        self.jobs(s_fvs.prep_stats.iter().chain([&s_fvs.stats]));
        let (tasks, records) = shape_sum(s_fvs.prep_stats.iter().chain([&s_fvs.stats]));
        timeline.machine_shaped(
            "gen_fvs_b",
            s_fvs.sim_duration(&cfg.cluster),
            tasks,
            records,
        );
        check_cancel(timeline, session)?;

        let higher_b: Vec<bool> = lib
            .blocking
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al_cfg = AlConfig {
            mask_pair_selection: false,
            seed: cfg.seed,
            ..cfg.al.clone()
        };
        let al_b = tr.span("al_matcher_b", || {
            al_matcher(
                cluster,
                session,
                timeline,
                "al_matcher_b",
                &s_fvs.fvs,
                &higher_b,
                &al_cfg,
            )
        })?;

        let indexes = |built: &BuiltIndexes| (built.indexes.len() + built.orders.len()) as f64;
        if cfg.opt.prebuild_indexes {
            let before = indexes(&built);
            tr.span("prebuild", || {
                prebuild_generic(cluster, a, &lib.blocking, &mut built, timeline)
            })?;
            tr.count("prebuild.indexes", indexes(&built) - before);
        }
        check_cancel(timeline, session)?;

        let ranked = tr.span("get_blocking_rules", || {
            let t0 = wall_now();
            let ranked = get_blocking_rules(&al_b.forest, &s_fvs.fvs, cfg.max_rules, &higher_b);
            timeline.machine("get_block_rules", t0.elapsed());
            ranked
        });
        let rules_extracted = ranked.len();
        tr.count("get_blocking_rules.rules", rules_extracted as f64);
        check_cancel(timeline, session)?;

        let eval_cfg = EvalConfig {
            seed: cfg.seed,
            ..cfg.eval.clone()
        };
        let eval = tr.span("eval_rules", || {
            eval_rules(session, timeline, &ranked, &s_fvs.fvs, &eval_cfg)
        });
        tr.count("eval_rules.retained", eval.retained.len() as f64);
        if cfg.opt.prebuild_indexes {
            let before = indexes(&built);
            tr.span("prebuild", || {
                prebuild_for_rules(
                    cluster,
                    a,
                    &ranked.rules,
                    &lib.blocking,
                    &cfg.prefilter,
                    &mut built,
                    timeline,
                )
            })?;
            tr.count("prebuild.indexes", indexes(&built) - before);
        }
        let speculated = if cfg.opt.speculative_execution {
            let rules_with_sel: Vec<_> = ranked
                .rules
                .iter()
                .enumerate()
                .map(|(i, r)| (r.clone(), ranked.selectivity(i)))
                .collect();
            tr.span("speculate", || {
                speculate_rules(
                    cluster,
                    a,
                    b,
                    &rules_with_sel,
                    &lib.blocking,
                    &cfg.prefilter,
                    &mut built,
                    timeline,
                    cfg.max_pairs,
                )
            })?
        } else {
            HashMap::new()
        };
        tr.count("speculate.rules_run", speculated.len() as f64);
        check_cancel(timeline, session)?;

        let retained: Vec<EvaluatedRule> = if eval.retained.is_empty() && !ranked.is_empty() {
            vec![EvaluatedRule {
                rule: ranked.rules[0].clone(),
                rank_idx: 0,
                precision: 0.0,
                epsilon: 1.0,
                iterations: 0,
            }]
        } else {
            eval.retained.clone()
        };
        let rules_retained = eval.retained.len();

        let seq_out = tr.span("select_opt_seq", || {
            let t0 = wall_now();
            let seq_out = select_opt_seq(&ranked, &retained, &s_fvs.fvs, &cfg.seq);
            timeline.machine("sel_opt_seq", t0.elapsed());
            seq_out
        });
        let (seq_errors, _) = tr.span("analyze", || {
            analyze::verify_rule_sequence_with(&seq_out.seq, &lib.blocking, &cfg.prefilter)
        });
        if !seq_errors.is_empty() {
            return Err(FalconError::Plan(seq_errors));
        }

        let conjuncts = ConjunctSpecs::derive_with(&seq_out.seq, &lib.blocking, &cfg.force_filters)
            .with_signatures(&cfg.prefilter);
        let before = indexes(&built);
        tr.span("index_build", || -> Result<(), FalconError> {
            for (spec, key) in conjuncts.all_specs_keyed() {
                let dur = built.build_spec_keyed(cluster, a, spec, key)?;
                timeline.machine_shaped("index_build", dur, 1, a.len() as u64);
            }
            Ok(())
        })?;
        tr.count("index_build.indexes", indexes(&built) - before);
        check_cancel(timeline, session)?;

        let spec_hit: Option<&Vec<IdPair>> = seq_out
            .seq
            .rules
            .iter()
            .filter_map(|r| speculated.get(&r.canonical_key()))
            .min_by_key(|o| o.len());
        tr.count("speculate.hit", f64::from(u8::from(spec_hit.is_some())));
        let (candidates, physical_op, blocking) = if let Some(base) = spec_hit {
            let (c, stats) = tr.span("probe", || -> Result<_, FalconError> {
                let evaluator = Arc::new(physical::PairEvaluator::new(
                    a,
                    b,
                    &lib.blocking,
                    &seq_out.seq,
                ));
                let n_pairs = base.len();
                let chunk = n_pairs.div_ceil((cluster.threads() * 2).max(1)).max(1);
                let splits: Vec<Vec<Vec<IdPair>>> =
                    base.chunks(chunk).map(|c| vec![c.to_vec()]).collect();
                let mut out =
                    run_map_only(cluster, splits, move |pair_chunk: &Vec<IdPair>, acc| {
                        let mut fv = Vec::new();
                        for &(x, y) in pair_chunk {
                            if evaluator.keeps_scratch(x, y, &mut fv) {
                                acc.push((x, y));
                            }
                        }
                    })?;
                out.stats.input_records = n_pairs;
                let mut c = out.output;
                c.sort_unstable();
                Ok((c, out.stats))
            })?;
            tr.count("probe.pairs_examined", base.len() as f64);
            self.jobs([&stats]);
            let (tasks, records) = shape_of(&stats);
            timeline.machine_shaped(
                "apply_block_rules",
                stats.sim_duration(&cfg.cluster),
                tasks,
                records,
            );
            (c, cfg.force_physical.unwrap_or(PhysicalOp::ApplyAll), None)
        } else {
            let op = cfg.force_physical.unwrap_or_else(|| {
                physical::select_physical(
                    &conjuncts,
                    &built,
                    &seq_out.rule_selectivities,
                    seq_out.selectivity,
                    cfg.cluster.mapper_memory_bytes,
                    estimate_table_bytes(a),
                    cfg.greedy_ratio,
                )
            });
            let execute = |op| {
                physical::execute(
                    op,
                    cluster,
                    a,
                    b,
                    &lib.blocking,
                    &seq_out.seq,
                    &conjuncts,
                    &built,
                    &seq_out.rule_selectivities,
                    cfg.max_pairs,
                )
            };
            let res = match tr.span("probe", || execute(op)) {
                Ok(res) => res,
                Err(_) => tr.span("probe", || execute(PhysicalOp::ApplyAll))?,
            };
            let bs = &res.blocking;
            tr.count("probe.pairs_examined", bs.pairs_examined() as f64);
            tr.count("probe.pruned_by_signature", bs.pruned_by_signature() as f64);
            tr.count("probe.pruned_by_exact", bs.pruned_by_exact() as f64);
            self.jobs(&res.jobs);
            let (tasks, records) = shape_sum(&res.jobs);
            timeline.machine_shaped("apply_block_rules", res.duration, tasks, records);
            (res.candidates, res.op, Some(res.blocking))
        };
        tr.count("probe.candidates", candidates.len() as f64);

        Ok(Blocked {
            candidates,
            physical_op,
            seq: seq_out.seq,
            rules_extracted,
            rules_retained,
            sample_len: sample.pairs.len(),
            blocking,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn matching_stage<C: Crowd>(
        &self,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut Session<C>,
        timeline: &mut Timeline,
        candidates: &[IdPair],
        priority: Vec<usize>,
        seed_salt: u64,
    ) -> Result<Matched, FalconError> {
        let (cfg, tr) = (self.cfg, self.tr);
        session.mark_op("matching_stage");
        check_cancel(timeline, session)?;
        let c_fvs = self.gen_fvs_m(cluster, candidates, lib)?;
        let (tasks, records) = shape_sum(c_fvs.prep_stats.iter().chain([&c_fvs.stats]));
        timeline.machine_shaped(
            "gen_fvs_m",
            c_fvs.sim_duration(&cfg.cluster),
            tasks,
            records,
        );
        check_cancel(timeline, session)?;
        if c_fvs.fvs.is_empty() {
            return Ok(Matched {
                matches: Vec::new(),
                forest: None,
                fvs: c_fvs.fvs,
                labeled: Vec::new(),
            });
        }
        let higher_m: Vec<bool> = lib
            .matching
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al_m_cfg = AlConfig {
            mask_pair_selection: cfg.opt.mask_pair_selection
                && candidates.len() >= cfg.mask_selection_threshold,
            seed: cfg.seed ^ 1 ^ seed_salt,
            priority_indices: priority,
            ..cfg.al.clone()
        };
        let al_m = tr.span("al_matcher_m", || {
            al_matcher(
                cluster,
                session,
                timeline,
                "al_matcher_m",
                &c_fvs.fvs,
                &higher_m,
                &al_m_cfg,
            )
        })?;
        tr.count("al_matcher_m.iterations", al_m.iterations as f64);
        tr.count("al_matcher_m.labels", al_m.labeled.len() as f64);
        let applied = tr.span("apply_matcher", || {
            apply_matcher(cluster, &al_m.forest, &c_fvs.fvs)
        })?;
        tr.count("apply_matcher.pairs", c_fvs.fvs.len() as f64);
        self.jobs([&applied.stats]);
        let dur = applied.stats.sim_duration(&cfg.cluster);
        let (tasks, records) = shape_of(&applied.stats);
        if cfg.opt.speculative_execution && al_m.converged {
            timeline.masked_machine_shaped("apply_matcher", dur, tasks, records);
        } else {
            timeline.machine_shaped("apply_matcher", dur, tasks, records);
        }
        Ok(Matched {
            matches: applied.matches,
            forest: Some(al_m.forest),
            fvs: c_fvs.fvs,
            labeled: al_m.labeled,
        })
    }

    fn block_and_match<C: Crowd>(
        &self,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut Session<C>,
        timeline: &mut Timeline,
    ) -> Result<RunReport, FalconError> {
        let block = self.blocking_stage(lib, cluster, session, timeline)?;
        let matched = self.matching_stage(
            lib,
            cluster,
            session,
            timeline,
            &block.candidates,
            Vec::new(),
            0,
        )?;
        Ok(self.report(
            lib,
            session,
            std::mem::take(timeline),
            PlanKind::BlockAndMatch,
            Some(block),
            matched.matches,
        ))
    }

    fn workflow<C: Crowd>(
        &self,
        lib: &FeatureLibrary,
        cluster: &Cluster,
        session: &mut Session<C>,
        mut timeline: Timeline,
        max_outer: usize,
    ) -> Result<RunReport, FalconError> {
        let (cfg, tr) = (self.cfg, self.tr);
        let block = self.blocking_stage(lib, cluster, session, &mut timeline)?;
        let mut estimates: Vec<AccuracyEstimate> = Vec::new();
        let mut best: Option<(f64, Matched)> = None;
        let mut priority: Vec<usize> = Vec::new();
        let mut known: HashMap<usize, bool> = HashMap::new();
        for round in 0..max_outer.max(1) {
            let outcome = self.matching_stage(
                lib,
                cluster,
                session,
                &mut timeline,
                &block.candidates,
                std::mem::take(&mut priority),
                round as u64,
            )?;
            for (i, l) in &outcome.labeled {
                known.insert(*i, *l);
            }
            let Some(forest) = outcome.forest.as_ref() else {
                best = Some((0.0, outcome));
                break;
            };
            session.mark_op("accuracy_estimator");
            check_cancel(&timeline, session)?;
            let est = tr.span("accuracy_estimator", || {
                estimate_accuracy(
                    session,
                    &mut timeline,
                    forest,
                    &outcome.fvs,
                    &EstimatorConfig {
                        seed: cfg.seed ^ round as u64,
                        ..EstimatorConfig::default()
                    },
                )
            });
            let improved = estimates.last().is_none_or(|prev| est.f1 > prev.f1 + 0.01);
            let difficult = tr.span("difficult_pairs", || {
                locate_difficult_pairs(forest, &outcome.fvs, &known, cfg.al.batch)
            });
            priority = difficult.into_iter().map(|d| d.index).collect();
            let keep_going = improved && !priority.is_empty() && round + 1 < max_outer;
            if best.as_ref().is_none_or(|(f1, _)| est.f1 >= *f1) {
                best = Some((est.f1, outcome));
            }
            estimates.push(est);
            if !keep_going {
                break;
            }
        }
        let Some((_, matched)) = best else {
            return Err(FalconError::EmptyInput {
                what: "workflow rounds",
            });
        };
        Ok(self.report(
            lib,
            session,
            timeline,
            PlanKind::BlockAndMatch,
            Some(block),
            matched.matches,
        ))
    }
}
