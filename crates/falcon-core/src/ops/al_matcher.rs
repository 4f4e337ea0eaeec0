//! `al_matcher` (Sections 4.2, 9, 10.2): crowdsourced active learning of a
//! random-forest matcher.
//!
//! Each iteration trains a forest on the labeled pairs so far, scores the
//! unlabeled pairs by vote disagreement on the cluster, sends the 20 most
//! controversial pairs to the crowd, and folds the labels back in — until
//! convergence or the iteration cap `k = 30` (the crowd-time cap of
//! Section 3.4).
//!
//! With [`AlConfig::mask_pair_selection`] the operator runs the paper's
//! Optimization 3: the first iteration selects a double batch, and from
//! then on model retraining and next-batch selection happen *during* the
//! crowd's labeling round — pair-selection machine time is recorded
//! against the masking budget rather than the critical path. The learned
//! matcher is an approximation (selection is one round stale), which the
//! paper shows costs negligible accuracy.

use crate::error::FalconError;
use crate::fv::FvSet;
use crate::timeline::{check_cancel, Timeline};
use falcon_crowd::{Crowd, CrowdSession};
use falcon_dataflow::{run_map_only, wall_now, Cluster};
use falcon_forest::{Dataset, Forest, ForestConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Duration;

/// Active-learning configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlConfig {
    /// Iteration cap `k` (paper: 30).
    pub max_iterations: usize,
    /// Pairs labeled per iteration (paper: 20).
    pub batch: usize,
    /// Convergence threshold on the maximum vote disagreement.
    pub convergence_eps: f64,
    /// Seed positives/negatives requested in the first round (half each).
    pub seeds: usize,
    /// Enable the masked-pair-selection optimization.
    pub mask_pair_selection: bool,
    /// Pair indices to label in the very first round (the Difficult
    /// Pairs' Locator feeds these in the iterative workflow).
    pub priority_indices: Vec<usize>,
    /// Forest configuration.
    pub forest: ForestConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlConfig {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            batch: 20,
            convergence_eps: 0.05,
            seeds: 10,
            mask_pair_selection: false,
            priority_indices: Vec::new(),
            forest: ForestConfig::default(),
            seed: 7,
        }
    }
}

/// Output of `al_matcher`.
pub struct AlOutput {
    /// The learned matcher.
    pub forest: Forest,
    /// Labeled examples as `(index into the FvSet, label)`.
    pub labeled: Vec<(usize, bool)>,
    /// Crowd iterations executed.
    pub iterations: usize,
    /// True iff stopped by convergence rather than the cap.
    pub converged: bool,
    /// Total pair-selection machine time.
    pub selection_time: Duration,
}

/// Heuristic "likely match" score for seeding: mean of the non-missing
/// similarity-oriented feature values.
fn seed_score(fv: &[f64], higher: &[bool]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (v, &h) in fv.iter().zip(higher) {
        if h && !v.is_nan() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Score disagreement of every unlabeled pair on the cluster; returns
/// `(index, disagreement)` in index order plus the (simulated) duration of
/// the job. `labeled[i]` marks pair `i` as excluded.
fn score_disagreement(
    cluster: &Cluster,
    forest: &Forest,
    fvs: &FvSet,
    labeled: &[bool],
) -> Result<(Vec<(usize, f64)>, Duration), FalconError> {
    // Each split carries one index range as a single record, so the map
    // task scores the range with the compiled forest's batch kernel
    // instead of pointer-chasing `Node`s one vector at a time. Ranges are
    // cut so each holds an equal share of the unlabeled pairs; the task
    // votes on its whole range (labeled pairs are a few hundred) and
    // emits only the unlabeled ones. The scoped dataflow workers borrow
    // the flat forest and vectors directly — no per-iteration clones.
    let flat = forest.flatten();
    let n_unlabeled = labeled.iter().filter(|&&l| !l).count();
    let chunk = n_unlabeled.div_ceil((cluster.threads() * 2).max(1)).max(1);
    let splits: Vec<Vec<Range<usize>>> = unlabeled_ranges(labeled, chunk)
        .into_iter()
        .map(|r| vec![r])
        .collect();
    let mut out = run_map_only(cluster, splits, |range: &Range<usize>, out| {
        let end = range.end.min(fvs.fvs.len());
        let start = range.start.min(end);
        let vectors = &fvs.fvs[start..end];
        let mut votes = Vec::new();
        flat.count_votes_into(vectors.len(), |j| vectors[j].as_slice(), &mut votes);
        out.extend(
            (start..end)
                .zip(&votes)
                .filter(|&(i, _)| !labeled[i])
                .map(|(i, &v)| (i, flat.disagreement_from_votes(v))),
        );
    })?;
    // Range-as-record wrapping counted ranges; restore the true count.
    out.stats.input_records = n_unlabeled;
    let dur = out.stats.sim_duration(&cluster.config);
    Ok((out.output, dur))
}

/// Cut `0..labeled.len()` into consecutive ranges that each hold `chunk`
/// unlabeled indices, the last one the remainder. This is the split layout
/// of chunking the list of unlabeled indices, without building that list;
/// labeled indices ride along in whichever range covers them.
fn unlabeled_ranges(labeled: &[bool], chunk: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let (mut start, mut seen) = (0, 0);
    for (i, &l) in labeled.iter().enumerate() {
        if l {
            continue;
        }
        seen += 1;
        if seen == chunk {
            ranges.push(start..i + 1);
            start = i + 1;
            seen = 0;
        }
    }
    if seen > 0 {
        ranges.push(start..labeled.len());
    }
    ranges
}

/// Pick the `batch` most controversial indices: highest disagreement
/// first, ties broken by index for determinism. The order is total over
/// distinct indices, so selecting the top `batch` and sorting only those
/// gives the same list as sorting everything.
fn top_controversial(mut scored: Vec<(usize, f64)>, batch: usize) -> Vec<usize> {
    let order = |a: &(usize, f64), b: &(usize, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if batch == 0 {
        return Vec::new();
    }
    if batch < scored.len() {
        scored.select_nth_unstable_by(batch - 1, order);
        scored.truncate(batch);
    }
    scored.sort_unstable_by(order);
    scored.into_iter().map(|(i, _)| i).collect()
}

/// Run `al_matcher` over a feature-vector set. `higher` flags which
/// features are similarity-oriented (for seeding); crowd interaction goes
/// through `session` and timings through `timeline` under `label`.
pub fn al_matcher<C: Crowd>(
    cluster: &Cluster,
    session: &mut CrowdSession<C>,
    timeline: &mut Timeline,
    label: &str,
    fvs: &FvSet,
    higher: &[bool],
    cfg: &AlConfig,
) -> Result<AlOutput, FalconError> {
    if fvs.is_empty() {
        return Err(FalconError::EmptyInput {
            what: "feature vectors",
        });
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x414c4d41);
    // Dense labeled mask over the pair indices, plus its population.
    let mut is_labeled = vec![false; fvs.len()];
    let mut n_labeled = 0usize;
    let mut data = Dataset::new();
    let mut labeled: Vec<(usize, bool)> = Vec::new();
    let mut selection_time = Duration::ZERO;
    let mut iterations = 0usize;
    let mut converged = false;

    let label_batch = |idxs: &[usize],
                       session: &mut CrowdSession<C>,
                       timeline: &mut Timeline,
                       data: &mut Dataset,
                       labeled: &mut Vec<(usize, bool)>,
                       is_labeled: &mut [bool],
                       n_labeled: &mut usize| {
        let pairs: Vec<_> = idxs.iter().map(|&i| fvs.pairs[i]).collect();
        let (answers, latency) = session.label_batch(&pairs);
        timeline.crowd(label, latency);
        for (&i, (_, l)) in idxs.iter().zip(answers) {
            if !is_labeled[i] {
                is_labeled[i] = true;
                *n_labeled += 1;
            }
            labeled.push((i, l));
            data.push(fvs.fvs[i].clone(), l);
        }
    };

    // ---- Seed round: likely positives + likely negatives ----
    let t0 = wall_now();
    let mut scored: Vec<(usize, f64)> = fvs
        .fvs
        .iter()
        .enumerate()
        .map(|(i, fv)| (i, seed_score(fv, higher)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let half = (cfg.seeds / 2).max(1).min(fvs.len() / 2 + 1);
    let mut seed_idx: Vec<usize> = cfg
        .priority_indices
        .iter()
        .copied()
        .filter(|i| *i < fvs.len())
        .collect();
    for (i, _) in scored.iter().take(half) {
        if !seed_idx.contains(i) {
            seed_idx.push(*i);
        }
    }
    for (i, _) in scored.iter().rev().take(half) {
        if !seed_idx.contains(i) {
            seed_idx.push(*i);
        }
    }
    selection_time += t0.elapsed();
    timeline.machine(label, t0.elapsed());
    label_batch(
        &seed_idx,
        session,
        timeline,
        &mut data,
        &mut labeled,
        &mut is_labeled,
        &mut n_labeled,
    );
    iterations += 1;

    // Guarantee two classes if possible: label random extras (up to 3
    // extra rounds).
    let mut guard = 0;
    while (data.positives() == 0 || data.positives() == data.len()) && guard < 3 {
        let mut rest: Vec<usize> = (0..fvs.len()).filter(|&i| !is_labeled[i]).collect();
        if rest.is_empty() {
            break;
        }
        rest.shuffle(&mut rng);
        rest.truncate(cfg.batch);
        label_batch(
            &rest,
            session,
            timeline,
            &mut data,
            &mut labeled,
            &mut is_labeled,
            &mut n_labeled,
        );
        iterations += 1;
        guard += 1;
    }

    let mut forest = Forest::train(&data, &cfg.forest, &mut rng);

    // ---- Active-learning iterations ----
    // In masked mode `pending` is the batch currently "at the crowd";
    // selection of the following batch happens during that round.
    let mut pending: Vec<usize> = Vec::new();
    if cfg.mask_pair_selection {
        let t = wall_now();
        let (scored, job_dur) = score_disagreement(cluster, &forest, fvs, &is_labeled)?;
        let picked = top_controversial(scored, cfg.batch * 2);
        let wall = t.elapsed().max(job_dur);
        selection_time += wall;
        // First (double) selection cannot be masked: nothing is at the
        // crowd yet.
        timeline.machine(label, wall);
        pending = picked;
    }

    while iterations < cfg.max_iterations && n_labeled < fvs.len() {
        // Cancellation point: a scheduler-cancelled tenant stops asking
        // crowd questions between AL iterations, with its journal intact.
        check_cancel(timeline, session)?;
        if cfg.mask_pair_selection {
            if pending.is_empty() {
                converged = true;
                break;
            }
            let now_batch: Vec<usize> = pending.drain(..pending.len().min(cfg.batch)).collect();
            // Post `now_batch`; while the crowd works, retrain and select
            // the next batch (masked machine time).
            let t = wall_now();
            forest = Forest::train(&data, &cfg.forest, &mut rng);
            // Exclude the batches in flight by marking them in the mask
            // for this one job, then unmarking exactly what was marked.
            let mut marked = Vec::new();
            for &i in now_batch.iter().chain(&pending) {
                if !is_labeled[i] {
                    is_labeled[i] = true;
                    marked.push(i);
                }
            }
            let scoring = score_disagreement(cluster, &forest, fvs, &is_labeled);
            for &i in &marked {
                is_labeled[i] = false;
            }
            let (scored, job_dur) = scoring?;
            let max_dis = scored.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
            let wall = t.elapsed().max(job_dur);
            selection_time += wall;
            timeline.masked_machine(label, wall);
            if max_dis >= cfg.convergence_eps {
                pending.extend(top_controversial(scored, cfg.batch));
            }
            label_batch(
                &now_batch,
                session,
                timeline,
                &mut data,
                &mut labeled,
                &mut is_labeled,
                &mut n_labeled,
            );
            iterations += 1;
        } else {
            // Unmasked: select with the freshest model, on the critical
            // path.
            let t = wall_now();
            forest = Forest::train(&data, &cfg.forest, &mut rng);
            let (scored, job_dur) = score_disagreement(cluster, &forest, fvs, &is_labeled)?;
            let max_dis = scored.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
            let batch = top_controversial(scored, cfg.batch);
            let wall = t.elapsed().max(job_dur);
            selection_time += wall;
            timeline.machine(label, wall);
            if max_dis < cfg.convergence_eps || batch.is_empty() {
                converged = true;
                break;
            }
            label_batch(
                &batch,
                session,
                timeline,
                &mut data,
                &mut labeled,
                &mut is_labeled,
                &mut n_labeled,
            );
            iterations += 1;
        }
    }

    // Final matcher trained on everything labeled.
    let t = wall_now();
    let forest = Forest::train(&data, &cfg.forest, &mut rng);
    timeline.machine(label, t.elapsed());

    Ok(AlOutput {
        forest,
        labeled,
        iterations,
        converged,
        selection_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_crowd::sim::{GroundTruth, OracleCrowd};
    use falcon_dataflow::ClusterConfig;

    /// A linearly separable synthetic pair universe: pairs (i, i) match.
    fn fixture(n: usize) -> (FvSet, GroundTruth, Vec<bool>) {
        let mut fvs = FvSet::default();
        let mut matches = Vec::new();
        for i in 0..n as u32 {
            for j in 0..3u32 {
                let b = (i + j * 7) % n as u32;
                let is_match = i == b;
                let sim = if is_match { 0.9 } else { 0.1 };
                fvs.pairs.push((i, b));
                fvs.fvs.push(vec![sim, 1.0 - sim]);
                if is_match {
                    matches.push((i, b));
                }
            }
        }
        (fvs, GroundTruth::new(matches), vec![true, false])
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    /// The full-sort selection `top_controversial` replaced.
    fn top_by_full_sort(mut scored: Vec<(usize, f64)>, batch: usize) -> Vec<usize> {
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.into_iter().take(batch).map(|(i, _)| i).collect()
    }

    #[test]
    fn top_controversial_equals_full_sort() {
        // Heavy ties (five distinct scores, including both zeros), indices
        // out of order, and batch sizes from 0 to past the input length.
        let scored: Vec<(usize, f64)> = (0..200)
            .map(|k| {
                let i = (k * 7919) % 200;
                let d = [0.5, 0.25, 0.0, -0.0, 0.4][k % 5];
                (i, d)
            })
            .collect();
        for batch in [0, 1, 2, 19, 20, 41, 199, 200, 201, 1000] {
            assert_eq!(
                top_controversial(scored.clone(), batch),
                top_by_full_sort(scored.clone(), batch),
                "batch {batch}"
            );
        }
        assert!(top_controversial(Vec::new(), 5).is_empty());
    }

    #[test]
    fn unlabeled_ranges_hold_equal_unlabeled_shares() {
        let labeled: Vec<bool> = (0..23).map(|i| i % 4 == 0 || i == 22).collect();
        let unlabeled: Vec<usize> = (0..23).filter(|&i| !labeled[i]).collect();
        for chunk in [1, 2, 5, 16, 17, 40] {
            let ranges = unlabeled_ranges(&labeled, chunk);
            let cut: Vec<Vec<usize>> = ranges
                .iter()
                .map(|r| r.clone().filter(|&i| !labeled[i]).collect())
                .collect();
            let want: Vec<Vec<usize>> = unlabeled.chunks(chunk).map(<[usize]>::to_vec).collect();
            assert_eq!(cut, want, "chunk {chunk}");
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
        assert!(unlabeled_ranges(&[true, true], 1).is_empty());
    }

    #[test]
    fn learns_separable_matcher() {
        let (fvs, truth, higher) = fixture(40);
        let mut session = CrowdSession::new(OracleCrowd::new(truth.clone()));
        let mut tl = Timeline::new();
        let out = al_matcher(
            &cluster(),
            &mut session,
            &mut tl,
            "al_matcher",
            &fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        // Perfect on the training universe.
        for (pair, fv) in fvs.iter() {
            assert_eq!(out.forest.predict(fv), truth.is_match(pair), "{pair:?}");
        }
        assert!(out.iterations <= 30);
        assert!(!out.labeled.is_empty());
    }

    #[test]
    fn converges_before_cap_on_easy_data() {
        let (fvs, truth, higher) = fixture(40);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = al_matcher(
            &cluster(),
            &mut session,
            &mut tl,
            "al",
            &fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        assert!(out.converged);
        assert!(out.iterations < 30, "{}", out.iterations);
    }

    #[test]
    fn iteration_cap_respected() {
        let (fvs, truth, higher) = fixture(60);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let cfg = AlConfig {
            max_iterations: 3,
            convergence_eps: 0.0,
            ..Default::default()
        };
        let out =
            al_matcher(&cluster(), &mut session, &mut tl, "al", &fvs, &higher, &cfg).expect("al");
        assert!(out.iterations <= 3);
    }

    #[test]
    fn masked_selection_matches_accuracy() {
        let (fvs, truth, higher) = fixture(40);
        let mut tl = Timeline::new();
        let mut session = CrowdSession::new(OracleCrowd::new(truth.clone()));
        let cfg = AlConfig {
            mask_pair_selection: true,
            ..Default::default()
        };
        let out =
            al_matcher(&cluster(), &mut session, &mut tl, "al", &fvs, &higher, &cfg).expect("al");
        let correct = fvs
            .iter()
            .filter(|(p, fv)| out.forest.predict(fv) == truth.is_match(*p))
            .count();
        assert!(correct as f64 / fvs.len() as f64 > 0.95);
        // Masked mode must have logged masked machine segments.
        assert!(tl
            .segments()
            .iter()
            .any(|s| matches!(s, crate::timeline::Segment::MaskedMachine { .. })));
    }

    #[test]
    fn crowd_rounds_equal_iterations() {
        let (fvs, truth, higher) = fixture(30);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = al_matcher(
            &cluster(),
            &mut session,
            &mut tl,
            "al",
            &fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        assert_eq!(session.ledger().rounds, out.iterations);
    }
}
