//! Figures 6 & 9 — end-to-end selection runtime and scalability.
//!
//! (a) wall-clock of each method's full B = 20C selection on Cora-like,
//!     PubMed-like, Reddit-like, with speedups relative to ANRMAB (the
//!     paper reports 37-231x for ball-D on GPU, 140-964x on CPU; this
//!     reproduction is CPU-only, so the Figure 9 regime applies);
//! (b) scaling curve on papers-like at growing node counts: Grain stays
//!     near-linear while AGE's per-round retraining blows up (the paper
//!     extrapolates AGE to >1 year at 100M nodes).

use grain_bench::lineup::al_lineup;
use grain_bench::{table, timed_selection, Flags, MarkdownTable};
use grain_core::{
    Budget, GrainConfig, GrainService, PruneStrategy, SelectionEngine, SelectionRequest,
};
use grain_data::Dataset;
use grain_graph::Graph;
use grain_linalg::DenseMatrix;
use grain_select::{ModelKind, SelectionContext};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let flags = Flags::from_env();
    let mut block = String::from("## Figures 6 & 9: end-to-end selection runtime (CPU)\n");
    block.push_str(&part_a(&flags));
    block.push_str(&part_b(&flags));
    block.push_str(
        "\nPaper's claim: Grain is one to two orders of magnitude faster than \
         learning-based AL and scales near-linearly with graph size.\n",
    );
    flags.emit(&block);
}

fn part_a(flags: &Flags) -> String {
    let datasets: Vec<Dataset> = if flags.fast {
        vec![grain_data::synthetic::papers_like(1500, flags.seed)]
    } else {
        vec![
            grain_data::synthetic::cora_like(flags.seed),
            grain_data::synthetic::pubmed_like(flags.seed),
            grain_data::synthetic::reddit_like(flags.seed),
        ]
    };
    let mut out = String::from("\n### (a) selection wall-clock at B = 20C\n\n");
    for dataset in &datasets {
        let budget = 20 * dataset.num_classes;
        let ctx = SelectionContext::new(dataset, flags.seed);
        let mut methods = al_lineup(flags.seed, flags.fast, ModelKind::default());
        let mut rows: Vec<(String, Duration)> = Vec::new();
        for method in &mut methods {
            let (_, dur) = timed_selection(method.as_mut(), &ctx, budget);
            rows.push((method.name().to_string(), dur));
        }
        let anrmab = rows
            .iter()
            .find(|(n, _)| n == "anrmab")
            .map(|(_, d)| d.as_secs_f64())
            .unwrap_or(f64::NAN);
        let mut t = MarkdownTable::new(&["method", "runtime", "speedup vs anrmab"]);
        for (name, dur) in &rows {
            let speedup = anrmab / dur.as_secs_f64();
            t.push_row(vec![
                name.clone(),
                table::secs(*dur),
                if name == "anrmab" {
                    "1.0x".into()
                } else {
                    format!("{speedup:.1}x")
                },
            ]);
        }
        out.push_str(&format!("\n#### {}\n\n{}", dataset.name, t.render()));
    }
    out
}

fn part_b(flags: &Flags) -> String {
    let scales: Vec<usize> = if flags.fast {
        vec![2_000, 5_000, 10_000]
    } else {
        vec![10_000, 20_000, 50_000, 100_000]
    };
    // Learning-based AL only runs at the small scales; beyond the cap the
    // row reports OOT, mirroring the paper's two-week cutoff.
    let age_cap = if flags.fast { 5_000 } else { 20_000 };
    let mut t = MarkdownTable::new(&[
        "nodes",
        "grain(ball-d)",
        "grain(ball-d) warm",
        "grain(ball-d)+prune",
        "grain(nn-d)+prune",
        "age",
    ]);
    for &n in &scales {
        let dataset = grain_data::synthetic::papers_like(n, flags.seed);
        let budget = 20 * dataset.num_classes;
        let corpus = ServedCorpus::of(&dataset);
        // The context engine shares the corpus handles — one graph + one
        // feature matrix allocation serves the context, the timing
        // services, and the AGE run at every scale.
        let ctx = SelectionContext::over_engine(
            &dataset,
            flags.seed,
            SelectionEngine::over(
                GrainConfig::default(),
                Arc::clone(&corpus.graph),
                Arc::clone(&corpus.features),
            )
            .expect("synthetic corpus is well-formed"),
        );

        let ball = time_grain(&corpus, GrainConfig::ball_d(), budget);
        let ball_warm = time_grain_warm(&corpus, GrainConfig::ball_d(), budget);
        let pruned_cfg = GrainConfig {
            prune: Some(PruneStrategy::WalkMass { keep_fraction: 0.2 }),
            ..GrainConfig::ball_d()
        };
        let ball_pruned = time_grain(&corpus, pruned_cfg, budget);
        // NN-D's gain evaluation scans all nodes per candidate, so §3.4
        // pruning is mandatory at scale (the paper's NN-D at 100M likewise
        // runs 1.6x slower than ball-D *with* uninfluential-node dismissal).
        let nn_keep = (2_000.0 / dataset.split.train.len() as f64).min(1.0);
        let nn_cfg = GrainConfig {
            prune: Some(PruneStrategy::WalkMass {
                keep_fraction: nn_keep,
            }),
            ..GrainConfig::nn_d()
        };
        let nn = time_grain(&corpus, nn_cfg, budget);
        let age = if n <= age_cap {
            let mut methods = al_lineup(flags.seed, flags.fast, ModelKind::Sgc { k: 2 });
            let age_sel = methods
                .iter_mut()
                .find(|m| m.name() == "age")
                .expect("lineup contains age");
            let (_, dur) = timed_selection(age_sel.as_mut(), &ctx, budget);
            table::secs(dur)
        } else {
            "OOT".to_string()
        };
        t.push_row(vec![
            n.to_string(),
            table::secs(ball),
            table::secs(ball_warm),
            table::secs(ball_pruned),
            table::secs(nn),
            age,
        ]);
    }
    format!("\n### (b) scaling on papers-like corpora\n\n{}", t.render())
}

/// A dataset wrapped in the shared corpus handles the service registers —
/// built once per scale so each timed call shares, not deep-clones, the
/// graph and feature matrix.
struct ServedCorpus {
    name: String,
    graph: Arc<Graph>,
    features: Arc<DenseMatrix>,
    candidates: Vec<u32>,
}

impl ServedCorpus {
    fn of(dataset: &Dataset) -> Self {
        Self {
            name: dataset.name.clone(),
            graph: Arc::new(dataset.graph.clone()),
            features: Arc::new(dataset.features.clone()),
            candidates: dataset.split.train.clone(),
        }
    }

    /// A one-graph service plus the request the timing helpers replay —
    /// the same front door production serving uses, so the figure
    /// measures the served path end to end.
    fn service_and_request(
        &self,
        config: GrainConfig,
        budget: usize,
    ) -> (GrainService, SelectionRequest) {
        // No greedy trace cache: the warm figure times greedy itself, not
        // a replay of the cold request's run.
        let service = GrainService::new().with_trace_cache(false);
        service
            .register_graph(
                &self.name,
                Arc::clone(&self.graph),
                Arc::clone(&self.features),
            )
            .expect("synthetic corpus is well-formed");
        let request = SelectionRequest::new(&self.name, config, Budget::Fixed(budget))
            .with_candidates(self.candidates.clone());
        (service, request)
    }
}

fn time_grain(corpus: &ServedCorpus, config: GrainConfig, budget: usize) -> Duration {
    let (service, request) = corpus.service_and_request(config, budget);
    let report = service.select(&request).expect("runtime configs are valid");
    report.outcome().timings.total
}

/// Steady-state serving cost: the second request hits the pooled engine
/// fully warm and pays only greedy maximization — the paper's precompute
/// is fully amortized.
fn time_grain_warm(corpus: &ServedCorpus, config: GrainConfig, budget: usize) -> Duration {
    let (service, request) = corpus.service_and_request(config, budget);
    let _cold = service.select(&request).expect("runtime configs are valid");
    let warm = service.select(&request).expect("runtime configs are valid");
    assert!(warm.fully_warm(), "repeat request must be a warm pool hit");
    warm.outcome().timings.total
}
