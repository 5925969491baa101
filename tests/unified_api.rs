//! Equivalence tests for the unified inference API: every execution option
//! of `run_inference` — tracing, a pooled workspace, a checkpoint — must
//! leave the result bit-identical to a plain run, and the fallible
//! bootstrap driver must repeat itself exactly. Callers can switch options
//! without a single bit of numerical drift.

use phylo::bootstrap::BootstrapAnalysis;
use phylo::checkpoint::SearchCheckpointer;
use phylo::prelude::*;

fn workload(seed: u64) -> PatternAlignment {
    SimulationConfig::new(7, 240, seed).generate().alignment
}

fn run(aln: &PatternAlignment, seed: u64, options: InferenceOptions<'_>) -> InferenceOutcome {
    run_inference(aln, &InferenceRequest::new(SearchConfig::fast(), seed), options).unwrap()
}

fn plain(aln: &PatternAlignment, seed: u64) -> SearchResult {
    run(aln, seed, InferenceOptions::new()).result
}

fn assert_same(label: &str, got: &SearchResult, plain: &SearchResult) {
    assert_eq!(
        got.log_likelihood.to_bits(),
        plain.log_likelihood.to_bits(),
        "{label}: lnL bits diverge from a plain run"
    );
    assert_eq!(
        got.tree.to_exact_string(),
        plain.tree.to_exact_string(),
        "{label}: tree diverges from a plain run"
    );
    assert_eq!(got.alpha.to_bits(), plain.alpha.to_bits(), "{label}: alpha bits diverge");
    assert_eq!(got.rounds, plain.rounds, "{label}: round count diverges");
}

#[test]
fn traced_run_matches_untraced() {
    let aln = workload(12);
    let traced = run(&aln, 4, InferenceOptions::new().traced()).result;
    assert!(!traced.trace.events().is_empty(), "traced run must record events");
    // Tracing itself must not perturb the arithmetic.
    assert_same("traced", &traced, &plain(&aln, 4));
}

#[test]
fn pooled_workspace_matches_fresh() {
    let aln = workload(13);
    // A workspace recycled from an earlier job on other data.
    let used = run(&workload(99), 1, InferenceOptions::new()).workspace;
    let pooled = run(&aln, 5, InferenceOptions::new().with_workspace(used)).result;
    assert_same("pooled workspace", &pooled, &plain(&aln, 5));
}

#[test]
fn checkpointed_run_matches_plain() {
    let dir = std::env::temp_dir().join("raxml-cell-unified-api-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpointed.ckpt");
    let _ = std::fs::remove_file(&path);

    let aln = workload(15);
    let request = InferenceRequest::new(SearchConfig::fast(), 7);
    let mut ckpt = SearchCheckpointer::new(&path, request.fingerprint(&aln));
    let checkpointed =
        run_inference(&aln, &request, InferenceOptions::new().with_checkpoint(&mut ckpt))
            .unwrap()
            .result;
    assert!(path.exists(), "the checkpointed run must snapshot");
    assert_same("checkpointed", &checkpointed, &plain(&aln, 7));
}

#[test]
fn bootstrap_try_run_is_repeatable() {
    let aln = workload(16);
    let analysis = BootstrapAnalysis {
        n_inferences: 1,
        n_bootstraps: 4,
        n_workers: 2,
        seed: 9,
        search: SearchConfig::fast(),
    };
    let first = analysis.try_run(&aln).unwrap();
    let again = analysis.try_run(&aln).unwrap();
    assert_eq!(
        first.best_log_likelihood.to_bits(),
        again.best_log_likelihood.to_bits(),
        "repeated try_run diverges on the best tree's lnL"
    );
    assert_eq!(first.best.tree.to_exact_string(), again.best.tree.to_exact_string());
    assert_eq!(first.bootstrap_trees.len(), again.bootstrap_trees.len());
    for (a, b) in first.bootstrap_trees.iter().zip(&again.bootstrap_trees) {
        assert_eq!(a.to_exact_string(), b.to_exact_string());
    }
}
