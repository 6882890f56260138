//! Lazily generated, process-wide experiment corpora.
//!
//! Every experiment binary shares the same deterministic corpora (seeded
//! generation), so results are reproducible across runs and binaries
//! without writing datasets to disk. Generation fans out across the
//! (anomaly kind × variant) grid through the core execution layer.

use std::sync::OnceLock;

use dbsherlock_core::{par_map_indexed, ExecPolicy};
use dbsherlock_simulator::{
    generate_long_corpus, standard_scenario, AnomalyKind, Benchmark, CorpusEntry, VARIATIONS,
};

/// Seed of every standard corpus (one knob to regenerate everything).
pub const CORPUS_SEED: u64 = 20160626; // SIGMOD'16 opening day

fn generate_parallel(benchmark: Benchmark) -> Vec<CorpusEntry> {
    let cells: Vec<(AnomalyKind, usize)> = AnomalyKind::ALL
        .iter()
        .flat_map(|&kind| (0..VARIATIONS.len()).map(move |variant| (kind, variant)))
        .collect();
    // Indexed collection keeps (kind, variant) order identical to the old
    // serial nesting, whatever the thread schedule.
    par_map_indexed(ExecPolicy::Auto, &cells, |_, &(kind, variant)| CorpusEntry {
        kind,
        variant,
        labeled: standard_scenario(benchmark, kind, variant, CORPUS_SEED).run(),
    })
}

/// The 110-dataset TPC-C-like corpus (§8.2).
pub fn tpcc_corpus() -> &'static [CorpusEntry] {
    static CORPUS: OnceLock<Vec<CorpusEntry>> = OnceLock::new();
    CORPUS.get_or_init(|| generate_parallel(Benchmark::TpccLike))
}

/// The 110-dataset TPC-E-like corpus (Appendix A).
pub fn tpce_corpus() -> &'static [CorpusEntry] {
    static CORPUS: OnceLock<Vec<CorpusEntry>> = OnceLock::new();
    CORPUS.get_or_init(|| generate_parallel(Benchmark::TpceLike))
}

/// The ten-minute-normal corpus for automatic-detection experiments
/// (Appendix E).
pub fn long_corpus() -> &'static [CorpusEntry] {
    static CORPUS: OnceLock<Vec<CorpusEntry>> = OnceLock::new();
    CORPUS.get_or_init(|| generate_long_corpus(Benchmark::TpccLike, CORPUS_SEED))
}

/// Entries of one anomaly class, in variant order.
pub fn of_kind(corpus: &[CorpusEntry], kind: AnomalyKind) -> Vec<&CorpusEntry> {
    corpus.iter().filter(|e| e.kind == kind).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_cell() {
        let corpus = tpcc_corpus();
        assert_eq!(corpus.len(), 110);
        for kind in AnomalyKind::ALL {
            let entries = of_kind(corpus, kind);
            assert_eq!(entries.len(), 11, "{kind:?}");
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(e.variant, i);
                assert!(!e.labeled.abnormal_region().is_empty());
            }
        }
    }

    #[test]
    fn corpus_seed_stream_is_pinned() {
        // Every corpus, and so every committed result file, is drawn from
        // this stream. A change to the vendored `rand` stand-in must fail
        // here instead of silently moving every result.
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let golden: [u64; 8] = [
            4947983824172279079,
            15797488903839013787,
            16432782309327018984,
            16220965543580979731,
            9313231177124817870,
            11470723288468426307,
            13481156719311947367,
            14784711765490593803,
        ];
        assert_eq!(first, golden);
    }

    #[test]
    fn corpus_is_memoized() {
        let a = tpcc_corpus().as_ptr();
        let b = tpcc_corpus().as_ptr();
        assert_eq!(a, b);
    }
}
