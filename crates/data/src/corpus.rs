//! Pretraining corpus: documents chunked into fixed-length LM windows.

use crate::grammar::Grammar;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tokenized corpus split into equal-length training windows.
///
/// Each window has `seq_len + 1` tokens (input + shifted target), ready to
/// batch for causal LM training.
#[derive(Debug, Clone)]
pub struct Corpus {
    windows: Vec<Vec<usize>>,
    seq_len: usize,
}

impl Corpus {
    /// Generate `n_docs` documents of `sentences_per_doc` sentences from
    /// `grammar`, concatenate, and slice into windows of `seq_len + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len == 0` or the configuration produces no windows.
    pub fn generate(
        grammar: &Grammar,
        n_docs: usize,
        sentences_per_doc: usize,
        seq_len: usize,
        seed: u64,
    ) -> Self {
        assert!(seq_len >= 1, "seq_len must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = Vec::new();
        for _ in 0..n_docs {
            stream.extend(grammar.sample_document(&mut rng, sentences_per_doc));
        }
        let win = seq_len + 1;
        let windows: Vec<Vec<usize>> = stream.chunks_exact(win).map(|c| c.to_vec()).collect();
        assert!(
            !windows.is_empty(),
            "corpus too small: {} tokens < window {}",
            stream.len(),
            win
        );
        Corpus { windows, seq_len }
    }

    /// Training windows (`seq_len + 1` tokens each).
    pub fn windows(&self) -> &[Vec<usize>] {
        &self.windows
    }

    /// Group windows into batches of `batch_size` (drops the remainder so
    /// every batch is full — simplest deterministic batching).
    pub fn batches(&self, batch_size: usize) -> Vec<Vec<Vec<usize>>> {
        assert!(batch_size >= 1, "batch_size must be >= 1");
        self.windows
            .chunks_exact(batch_size)
            .map(|c| c.to_vec())
            .collect()
    }

    /// A held-out style sub-corpus: every `k`-th window.
    pub fn subsample(&self, k: usize) -> Corpus {
        assert!(k >= 1);
        Corpus {
            windows: self.windows.iter().step_by(k).cloned().collect(),
            seq_len: self.seq_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        let g = Grammar::default_with_seed(0);
        Corpus::generate(&g, 20, 10, 16, 1)
    }

    #[test]
    fn windows_have_uniform_length() {
        let c = corpus();
        assert!(c.windows().len() > 10);
        assert!(c.windows().iter().all(|w| w.len() == 17));
    }

    #[test]
    fn batches_are_full() {
        let c = corpus();
        let b = c.batches(4);
        assert!(!b.is_empty());
        assert!(b.iter().all(|batch| batch.len() == 4));
    }

    #[test]
    fn generation_is_deterministic() {
        let g = Grammar::default_with_seed(0);
        let a = Corpus::generate(&g, 5, 5, 8, 3);
        let b = Corpus::generate(&g, 5, 5, 8, 3);
        assert_eq!(a.windows(), b.windows());
    }

    #[test]
    fn subsample_thins() {
        let c = corpus();
        let s = c.subsample(3);
        assert_eq!(s.windows().len(), c.windows().len().div_ceil(3));
        assert_eq!(s.seq_len, c.seq_len);
    }

    #[test]
    fn tokens_in_vocab() {
        let g = Grammar::default_with_seed(0);
        let c = Corpus::generate(&g, 5, 5, 8, 3);
        let v = crate::vocab::tests::vocab_size(g.spec());
        assert!(c.windows().iter().flatten().all(|&t| t < v));
    }
}
