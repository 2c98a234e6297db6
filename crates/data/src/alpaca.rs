//! SynAlpaca: an instruction-following fine-tuning set.
//!
//! The paper fine-tunes LLaMA-7B on the Alpaca dataset while compressing.
//! Our stand-in uses the same grammar knowledge wrapped in an
//! instruction/response frame:
//!
//! ```text
//! <bos> <ins> s? v? ? <resp> o! [m!] . <eos>
//! ```
//!
//! where the response tokens follow the grammar's preference tables. The
//! compression pipeline fine-tunes on these sequences.

use crate::grammar::Grammar;
use crate::vocab::special;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated instruction-tuning dataset of fixed-length sequences.
#[derive(Debug, Clone)]
pub struct AlpacaSet {
    examples: Vec<Vec<usize>>,
}

impl AlpacaSet {
    /// Generate `n` examples, each padded/truncated to `seq_len + 1` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len < 9` (the frame does not fit).
    pub fn generate(grammar: &Grammar, n: usize, seq_len: usize, seed: u64) -> Self {
        assert!(seq_len >= 9, "seq_len must fit the instruction frame");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa1_9a_ca);
        let spec = *grammar.spec();
        let mut examples = Vec::with_capacity(n);
        for _ in 0..n {
            let s = rng.gen_range(0..spec.n_subjects);
            let v = grammar.preferred_verb(s);
            let o = grammar.preferred_object(v);
            let mut ex = vec![
                special::BOS,
                special::INS,
                spec.subject(s),
                spec.verb(v),
                special::QM,
                special::RESP,
                spec.object(o),
            ];
            if rng.gen::<f32>() < 0.5 {
                ex.push(spec.modifier(grammar.preferred_modifier(o)));
            }
            ex.push(special::STOP);
            ex.push(special::EOS);
            // Pad to uniform length for batching.
            while ex.len() < seq_len + 1 {
                ex.push(special::PAD);
            }
            ex.truncate(seq_len + 1);
            examples.push(ex);
        }
        AlpacaSet { examples }
    }

    /// The examples (`seq_len + 1` tokens each).
    pub fn examples(&self) -> &[Vec<usize>] {
        &self.examples
    }

    /// Group into full batches of `batch_size`.
    pub fn batches(&self, batch_size: usize) -> Vec<Vec<Vec<usize>>> {
        self.examples
            .chunks_exact(batch_size)
            .map(|c| c.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_structure() {
        let g = Grammar::default_with_seed(0);
        let a = AlpacaSet::generate(&g, 50, 12, 1);
        assert_eq!(a.examples().len(), 50);
        for ex in a.examples() {
            assert_eq!(ex.len(), 13);
            assert_eq!(ex[0], special::BOS);
            assert_eq!(ex[1], special::INS);
            assert_eq!(ex[4], special::QM);
            assert_eq!(ex[5], special::RESP);
        }
    }

    #[test]
    fn responses_follow_preferences() {
        let g = Grammar::default_with_seed(3);
        let spec = *g.spec();
        let a = AlpacaSet::generate(&g, 100, 12, 2);
        for ex in a.examples() {
            let s = ex[2] - spec.subject(0);
            let v = g.preferred_verb(s);
            assert_eq!(ex[3], spec.verb(v));
            assert_eq!(ex[6], spec.object(g.preferred_object(v)));
        }
    }

    #[test]
    fn deterministic() {
        let g = Grammar::default_with_seed(0);
        assert_eq!(
            AlpacaSet::generate(&g, 10, 12, 5).examples(),
            AlpacaSet::generate(&g, 10, 12, 5).examples()
        );
    }

    #[test]
    fn batching() {
        let g = Grammar::default_with_seed(0);
        let a = AlpacaSet::generate(&g, 10, 12, 5);
        let b = a.batches(4);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| x.len() == 4));
    }
}
