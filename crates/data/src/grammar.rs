//! The SynLang generative grammar.
//!
//! Conditionals are *graded*: each subject has a softmax distribution over
//! verbs (and verbs over objects, objects over modifiers) derived from
//! seeded Gaussian scores at a class-specific temperature. Benchmark tasks
//! pit the top-ranked continuation against close runners-up, so accuracy
//! measures how faithfully a model represents fine probability ratios —
//! the quantity weight compression erodes. This is why the Syn-benchmarks,
//! like the real ones in the paper's Table 3, sit *between* chance and 100%.

use crate::vocab::{special, VocabSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded probabilistic grammar over [`VocabSpec`] tokens.
#[derive(Debug, Clone)]
pub struct Grammar {
    spec: VocabSpec,
    /// `P(verb | subject)` as probabilities, row-major `[ns][nv]`.
    verb_probs: Vec<Vec<f32>>,
    /// `P(object | verb)`, `[nv][no]`.
    obj_probs: Vec<Vec<f32>>,
    /// `P(modifier | object)`, `[no][nm]`.
    mod_probs: Vec<Vec<f32>>,
}

fn softmax(scores: &[f32], tau: f32) -> Vec<f32> {
    let mx = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|&s| ((s - mx) / tau).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

fn score_table(rng: &mut StdRng, rows: usize, cols: usize, tau: f32) -> Vec<Vec<f32>> {
    (0..rows)
        .map(|_| {
            let scores: Vec<f32> = (0..cols)
                .map(|_| {
                    // Box–Muller normal.
                    let u1: f32 = rng.gen::<f32>().max(1e-9);
                    let u2: f32 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                })
                .collect();
            softmax(&scores, tau)
        })
        .collect()
}

impl Grammar {
    /// Temperature of the verb/object conditionals (sharper = easier).
    pub(crate) const TAU_STRONG: f32 = 0.45;
    /// Temperature of the modifier conditional (flatter = the "challenge"
    /// relation behind Syn-ARC-c).
    pub(crate) const TAU_WEAK: f32 = 0.75;

    /// Build a grammar from a vocabulary spec and seed.
    pub(crate) fn new(spec: VocabSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e_ed_6a_77);
        let verb_probs = score_table(&mut rng, spec.n_subjects, spec.n_verbs, Self::TAU_STRONG);
        let obj_probs = score_table(&mut rng, spec.n_verbs, spec.n_objects, Self::TAU_STRONG);
        let mod_probs = score_table(&mut rng, spec.n_objects, spec.n_modifiers, Self::TAU_WEAK);
        Grammar {
            spec,
            verb_probs,
            obj_probs,
            mod_probs,
        }
    }

    /// Default grammar (default vocab, given seed).
    pub fn default_with_seed(seed: u64) -> Self {
        Self::new(VocabSpec::default(), seed)
    }

    /// The vocabulary spec.
    pub(crate) fn spec(&self) -> &VocabSpec {
        &self.spec
    }

    /// `P(verb = v | subject = s)`.
    pub(crate) fn verb_prob(&self, s: usize, v: usize) -> f32 {
        self.verb_probs[s][v]
    }

    fn ranked(probs: &[f32]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..probs.len()).collect();
        idx.sort_by(|&a, &b| {
            probs[b]
                .partial_cmp(&probs[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }

    /// Verb indices sorted by `P(v|s)` descending.
    pub(crate) fn ranked_verbs(&self, s: usize) -> Vec<usize> {
        Self::ranked(&self.verb_probs[s])
    }

    /// Object indices sorted by `P(o|v)` descending.
    pub(crate) fn ranked_objects(&self, v: usize) -> Vec<usize> {
        Self::ranked(&self.obj_probs[v])
    }

    /// Modifier indices sorted by `P(m|o)` descending.
    pub(crate) fn ranked_modifiers(&self, o: usize) -> Vec<usize> {
        Self::ranked(&self.mod_probs[o])
    }

    /// Most likely verb of subject `s`.
    pub(crate) fn preferred_verb(&self, s: usize) -> usize {
        self.ranked_verbs(s)[0]
    }

    /// Most likely object of verb `v`.
    pub(crate) fn preferred_object(&self, v: usize) -> usize {
        self.ranked_objects(v)[0]
    }

    /// Most likely modifier of object `o`.
    pub(crate) fn preferred_modifier(&self, o: usize) -> usize {
        self.ranked_modifiers(o)[0]
    }

    /// Indices (excluding `target`) sorted by closeness of `ln p` to
    /// `ln p[target]` — the items nearest the decision boundary.
    fn closest_by_logprob(probs: &[f32], target: usize) -> Vec<usize> {
        let lt = probs[target].max(1e-12).ln();
        let mut idx: Vec<usize> = (0..probs.len()).filter(|&i| i != target).collect();
        idx.sort_by(|&a, &b| {
            let da = (probs[a].max(1e-12).ln() - lt).abs();
            let db = (probs[b].max(1e-12).ln() - lt).abs();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        idx
    }

    /// Objects closest in log-probability to verb `v`'s top object — the
    /// borderline distractors that make Syn-tasks sensitive to model
    /// fidelity.
    pub(crate) fn closest_objects(&self, v: usize) -> Vec<usize> {
        Self::closest_by_logprob(&self.obj_probs[v], self.preferred_object(v))
    }

    /// Modifiers closest in log-probability to object `o`'s top modifier.
    pub(crate) fn closest_modifiers(&self, o: usize) -> Vec<usize> {
        Self::closest_by_logprob(&self.mod_probs[o], self.preferred_modifier(o))
    }

    /// A rival subject for a Winogrande-style item on subject `s`: among the
    /// subjects whose probability of `s`'s top verb is closest to `s`'s own
    /// (a margin *spectrum*, indexed by `salt`). Returns `(rival, truth)`
    /// where `truth` is `true` iff `s` genuinely has the higher probability.
    pub(crate) fn rival_subject(&self, s: usize, salt: usize) -> (usize, bool) {
        let v = self.preferred_verb(s);
        let p_s = self.verb_prob(s, v).max(1e-12).ln();
        let mut cands: Vec<usize> = (0..self.spec.n_subjects)
            .filter(|&c| c != s && self.preferred_verb(c) != v)
            .collect();
        if cands.is_empty() {
            // Degenerate grammar: every subject shares a top verb.
            let other = (s + 1) % self.spec.n_subjects;
            return (other, self.verb_prob(s, v) >= self.verb_prob(other, v));
        }
        cands.sort_by(|&a, &b| {
            let da = (self.verb_prob(a, v).max(1e-12).ln() - p_s).abs();
            let db = (self.verb_prob(b, v).max(1e-12).ln() - p_s).abs();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        let rival = cands[salt % cands.len().min(6)];
        (rival, self.verb_prob(s, v) >= self.verb_prob(rival, v))
    }

    /// A wrong object for verb `v`, drawn from the full closeness spectrum
    /// (`salt = 0` is the borderline case, larger salts progressively
    /// easier), guaranteed ≠ the top object.
    pub(crate) fn distractor_object(&self, v: usize, salt: usize) -> usize {
        let closest = self.closest_objects(v);
        closest[salt % closest.len()]
    }

    /// A *weak* wrong object for verb `v` (bottom of the ranking, selected
    /// by `salt`) — the easy-split distractor.
    pub(crate) fn weak_distractor_object(&self, v: usize, salt: usize) -> usize {
        let ranked = self.ranked_objects(v);
        let tail = ranked.len() / 2;
        ranked[ranked.len() - 1 - (salt % tail)]
    }

    fn sample_categorical(rng: &mut StdRng, probs: &[f32]) -> usize {
        let mut u: f32 = rng.gen();
        for (i, &p) in probs.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        probs.len() - 1
    }

    /// Sample one sentence (`S V O [M] .`) as token ids.
    pub(crate) fn sample_sentence(&self, rng: &mut StdRng) -> Vec<usize> {
        let s = rng.gen_range(0..self.spec.n_subjects);
        self.sample_sentence_with_subject(rng, s)
    }

    /// Sample a sentence that starts with subject index `s`.
    pub(crate) fn sample_sentence_with_subject(&self, rng: &mut StdRng, s: usize) -> Vec<usize> {
        let v = Self::sample_categorical(rng, &self.verb_probs[s]);
        let o = Self::sample_categorical(rng, &self.obj_probs[v]);
        let mut out = vec![self.spec.subject(s), self.spec.verb(v), self.spec.object(o)];
        if rng.gen::<f32>() < 0.5 {
            let m = Self::sample_categorical(rng, &self.mod_probs[o]);
            out.push(self.spec.modifier(m));
        }
        out.push(special::STOP);
        out
    }

    /// Sample a document: `BOS sentence… EOS`.
    pub(crate) fn sample_document(&self, rng: &mut StdRng, n_sentences: usize) -> Vec<usize> {
        let mut out = vec![special::BOS];
        for _ in 0..n_sentences {
            out.extend(self.sample_sentence(rng));
        }
        out.push(special::EOS);
        out
    }

    /// The most likely full sentence for subject `s` (no modifier): the
    /// all-argmax path — the grammar's "ground-truth fact" about `s`.
    pub(crate) fn canonical_sentence(&self, s: usize) -> Vec<usize> {
        let v = self.preferred_verb(s);
        let o = self.preferred_object(v);
        vec![
            self.spec.subject(s),
            self.spec.verb(v),
            self.spec.object(o),
            special::STOP,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 = Grammar::default_with_seed(7);
        let g2 = Grammar::default_with_seed(7);
        let s1 = g1.sample_document(&mut rng(1), 5);
        let s2 = g2.sample_document(&mut rng(1), 5);
        assert_eq!(s1, s2);
        let g3 = Grammar::default_with_seed(8);
        assert_ne!(
            (0..g1.spec().n_subjects)
                .map(|s| g1.preferred_verb(s))
                .collect::<Vec<_>>(),
            (0..g3.spec().n_subjects)
                .map(|s| g3.preferred_verb(s))
                .collect::<Vec<_>>(),
            "different seeds should (almost surely) differ"
        );
    }

    #[test]
    fn conditionals_are_distributions() {
        let g = Grammar::default_with_seed(0);
        for s in 0..g.spec().n_subjects {
            let total: f32 = (0..g.spec().n_verbs).map(|v| g.verb_prob(s, v)).sum();
            assert!((total - 1.0).abs() < 1e-4, "P(v|s={s}) sums to {total}");
        }
        for v in 0..g.spec().n_verbs {
            let total: f32 = (0..g.spec().n_objects).map(|o| g.obj_probs[v][o]).sum();
            assert!((total - 1.0).abs() < 1e-4);
        }
        for o in 0..g.spec().n_objects {
            let total: f32 = (0..g.spec().n_modifiers).map(|m| g.mod_probs[o][m]).sum();
            assert!((total - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn ranking_orders_by_probability() {
        let g = Grammar::default_with_seed(1);
        for s in 0..g.spec().n_subjects {
            let ranked = g.ranked_verbs(s);
            for w in ranked.windows(2) {
                assert!(g.verb_prob(s, w[0]) >= g.verb_prob(s, w[1]));
            }
            assert_eq!(ranked[0], g.preferred_verb(s));
        }
    }

    #[test]
    fn top_choice_has_clear_but_not_total_mass() {
        // The whole point of the graded grammar: the argmax is likely but
        // the runner-up is close enough to be flipped by model damage.
        let g = Grammar::default_with_seed(0);
        let mut top_sum = 0.0;
        let mut ratio_sum = 0.0;
        let ns = g.spec().n_subjects;
        for s in 0..ns {
            let ranked = g.ranked_verbs(s);
            let p1 = g.verb_prob(s, ranked[0]);
            let p2 = g.verb_prob(s, ranked[1]);
            top_sum += p1;
            ratio_sum += p2 / p1;
            assert!(p1 < 0.999, "top verb should not be deterministic");
        }
        let mean_top = top_sum / ns as f32;
        let mean_ratio = ratio_sum / ns as f32;
        assert!(
            mean_top > 0.25 && mean_top < 0.95,
            "mean top prob {mean_top}"
        );
        assert!(
            mean_ratio > 0.05,
            "runner-up must be competitive: {mean_ratio}"
        );
    }

    #[test]
    fn modifier_relation_is_flatter_than_verb_relation() {
        let g = Grammar::default_with_seed(0);
        let mean_top_verb: f32 = (0..g.spec().n_subjects)
            .map(|s| g.verb_prob(s, g.preferred_verb(s)))
            .sum::<f32>()
            / g.spec().n_subjects as f32;
        let mean_top_mod: f32 = (0..g.spec().n_objects)
            .map(|o| g.mod_probs[o][g.preferred_modifier(o)])
            .sum::<f32>()
            / g.spec().n_objects as f32;
        assert!(
            mean_top_mod < mean_top_verb,
            "modifiers must be the weaker signal: {mean_top_mod} vs {mean_top_verb}"
        );
    }

    #[test]
    fn sentences_are_well_formed() {
        let g = Grammar::default_with_seed(0);
        let spec = *g.spec();
        let mut r = rng(42);
        for _ in 0..200 {
            let s = g.sample_sentence(&mut r);
            assert!(s.len() == 4 || s.len() == 5, "len {}", s.len());
            assert_eq!(*s.last().unwrap(), special::STOP);
            assert!(s[0] >= spec.subject(0) && s[0] <= spec.subject(spec.n_subjects - 1));
            assert!(s[1] >= spec.verb(0) && s[1] <= spec.verb(spec.n_verbs - 1));
            assert!(s[2] >= spec.object(0) && s[2] <= spec.object(spec.n_objects - 1));
        }
    }

    #[test]
    fn sampling_tracks_conditional_frequencies() {
        let g = Grammar::default_with_seed(3);
        let mut r = rng(9);
        let s = 4;
        let pref = g.spec().verb(g.preferred_verb(s));
        let expect = g.verb_prob(s, g.preferred_verb(s));
        let hits = (0..2000)
            .filter(|_| g.sample_sentence_with_subject(&mut r, s)[1] == pref)
            .count() as f32
            / 2000.0;
        assert!(
            (hits - expect).abs() < 0.05,
            "empirical {hits} vs true {expect}"
        );
    }

    #[test]
    fn distractors_differ_from_correct() {
        let g = Grammar::default_with_seed(5);
        for v in 0..g.spec().n_verbs {
            let top = g.preferred_object(v);
            for salt in 0..8 {
                assert_ne!(g.distractor_object(v, salt), top);
                assert_ne!(g.weak_distractor_object(v, salt), top);
            }
            // Close distractors outrank weak ones.
            let close_p = g.obj_probs[v][g.distractor_object(v, 0)];
            let weak_p = g.obj_probs[v][g.weak_distractor_object(v, 0)];
            assert!(close_p >= weak_p);
        }
    }

    #[test]
    fn document_has_bos_eos() {
        let g = Grammar::default_with_seed(0);
        let d = g.sample_document(&mut rng(0), 3);
        assert_eq!(d[0], special::BOS);
        assert_eq!(*d.last().unwrap(), special::EOS);
        assert!(d.len() > 10);
    }

    #[test]
    fn canonical_sentence_is_argmax_path() {
        let g = Grammar::default_with_seed(1);
        let c = g.canonical_sentence(2);
        let v = g.preferred_verb(2);
        assert_eq!(c[1], g.spec().verb(v));
        assert_eq!(c[2], g.spec().object(g.preferred_object(v)));
    }

    proptest! {
        /// Every sampled token is inside the vocabulary.
        #[test]
        fn prop_tokens_in_vocab(seed in any::<u64>(), n in 1usize..6) {
            let g = Grammar::default_with_seed(seed);
            let d = g.sample_document(&mut rng(seed), n);
            let v = crate::vocab::tests::vocab_size(g.spec());
            prop_assert!(d.iter().all(|&t| t < v));
        }

        /// Rankings are permutations.
        #[test]
        fn prop_rankings_are_permutations(seed in any::<u64>(), s in 0usize..12) {
            let g = Grammar::default_with_seed(seed);
            let r = g.ranked_verbs(s);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..g.spec().n_verbs).collect::<Vec<_>>());
        }
    }
}
