//! Vocabulary layout of SynLang.

use serde::{Deserialize, Serialize};

/// Reserved token ids.
pub(crate) mod special {
    /// Padding.
    pub(crate) const PAD: usize = 0;
    /// Beginning of document.
    pub(crate) const BOS: usize = 1;
    /// End of document.
    pub(crate) const EOS: usize = 2;
    /// Sentence terminator `.`.
    pub(crate) const STOP: usize = 3;
    /// Question marker (used by QA-style tasks).
    pub(crate) const QM: usize = 4;
    /// Instruction marker (SynAlpaca).
    pub(crate) const INS: usize = 5;
    /// Response marker (SynAlpaca).
    pub(crate) const RESP: usize = 6;
    /// Number of reserved ids.
    pub(crate) const COUNT: usize = 7;
}

/// Sizes of the four content classes and the derived id ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VocabSpec {
    /// Subject tokens.
    pub(crate) n_subjects: usize,
    /// Verb tokens.
    pub(crate) n_verbs: usize,
    /// Object tokens.
    pub(crate) n_objects: usize,
    /// Modifier tokens.
    pub(crate) n_modifiers: usize,
}

impl Default for VocabSpec {
    fn default() -> Self {
        VocabSpec {
            n_subjects: 12,
            n_verbs: 12,
            n_objects: 16,
            n_modifiers: 8,
        }
    }
}

impl VocabSpec {
    /// Token id of subject `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (same for the sibling methods).
    pub(crate) fn subject(&self, i: usize) -> usize {
        assert!(
            i < self.n_subjects,
            "subject {i} out of {}",
            self.n_subjects
        );
        special::COUNT + i
    }

    /// Token id of verb `i`.
    pub(crate) fn verb(&self, i: usize) -> usize {
        assert!(i < self.n_verbs, "verb {i} out of {}", self.n_verbs);
        special::COUNT + self.n_subjects + i
    }

    /// Token id of object `i`.
    pub(crate) fn object(&self, i: usize) -> usize {
        assert!(i < self.n_objects, "object {i} out of {}", self.n_objects);
        special::COUNT + self.n_subjects + self.n_verbs + i
    }

    /// Token id of modifier `i`.
    pub(crate) fn modifier(&self, i: usize) -> usize {
        assert!(
            i < self.n_modifiers,
            "modifier {i} out of {}",
            self.n_modifiers
        );
        special::COUNT + self.n_subjects + self.n_verbs + self.n_objects + i
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Total vocabulary size (reserved + content tokens).
    pub(crate) fn vocab_size(v: &VocabSpec) -> usize {
        special::COUNT + v.n_subjects + v.n_verbs + v.n_objects + v.n_modifiers
    }

    #[test]
    fn ranges_are_disjoint_and_cover() {
        let v = VocabSpec::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..v.n_subjects {
            assert!(seen.insert(v.subject(i)));
        }
        for i in 0..v.n_verbs {
            assert!(seen.insert(v.verb(i)));
        }
        for i in 0..v.n_objects {
            assert!(seen.insert(v.object(i)));
        }
        for i in 0..v.n_modifiers {
            assert!(seen.insert(v.modifier(i)));
        }
        assert_eq!(seen.len() + special::COUNT, vocab_size(&v));
        assert!(seen
            .iter()
            .all(|&id| id >= special::COUNT && id < vocab_size(&v)));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_subject_panics() {
        VocabSpec::default().subject(99);
    }

    #[test]
    fn default_fits_in_64() {
        assert!(vocab_size(&VocabSpec::default()) <= 64);
    }
}
