//! Syn-benchmark generators: stand-ins for the paper's Table 3 task suite
//! (PIQA, HellaSwag, Winogrande, ARC-e, ARC-c, TriviaQA, MMLU).
//!
//! Each task queries knowledge the model can only have learned from the
//! grammar's preference tables during (pre)training, so accuracy measures
//! model fidelity — the quantity weight compression degrades. Ground truth
//! comes from the grammar itself, never from a model.

use crate::grammar::Grammar;
use crate::vocab::special;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One multiple-choice item: score each `prompt ⧺ choice` continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiChoiceTask {
    /// Shared context tokens.
    pub prompt: Vec<usize>,
    /// Candidate continuations.
    pub choices: Vec<Vec<usize>>,
    /// Index of the correct choice.
    pub correct: usize,
}

/// One cloze item: greedy-generate after `prompt`, exact-match `answer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClozeTask {
    /// Context tokens (may embed few-shot examples).
    pub prompt: Vec<usize>,
    /// The single correct next token.
    pub answer: usize,
}

/// Which benchmark a [`Task`] reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// 2-choice plausibility (PIQA stand-in).
    SynPiqa,
    /// 4-choice continuation (HellaSwag stand-in).
    SynHellaSwag,
    /// 2-choice consistency (Winogrande stand-in).
    SynWinogrande,
    /// 4-choice QA, easy split (ARC-e stand-in).
    SynArcEasy,
    /// 4-choice QA, challenge split (ARC-c stand-in).
    SynArcChallenge,
    /// One-shot cloze generation (TriviaQA stand-in).
    SynTriviaQa,
    /// 4-choice multi-domain exam (MMLU stand-in).
    SynMmlu,
}

impl TaskKind {
    /// Display name used in report tables.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::SynPiqa => "PIQA",
            TaskKind::SynHellaSwag => "HellaSwag",
            TaskKind::SynWinogrande => "Winogrande",
            TaskKind::SynArcEasy => "ARC-e",
            TaskKind::SynArcChallenge => "ARC-c",
            TaskKind::SynTriviaQa => "TriviaQA",
            TaskKind::SynMmlu => "MMLU",
        }
    }

    /// Chance accuracy (%) of the task.
    pub fn chance_percent(self) -> f32 {
        match self {
            TaskKind::SynPiqa | TaskKind::SynWinogrande => 50.0,
            TaskKind::SynTriviaQa => 0.0, // open vocabulary generation
            _ => 25.0,
        }
    }
}

/// A benchmark: either multiple-choice items or cloze items.
#[derive(Debug, Clone)]
pub enum Task {
    /// Log-likelihood-scored multiple choice.
    MultiChoice {
        /// Which benchmark this is.
        kind: TaskKind,
        /// The items.
        items: Vec<MultiChoiceTask>,
    },
    /// Greedy-generation cloze.
    Cloze {
        /// Which benchmark this is.
        kind: TaskKind,
        /// The items.
        items: Vec<ClozeTask>,
    },
}

impl Task {
    /// The benchmark kind.
    pub fn kind(&self) -> TaskKind {
        match self {
            Task::MultiChoice { kind, .. } | Task::Cloze { kind, .. } => *kind,
        }
    }
}

/// Shuffle `correct` into a random slot among `distractors`.
fn shuffled_choices(
    rng: &mut StdRng,
    correct: Vec<usize>,
    distractors: Vec<Vec<usize>>,
) -> (Vec<Vec<usize>>, usize) {
    let mut all: Vec<(bool, Vec<usize>)> = vec![(true, correct)];
    all.extend(distractors.into_iter().map(|d| (false, d)));
    all.shuffle(rng);
    let idx = all.iter().position(|(ok, _)| *ok).expect("correct present");
    (all.into_iter().map(|(_, c)| c).collect(), idx)
}

/// The complete Table 3 benchmark suite for one grammar.
#[derive(Debug, Clone)]
pub struct TaskSuite {
    tasks: Vec<Task>,
}

impl TaskSuite {
    /// Generate all seven benchmarks with `n` items each.
    pub fn generate(grammar: &Grammar, n: usize, seed: u64) -> Self {
        TaskSuite {
            tasks: vec![
                gen_piqa(grammar, n, seed ^ 0x01),
                gen_hellaswag(grammar, n, seed ^ 0x02),
                gen_winogrande(grammar, n, seed ^ 0x03),
                gen_arc(grammar, n, seed ^ 0x04, false),
                gen_arc(grammar, n, seed ^ 0x05, true),
                gen_triviaqa(grammar, n, seed ^ 0x06),
                gen_mmlu(grammar, n, seed ^ 0x07),
            ],
        }
    }

    /// The tasks in Table 3 column order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }
}

/// SynPIQA: given `s v`, pick the plausible object (2 choices).
pub(crate) fn gen_piqa(g: &Grammar, n: usize, seed: u64) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = *g.spec();
    let items = (0..n)
        .map(|i| {
            let s = rng.gen_range(0..spec.n_subjects);
            let v = g.preferred_verb(s);
            let correct = vec![spec.object(g.preferred_object(v))];
            let distract = vec![vec![spec.object(g.distractor_object(v, i))]];
            let (choices, correct) = shuffled_choices(&mut rng, correct, distract);
            MultiChoiceTask {
                prompt: vec![special::BOS, spec.subject(s), spec.verb(v)],
                choices,
                correct,
            }
        })
        .collect();
    Task::MultiChoice {
        kind: TaskKind::SynPiqa,
        items,
    }
}

/// SynHellaSwag: continue a two-sentence context (4 choices, distractors
/// break grammar structure or preferences).
pub(crate) fn gen_hellaswag(g: &Grammar, n: usize, seed: u64) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = *g.spec();
    let items = (0..n)
        .map(|i| {
            let s1 = rng.gen_range(0..spec.n_subjects);
            let s2 = rng.gen_range(0..spec.n_subjects);
            let mut prompt = vec![special::BOS];
            prompt.extend(g.canonical_sentence(s1));
            prompt.push(spec.subject(s2));
            let v2 = g.preferred_verb(s2);
            let o2 = g.preferred_object(v2);
            let correct = vec![spec.verb(v2), spec.object(o2), special::STOP];
            // The runner-up verb of s2: a *close* alternative continuation.
            let wrong_v = g.ranked_verbs(s2)[1];
            let distractors = vec![
                // Plausible-but-lower-probability verb for this subject.
                vec![
                    spec.verb(wrong_v),
                    spec.object(g.preferred_object(wrong_v)),
                    special::STOP,
                ],
                // Class order broken: object before verb.
                vec![spec.object(o2), spec.verb(v2), special::STOP],
                // Close wrong object for the right verb.
                vec![
                    spec.verb(v2),
                    spec.object(g.distractor_object(v2, i)),
                    special::STOP,
                ],
            ];
            let (choices, correct) = shuffled_choices(&mut rng, correct, distractors);
            MultiChoiceTask {
                prompt,
                choices,
                correct,
            }
        })
        .collect();
    Task::MultiChoice {
        kind: TaskKind::SynHellaSwag,
        items,
    }
}

/// SynWinogrande: which of two subjects is consistent with the observed
/// verb–object continuation (2 choices).
pub(crate) fn gen_winogrande(g: &Grammar, n: usize, seed: u64) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = *g.spec();
    let items = (0..n)
        .map(|_| {
            // s_a's top verb against a rival subject drawn across the
            // closeness spectrum — from borderline to easy referent choices.
            let s_a = rng.gen_range(0..spec.n_subjects);
            let v = g.preferred_verb(s_a);
            let (s_b, a_is_right) = g.rival_subject(s_a, rng.gen_range(0..6));
            let o = g.preferred_object(v);
            // Context mentions both subjects; the consistent continuation is
            // whichever subject truly has the higher P(v | s).
            let prompt = vec![
                special::BOS,
                spec.subject(s_a),
                spec.subject(s_b),
                special::STOP,
            ];
            let right = if a_is_right { s_a } else { s_b };
            let wrong = if a_is_right { s_b } else { s_a };
            let correct = vec![spec.subject(right), spec.verb(v), spec.object(o)];
            let distractors = vec![vec![spec.subject(wrong), spec.verb(v), spec.object(o)]];
            let (choices, correct) = shuffled_choices(&mut rng, correct, distractors);
            MultiChoiceTask {
                prompt,
                choices,
                correct,
            }
        })
        .collect();
    Task::MultiChoice {
        kind: TaskKind::SynWinogrande,
        items,
    }
}

/// SynARC: 4-choice completion, corpus-shaped prompts. The easy split asks
/// for a verb's preferred object (a strong, frequent signal); the challenge
/// split asks for an object's preferred modifier (modifiers appear in only
/// ~50% of sentences, so the signal is weaker — naturally harder, like
/// ARC-c).
pub(crate) fn gen_arc(g: &Grammar, n: usize, seed: u64, challenge: bool) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = *g.spec();
    let items = (0..n)
        .map(|_| {
            if !challenge {
                let s = rng.gen_range(0..spec.n_subjects);
                let v = g.preferred_verb(s);
                let o = g.preferred_object(v);
                let prompt = vec![special::BOS, spec.subject(s), spec.verb(v)];
                let correct = vec![spec.object(o)];
                // Easy split: weak (low-ranked) distractors.
                let mut seen = vec![o];
                let mut distractors = Vec::new();
                let mut k = 0;
                while distractors.len() < 3 && k < 4 * spec.n_objects {
                    let cand = g.weak_distractor_object(v, k);
                    if !seen.contains(&cand) {
                        seen.push(cand);
                        distractors.push(vec![spec.object(cand)]);
                    }
                    k += 1;
                }
                while distractors.len() < 3 {
                    // Tiny vocabularies: fill with any non-correct object.
                    let cand = (o + distractors.len() + 1) % spec.n_objects;
                    distractors.push(vec![spec.object(cand)]);
                }
                let (choices, correct) = shuffled_choices(&mut rng, correct, distractors);
                MultiChoiceTask {
                    prompt,
                    choices,
                    correct,
                }
            } else {
                // Challenge split: the flat modifier relation with
                // probability-closest distractors — borderline calls on a
                // weak signal.
                let s = rng.gen_range(0..spec.n_subjects);
                let v = g.preferred_verb(s);
                let o = g.preferred_object(v);
                let m = g.preferred_modifier(o);
                let prompt = vec![special::BOS, spec.subject(s), spec.verb(v), spec.object(o)];
                let correct = vec![spec.modifier(m)];
                let distractors: Vec<Vec<usize>> = g
                    .closest_modifiers(o)
                    .into_iter()
                    .take(3)
                    .map(|cand| vec![spec.modifier(cand)])
                    .collect();
                let (choices, correct) = shuffled_choices(&mut rng, correct, distractors);
                MultiChoiceTask {
                    prompt,
                    choices,
                    correct,
                }
            }
        })
        .collect();
    Task::MultiChoice {
        kind: if challenge {
            TaskKind::SynArcChallenge
        } else {
            TaskKind::SynArcEasy
        },
        items,
    }
}

/// SynTriviaQA: one-shot cloze — the paper applies one-shot here too (Table
/// 3 footnote b).
pub(crate) fn gen_triviaqa(g: &Grammar, n: usize, seed: u64) -> Task {
    gen_triviaqa_shots(g, n, seed, 1)
}

/// SynTriviaQA with a configurable number of in-context examples
/// (`shots = 0` is zero-shot; the paper's Table 3 uses one-shot).
pub(crate) fn gen_triviaqa_shots(g: &Grammar, n: usize, seed: u64, shots: usize) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = *g.spec();
    let items = (0..n)
        .map(|_| {
            let mut prompt = vec![special::BOS];
            let s_q = rng.gen_range(0..spec.n_subjects);
            for _ in 0..shots {
                let mut s_ex = rng.gen_range(0..spec.n_subjects);
                if s_ex == s_q {
                    s_ex = (s_ex + 1) % spec.n_subjects;
                }
                prompt.extend(g.canonical_sentence(s_ex));
            }
            let v_q = g.preferred_verb(s_q);
            prompt.push(spec.subject(s_q));
            prompt.push(spec.verb(v_q));
            ClozeTask {
                prompt,
                answer: spec.object(g.preferred_object(v_q)),
            }
        })
        .collect();
    Task::Cloze {
        kind: TaskKind::SynTriviaQa,
        items,
    }
}

/// SynMMLU: 4-choice items drawn from four "domains" (subject→verb,
/// verb→object, object→modifier, subject→object composition).
pub(crate) fn gen_mmlu(g: &Grammar, n: usize, seed: u64) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = *g.spec();
    let items = (0..n)
        .map(|i| {
            let domain = i % 4;
            // (prompt token, ranked candidate class ids, base token id).
            let (prompt_tok, ranked, base): (usize, Vec<usize>, usize) = match domain {
                0 => {
                    let s = rng.gen_range(0..spec.n_subjects);
                    (spec.subject(s), g.ranked_verbs(s), spec.verb(0))
                }
                1 => {
                    let v = rng.gen_range(0..spec.n_verbs);
                    (spec.verb(v), g.ranked_objects(v), spec.object(0))
                }
                2 => {
                    let o = rng.gen_range(0..spec.n_objects);
                    (spec.object(o), g.ranked_modifiers(o), spec.modifier(0))
                }
                _ => {
                    let s = rng.gen_range(0..spec.n_subjects);
                    let v = g.preferred_verb(s);
                    (spec.subject(s), g.ranked_objects(v), spec.object(0))
                }
            };
            let correct_tok = base + ranked[0];
            // Exam-style: the three closest runners-up as distractors.
            let distractors: Vec<Vec<usize>> = ranked[1..]
                .iter()
                .take(3)
                .map(|&c| vec![base + c])
                .collect();
            let (choices, correct) = shuffled_choices(&mut rng, vec![correct_tok], distractors);
            MultiChoiceTask {
                prompt: vec![special::BOS, special::QM, prompt_tok, special::RESP],
                choices,
                correct,
            }
        })
        .collect();
    Task::MultiChoice {
        kind: TaskKind::SynMmlu,
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grammar() -> Grammar {
        Grammar::default_with_seed(0)
    }

    #[test]
    fn suite_has_seven_tasks_in_table3_order() {
        let s = TaskSuite::generate(&grammar(), 10, 0);
        let kinds: Vec<TaskKind> = s.tasks().iter().map(|t| t.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                TaskKind::SynPiqa,
                TaskKind::SynHellaSwag,
                TaskKind::SynWinogrande,
                TaskKind::SynArcEasy,
                TaskKind::SynArcChallenge,
                TaskKind::SynTriviaQa,
                TaskKind::SynMmlu,
            ]
        );
        assert!(s.tasks().iter().all(|t| match t {
            Task::MultiChoice { items, .. } => items.len() == 10,
            Task::Cloze { items, .. } => items.len() == 10,
        }));
    }

    #[test]
    fn choice_counts_match_benchmarks() {
        let s = TaskSuite::generate(&grammar(), 20, 1);
        for task in s.tasks() {
            if let Task::MultiChoice { kind, items } = task {
                let expect = match kind {
                    TaskKind::SynPiqa | TaskKind::SynWinogrande => 2,
                    _ => 4,
                };
                for it in items {
                    assert_eq!(it.choices.len(), expect, "{}", kind.name());
                    assert!(it.correct < it.choices.len());
                }
            }
        }
    }

    #[test]
    fn correct_choices_differ_from_distractors() {
        let s = TaskSuite::generate(&grammar(), 30, 2);
        for task in s.tasks() {
            if let Task::MultiChoice { items, .. } = task {
                for it in items {
                    let c = &it.choices[it.correct];
                    for (j, ch) in it.choices.iter().enumerate() {
                        if j != it.correct {
                            assert_ne!(ch, c, "distractor equals correct answer");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn correct_position_is_shuffled() {
        let Task::MultiChoice { items, .. } = gen_piqa(&grammar(), 100, 3) else {
            panic!("piqa is multi-choice")
        };
        let firsts = items.iter().filter(|i| i.correct == 0).count();
        assert!(
            firsts > 20 && firsts < 80,
            "correct index not shuffled: {firsts}/100"
        );
    }

    #[test]
    fn piqa_correct_is_preferred_object() {
        let g = grammar();
        let spec = *g.spec();
        let Task::MultiChoice { items, .. } = gen_piqa(&g, 50, 4) else {
            panic!()
        };
        for it in items {
            let s = it.prompt[1] - spec.subject(0);
            let v = g.preferred_verb(s);
            assert_eq!(it.prompt[2], spec.verb(v));
            assert_eq!(
                it.choices[it.correct],
                vec![spec.object(g.preferred_object(v))]
            );
        }
    }

    #[test]
    fn triviaqa_is_one_shot_cloze() {
        let g = grammar();
        let Task::Cloze { items, kind } = gen_triviaqa(&g, 20, 5) else {
            panic!()
        };
        assert_eq!(kind, TaskKind::SynTriviaQa);
        for it in items {
            // prompt = BOS + 4-token canonical sentence + subject + verb.
            assert_eq!(it.prompt.len(), 7);
            assert!(it.answer >= g.spec().object(0));
        }
    }

    #[test]
    fn triviaqa_shot_count_scales_prompt() {
        let g = grammar();
        for shots in [0usize, 1, 4] {
            let Task::Cloze { items, .. } = gen_triviaqa_shots(&g, 10, 6, shots) else {
                panic!()
            };
            for it in &items {
                assert_eq!(it.prompt.len(), 1 + 4 * shots + 2, "shots={shots}");
            }
        }
    }

    #[test]
    fn mmlu_covers_four_domains() {
        let Task::MultiChoice { items, .. } = gen_mmlu(&grammar(), 40, 6) else {
            panic!()
        };
        // Domain is i % 4; prompts cycle through subject/verb/object classes.
        let spec = VocabSpecHelper::default();
        let mut classes = std::collections::HashSet::new();
        for it in &items {
            classes.insert(spec.classify(it.prompt[2]));
        }
        assert!(
            classes.len() >= 3,
            "expected multiple domains, got {classes:?}"
        );
    }

    #[test]
    fn chance_levels() {
        assert_eq!(TaskKind::SynPiqa.chance_percent(), 50.0);
        assert_eq!(TaskKind::SynMmlu.chance_percent(), 25.0);
        assert_eq!(TaskKind::SynTriviaQa.chance_percent(), 0.0);
        assert_eq!(TaskKind::SynArcEasy.name(), "ARC-e");
    }

    #[test]
    fn generation_is_deterministic() {
        let g = grammar();
        let a = TaskSuite::generate(&g, 5, 9);
        let b = TaskSuite::generate(&g, 5, 9);
        for (x, y) in a.tasks().iter().zip(b.tasks()) {
            match (x, y) {
                (Task::MultiChoice { items: ix, .. }, Task::MultiChoice { items: iy, .. }) => {
                    assert_eq!(ix, iy)
                }
                (Task::Cloze { items: ix, .. }, Task::Cloze { items: iy, .. }) => {
                    assert_eq!(ix, iy)
                }
                _ => panic!("task kind mismatch"),
            }
        }
    }

    /// Tiny helper to classify a token id for the MMLU domain test.
    #[derive(Default)]
    struct VocabSpecHelper {
        spec: crate::vocab::VocabSpec,
    }

    impl VocabSpecHelper {
        fn classify(&self, id: usize) -> &'static str {
            let s = &self.spec;
            let classes = [
                ("subject", s.n_subjects),
                ("verb", s.n_verbs),
                ("object", s.n_objects),
                ("modifier", s.n_modifiers),
            ];
            let mut start = crate::vocab::special::COUNT;
            for (name, n) in classes {
                if (start..start + n).contains(&id) {
                    return name;
                }
                start += n;
            }
            "special"
        }
    }
}
