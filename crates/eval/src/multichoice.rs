//! Multiple-choice and cloze scoring (lm-eval-harness conventions).

use edkm_autograd::no_grad;
use edkm_data::{ClozeTask, MultiChoiceTask, Task, TaskKind, TaskSuite};
use edkm_nn::LlamaModel;
use edkm_tensor::ops as t;

/// Length-normalized log-probability of `choice` as the continuation of
/// `prompt`.
///
/// # Panics
///
/// Panics if `prompt` or `choice` is empty or the combined length exceeds
/// the model's `max_seq`.
pub(crate) fn choice_logprob(model: &LlamaModel, prompt: &[usize], choice: &[usize]) -> f32 {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(!choice.is_empty(), "empty choice");
    let _ng = no_grad();
    let mut seq: Vec<usize> = prompt.to_vec();
    seq.extend_from_slice(choice);
    let tl = seq.len();
    // Predict positions 1..tl from 0..tl-1.
    let logits = model.logits(&seq[..tl - 1], 1, tl - 1, None);
    let logp = t::log_softmax_lastdim(logits.value());
    let vocab = model.config().vocab;
    let lp = logp.to_vec();
    let mut total = 0.0f32;
    for (k, &tok) in choice.iter().enumerate() {
        // choice token k sits at position prompt.len()+k, predicted by the
        // logits row at index prompt.len()+k-1.
        let row = prompt.len() + k - 1;
        total += lp[row * vocab + tok];
    }
    total / choice.len() as f32
}

/// Per-item correctness on multiple-choice items: the choice with the
/// highest normalized log-probability wins.
pub(crate) fn multichoice_outcomes(model: &LlamaModel, items: &[MultiChoiceTask]) -> Vec<bool> {
    items
        .iter()
        .map(|item| {
            let scores: Vec<f32> = item
                .choices
                .iter()
                .map(|c| choice_logprob(model, &item.prompt, c))
                .collect();
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            best == item.correct
        })
        .collect()
}

/// Per-item correctness on cloze items: greedy next token must equal the
/// answer.
pub(crate) fn cloze_outcomes(model: &LlamaModel, items: &[ClozeTask]) -> Vec<bool> {
    let _ng = no_grad();
    items
        .iter()
        .map(|item| {
            let tl = item.prompt.len();
            let logits = model.logits(&item.prompt, 1, tl, None);
            let last = logits.value().slice(0, tl - 1, 1);
            t::argmax_lastdim(&last)[0] == item.answer
        })
        .collect()
}

fn percent(outcomes: &[bool]) -> f32 {
    100.0 * outcomes.iter().filter(|&&b| b).count() as f32 / outcomes.len() as f32
}

/// Accuracy (%) of the model on multiple-choice items.
pub(crate) fn score_multichoice(model: &LlamaModel, items: &[MultiChoiceTask]) -> f32 {
    assert!(!items.is_empty(), "no items");
    percent(&multichoice_outcomes(model, items))
}

/// Accuracy (%) on cloze items.
pub(crate) fn score_cloze(model: &LlamaModel, items: &[ClozeTask]) -> f32 {
    assert!(!items.is_empty(), "no items");
    percent(&cloze_outcomes(model, items))
}

/// Per-item correctness for any task.
pub fn task_outcomes(model: &LlamaModel, task: &Task) -> Vec<bool> {
    match task {
        Task::MultiChoice { items, .. } => multichoice_outcomes(model, items),
        Task::Cloze { items, .. } => cloze_outcomes(model, items),
    }
}

/// Accuracy (%) of one task.
pub(crate) fn evaluate_task(model: &LlamaModel, task: &Task) -> f32 {
    match task {
        Task::MultiChoice { items, .. } => score_multichoice(model, items),
        Task::Cloze { items, .. } => score_cloze(model, items),
    }
}

/// Accuracy (%) per task of a whole suite, in Table 3 column order.
pub fn evaluate_suite(model: &LlamaModel, suite: &TaskSuite) -> Vec<(TaskKind, f32)> {
    suite
        .tasks()
        .iter()
        .map(|task| (task.kind(), evaluate_task(model, task)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edkm_data::Grammar;
    use edkm_nn::{AdamWConfig, LlamaConfig, LlamaModel, LmBatch, TrainConfig, Trainer};
    use edkm_tensor::{runtime, DType, Device};

    fn model() -> LlamaModel {
        runtime::reset();
        LlamaModel::new(
            LlamaConfig {
                vocab: 64,
                d_model: 16,
                n_heads: 2,
                n_layers: 1,
                d_ff: 32,
                max_seq: 32,
            },
            DType::F32,
            Device::Cpu,
            0,
        )
    }

    #[test]
    fn logprob_is_negative_and_finite() {
        let m = model();
        let lp = choice_logprob(&m, &[1, 2, 3], &[4, 5]);
        assert!(lp < 0.0 && lp.is_finite());
    }

    #[test]
    fn logprob_prefers_trained_continuation() {
        let m = model();
        // Teach the model that 7 follows [1, 2].
        let mut trainer = Trainer::new(TrainConfig {
            optim: AdamWConfig { lr: 5e-3 },
            ..TrainConfig::default()
        });
        let params = m.params();
        let batch = LmBatch::new(vec![vec![1, 2, 7, 1, 2, 7]]);
        for _ in 0..40 {
            trainer.step(&m, &batch, &params, None);
        }
        let good = choice_logprob(&m, &[1, 2], &[7]);
        let bad = choice_logprob(&m, &[1, 2], &[9]);
        assert!(good > bad, "trained continuation must score higher");
    }

    #[test]
    fn untrained_accuracy_is_near_chance() {
        let m = model();
        let g = Grammar::default_with_seed(0);
        let suite = edkm_data::TaskSuite::generate(&g, 40, 1);
        for (kind, acc) in evaluate_suite(&m, &suite) {
            let chance = kind.chance_percent();
            // Untrained models should hover near chance (generously wide
            // band: tiny models have arbitrary biases).
            assert!(
                (acc - chance).abs() <= 35.0,
                "{}: acc {acc} too far from chance {chance}",
                kind.name()
            );
        }
    }

    #[test]
    fn cloze_scoring_counts_exact_matches() {
        let m = model();
        let g = Grammar::default_with_seed(0);
        let suite = edkm_data::TaskSuite::generate(&g, 10, 2);
        let cloze = suite
            .tasks()
            .iter()
            .find(|t| t.kind() == TaskKind::SynTriviaQa)
            .unwrap();
        let acc = evaluate_task(&m, cloze);
        assert!((0.0..=100.0).contains(&acc));
    }

    #[test]
    fn suite_reports_all_seven() {
        let m = model();
        let g = Grammar::default_with_seed(0);
        let suite = edkm_data::TaskSuite::generate(&g, 5, 3);
        let results = evaluate_suite(&m, &suite);
        assert_eq!(results.len(), 7);
        assert_eq!(results[0].0, TaskKind::SynPiqa);
        assert_eq!(results[6].0, TaskKind::SynMmlu);
    }
}
