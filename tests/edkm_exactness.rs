//! Integration test: eDKM is a *memory* optimization — it must not change
//! the math. Gradients of a full model step are bit-identical with and
//! without the hooks, across every Table 2 configuration, and a seeded
//! fine-tune-and-compress run is pinned bit for bit.

use edkm::autograd::{push_hooks, SavedTensorHooks};
use edkm::core::{
    CompressSpec, CompressionPipeline, DkmConfig, DkmLayer, EdkmConfig, EdkmHooks,
    HookStatsSnapshot,
};
use edkm::nn::{LlamaConfig, LlamaModel, LmBatch};
use edkm::tensor::{runtime, DType, Device};
use std::collections::HashMap;
use std::sync::Arc;

fn grads_of_one_step(config: Option<EdkmConfig>) -> HashMap<String, Vec<f32>> {
    grads_of_one_step_in(DType::Bf16, config)
}

/// Every parameter's gradient after one DKM-clustered step of a tiny model
/// held in `dtype`, with the given eDKM hooks installed (or none).
fn grads_of_one_step_in(dtype: DType, config: Option<EdkmConfig>) -> HashMap<String, Vec<f32>> {
    one_step_in(dtype, config).0
}

/// [`grads_of_one_step_in`]'s gradients and the hook counters of the step
/// (`None` without hooks). The step starts from a fresh runtime, so the
/// ledger afterwards holds this step alone.
fn one_step_in(
    dtype: DType,
    config: Option<EdkmConfig>,
) -> (HashMap<String, Vec<f32>>, Option<HookStatsSnapshot>) {
    runtime::reset();
    edkm::core::uniquify::clear_annotations();
    let model = LlamaModel::new(LlamaConfig::tiny(), dtype, Device::gpu(), 3);
    let dkm = DkmLayer::new(DkmConfig {
        iters: 2,
        ..DkmConfig::with_bits(3)
    });
    let clusterable: std::collections::HashSet<String> =
        model.clusterable_names().into_iter().collect();
    let seqs = vec![vec![1usize, 2, 3, 4, 5, 6]];

    let run = |hooks: Option<Arc<EdkmHooks>>| {
        let _guard = hooks.map(|h| push_hooks(h as Arc<dyn SavedTensorHooks>));
        let hook = |name: &str, w: &edkm::autograd::Var| {
            if clusterable.contains(name) {
                dkm.cluster(w).soft
            } else {
                w.clone()
            }
        };
        let loss = model.lm_loss(&seqs, Some(&hook));
        loss.backward();
    };
    let hooks = config.map(|c| Arc::new(EdkmHooks::new(c)));
    run(hooks.clone());

    let grads = model
        .named_params()
        .into_iter()
        .map(|(name, p)| (name, p.grad().map(|g| g.to_vec()).unwrap_or_default()))
        .collect();
    (grads, hooks.map(|h| h.stats()))
}

#[test]
fn every_config_produces_bitwise_identical_gradients() {
    let reference = grads_of_one_step(None);
    for config in [
        EdkmConfig::baseline(),
        EdkmConfig::marshal_only(),
        EdkmConfig::marshal_uniquify(),
        EdkmConfig::marshal_shard(),
        EdkmConfig::full(4),
    ] {
        let got = grads_of_one_step(Some(config));
        assert_eq!(got.len(), reference.len());
        for (name, g) in &reference {
            assert_eq!(
                got.get(name).unwrap(),
                g,
                "gradient of {name} changed under config {}",
                config.label()
            );
        }
    }
}

#[test]
fn hooks_actually_intercepted_the_step() {
    runtime::reset();
    edkm::core::uniquify::clear_annotations();
    let model = LlamaModel::new(LlamaConfig::tiny(), DType::Bf16, Device::gpu(), 3);
    let dkm = DkmLayer::new(DkmConfig::with_bits(3));
    let clusterable: std::collections::HashSet<String> =
        model.clusterable_names().into_iter().collect();
    let hooks = Arc::new(EdkmHooks::new(EdkmConfig::full(4)));
    {
        let _g = push_hooks(Arc::clone(&hooks) as Arc<dyn SavedTensorHooks>);
        let hook = |name: &str, w: &edkm::autograd::Var| {
            if clusterable.contains(name) {
                dkm.cluster(w).soft
            } else {
                w.clone()
            }
        };
        let loss = model.lm_loss(&[vec![1, 2, 3, 4]], Some(&hook));
        loss.backward();
    }
    let s = hooks.stats();
    assert!(s.packs > 20, "a model step saves many tensors: {s:?}");
    assert!(
        s.direct_hits + s.walk_hits > 0,
        "DKM must trigger dedup: {s:?}"
    );
    assert!(s.unpacks > 0, "backward must unpack: {s:?}");
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seeded bf16 fine-tune-and-compress (full eDKM hooks, 3-bit DKM) gives
/// the same loss bits and the same container bytes as when these values
/// were pinned: a change to DKM's rounding anywhere in the pipeline fails
/// here.
#[test]
fn seeded_fine_tune_and_compress_is_pinned_bit_for_bit() {
    runtime::reset();
    edkm::core::uniquify::clear_annotations();
    let config = LlamaConfig {
        vocab: 32,
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        max_seq: 12,
    };
    let model = LlamaModel::new(config, DType::Bf16, Device::gpu(), 5);
    let batches: Vec<LmBatch> = (0..3)
        .map(|b| {
            LmBatch::new(
                (0..2)
                    .map(|s| {
                        (0..10)
                            .map(|t| (b * 7 + s * 5 + t * 3 + t * t) % 32)
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect();
    let mut spec = CompressSpec::with_bits(3);
    spec.epochs = 1;
    spec.dkm.iters = 4;
    spec.edkm = EdkmConfig::full(4);
    let result = CompressionPipeline::new(spec).fine_tune_and_compress(&model, &batches);
    let losses: Vec<u32> = result.losses.iter().map(|l| l.to_bits()).collect();
    assert_eq!(losses, [1079784369, 1081187687, 1079857502], "loss bits");
    assert_eq!(
        fnv1a(&result.compressed.to_bytes()),
        0xb8cc_be72_cbd2_77c2,
        "container fingerprint"
    );
}

/// The number of gradient values and the FNV-1a of their bits: parameters
/// in name order, each f32's `to_bits()` little-endian.
fn gradient_fingerprint(grads: &HashMap<String, Vec<f32>>) -> (usize, u64) {
    let mut names: Vec<&String> = grads.keys().collect();
    names.sort();
    let bytes: Vec<u8> = names
        .into_iter()
        .flat_map(|name| &grads[name])
        .flat_map(|g| g.to_bits().to_le_bytes())
        .collect();
    (bytes.len() / 4, fnv1a(&bytes))
}

/// One step's gradients are pinned bit for bit, with and without the full
/// hooks: a change to how any VJP rounds or orders its sums fails here even
/// when every comparison between configurations still agrees.
#[test]
fn one_step_gradients_are_pinned_bit_for_bit() {
    for (dtype, want) in [
        (DType::Bf16, 0x30d6_d246_f67a_5077),
        (DType::F32, 0xdc64_a58c_e246_32de),
    ] {
        for config in [None, Some(EdkmConfig::full(4))] {
            assert_eq!(
                gradient_fingerprint(&grads_of_one_step_in(dtype, config)),
                (920, want),
                "{dtype} model, hooks {:?}: gradient bits",
                config.map(|c| c.label())
            );
        }
    }
}

/// One step's ledger is pinned beside its gradients: the bf16 model under
/// the full hooks packs, offloads and moves the same bytes and advances
/// the simulated clock by the same picoseconds as when these values were
/// pinned. A change to Table 2's accounting (a save, a charge, an offload)
/// fails here, not only in a reader of `table2`'s output.
#[test]
fn one_step_ledger_is_pinned() {
    let (_, stats) = one_step_in(DType::Bf16, Some(EdkmConfig::full(4)));
    let s = stats.expect("hooks were installed");
    let transfers = runtime::transfer_snapshot();
    let got = (
        [
            s.packs,
            s.direct_hits,
            s.walk_hits,
            s.misses,
            s.unpacks,
            s.cache_hits,
            s.offloaded_bytes,
        ],
        runtime::peak_bytes(Device::Cpu),
        transfers.d2h_bytes,
        transfers.h2d_bytes,
        runtime::sim_seconds().to_bits(),
    );
    assert_eq!(
        got,
        (
            [103, 28, 0, 75, 103, 28, 32_392],
            32_392,
            32_392,
            33_160,
            0x3f61_b289_0d76_76ca
        ),
        "hook counters (packs, direct hits, walk hits, misses, unpacks, cache hits, \
         offloaded bytes), CPU peak, d2h, h2d, sim-seconds bits"
    );
}
