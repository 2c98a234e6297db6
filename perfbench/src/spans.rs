//! Self-time spans around calls into the compress path's layers.
//!
//! The compress path runs on one thread (saved-tensor hooks are
//! thread-local), so spans live in a thread-local stack: a span's self
//! time is its duration minus the time of the spans it encloses, which
//! makes the self times of all layers plus the untraced remainder add up
//! to the wall time of the traced pass.

use std::cell::RefCell;
use std::time::Instant;

/// A layer whose public calls the traced compress pass times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `DkmLayer::cluster`, through the weight hook.
    Cluster,
    /// `EdkmHooks::pack`, through a delegating hooks object.
    Pack,
    /// `EdkmHooks::unpack`, through the same delegate.
    Unpack,
    /// `LlamaModel::lm_loss`, the forward pass.
    Forward,
    /// `Var::backward`.
    Backward,
    /// `clip_grad_norm` plus `AdamW::step`.
    Optim,
    /// `CompressionPipeline::export`.
    Export,
    /// `CompressedModel::to_bytes`.
    Serialize,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Cluster,
        Layer::Pack,
        Layer::Unpack,
        Layer::Forward,
        Layer::Backward,
        Layer::Optim,
        Layer::Export,
        Layer::Serialize,
    ];

    /// The per-layer metric carrying this layer's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Cluster => "dkm.cluster_ms",
            Layer::Pack => "hooks.pack_ms",
            Layer::Unpack => "hooks.unpack_ms",
            Layer::Forward => "nn.forward_ms",
            Layer::Backward => "autograd.backward_ms",
            Layer::Optim => "nn.optim_ms",
            Layer::Export => "pipeline.export_ms",
            Layer::Serialize => "pipeline.serialize_ms",
        }
    }
}

struct Frame {
    start: Instant,
    child_ns: u128,
}

#[derive(Default)]
struct Recorder {
    stack: Vec<Frame>,
    self_ns: [u128; Layer::ALL.len()],
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Run `f` inside a span of `layer` on this thread.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        r.borrow_mut().stack.push(Frame {
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let frame = r.stack.pop().expect("span frame pushed above");
        let total = frame.start.elapsed().as_nanos();
        r.self_ns[layer as usize] += total.saturating_sub(frame.child_ns);
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += total;
        }
    });
    out
}

/// Self time per layer recorded on this thread so far, in milliseconds,
/// and reset the recorder.
pub fn take_self_ms() -> [f64; Layer::ALL.len()] {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "spans still open");
        let out = r.self_ns.map(|ns| ns as f64 / 1e6);
        r.self_ns = [0; Layer::ALL.len()];
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_report_self_time_that_sums_to_the_outer_span() {
        take_self_ms();
        let outer = Instant::now();
        span(Layer::Forward, || {
            std::thread::sleep(Duration::from_millis(3));
            span(Layer::Cluster, || {
                std::thread::sleep(Duration::from_millis(4));
                span(Layer::Pack, || std::thread::sleep(Duration::from_millis(2)));
            });
        });
        let wall = outer.elapsed().as_secs_f64() * 1e3;
        let ms = take_self_ms();
        let (fwd, cluster, pack) = (ms[3], ms[0], ms[1]);
        assert!(pack >= 2.0 && cluster >= 4.0 && fwd >= 3.0, "{ms:?}");
        // The pack span's 2 ms must not count toward the cluster span.
        assert!(cluster < 5.9, "child time leaked into the parent: {ms:?}");
        let sum: f64 = ms.iter().sum();
        assert!(sum <= wall && wall - sum < 0.5, "sum {sum} vs wall {wall}");
        assert_eq!(take_self_ms(), [0.0; 8]);
    }
}
