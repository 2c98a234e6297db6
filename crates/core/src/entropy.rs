//! Entropy-coded size of palette indices (extension beyond the paper).
//!
//! Fixed-width packing charges `bits` per index even when the cluster
//! assignment distribution is skewed. Deep Compression (Han et al., ICLR'16
//! — reference \[8\] of the paper) showed that Huffman-coding the index
//! stream recovers most of that slack. This module computes the optimal
//! Huffman code lengths over the `u32` index alphabet produced by
//! [`crate::palettize::PalettizedTensor`], so the deployment pipeline can
//! report the entropy-coded size next to the fixed-width one.
//!
//! The size is that of a canonical code: the payload plus one length byte
//! per alphabet symbol (from which a decoder rebuilds the codebook) and an
//! 8-byte symbol count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Optimal prefix-code lengths for `freqs[symbol]` occurrence counts.
/// Symbols with zero frequency get length 0 (absent); a lone symbol gets a
/// 1-bit code.
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    let present: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    if present.len() == 1 {
        lengths[present[0]] = 1;
        return lengths;
    }

    // Huffman tree via a min-heap of (weight, node). Ties broken by node id
    // for determinism.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        weight: u64,
        id: usize,
    }
    let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
    // children[id] = Some((left, right)) for internal nodes.
    let mut children: Vec<Option<(usize, usize)>> = vec![None; present.len()];
    for (id, &s) in present.iter().enumerate() {
        heap.push(Reverse(Node {
            weight: freqs[s],
            id,
        }));
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1").0;
        let b = heap.pop().expect("len > 1").0;
        let id = children.len();
        children.push(Some((a.id, b.id)));
        heap.push(Reverse(Node {
            weight: a.weight + b.weight,
            id,
        }));
    }
    // Depth-first assign lengths; leaf ids are indices into `present`.
    let root = heap.pop().expect("at least one symbol must occur").0.id;
    let mut stack = vec![(root, 0u8)];
    while let Some((id, depth)) = stack.pop() {
        match children[id] {
            Some((l, r)) => {
                stack.push((l, depth + 1));
                stack.push((r, depth + 1));
            }
            None => lengths[present[id]] = depth,
        }
    }
    lengths
}

/// The Huffman code of an index stream: per-symbol code lengths and the
/// payload length they give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntropyCoded {
    lengths: Vec<u8>,
    payload_bits: usize,
    n: usize,
}

impl EntropyCoded {
    /// Build the Huffman code of `indices` over the alphabet `0..k`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains a value `>= k`.
    pub fn encode(indices: &[u32], k: usize) -> Self {
        assert!(!indices.is_empty(), "cannot entropy-code an empty stream");
        let mut freqs = vec![0u64; k];
        for &i in indices {
            freqs[i as usize] += 1;
        }
        let lengths = huffman_lengths(&freqs);
        let payload_bits = indices.iter().map(|&s| lengths[s as usize] as usize).sum();
        EntropyCoded {
            lengths,
            payload_bits,
            n: indices.len(),
        }
    }

    /// Serialized bytes: the payload padded to whole bytes + one length
    /// byte per alphabet symbol + an 8-byte symbol count.
    pub fn size_bytes(&self) -> usize {
        self.payload_bits.div_ceil(8) + self.lengths.len() + 8
    }

    /// Mean code length in exact bits per symbol (no byte padding).
    pub fn bits_per_symbol(&self) -> f64 {
        self.payload_bits as f64 / self.n as f64
    }
}

/// Shannon entropy (bits/symbol) of an index stream over alphabet `0..k` —
/// the lower bound no prefix code can beat.
pub fn index_entropy_bits(indices: &[u32], k: usize) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    let mut freqs = vec![0u64; k];
    for &i in indices {
        freqs[i as usize] += 1;
    }
    let n = indices.len() as f64;
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn skewed_stream_beats_fixed_width() {
        // 3-bit palette (k=8) but 90% of assignments hit symbol 0.
        let mut idx = vec![0u32; 900];
        for i in 0..100 {
            idx.push(1 + (i % 7) as u32);
        }
        let ec = EntropyCoded::encode(&idx, 8);
        // 1285 payload bits: 161 bytes + 8 length bytes + 8-byte count.
        assert_eq!(ec.size_bytes(), 177);
        assert_eq!(ec.bits_per_symbol(), 1.285);
        let fixed_bits = idx.len() * 3;
        let huff_bits = ec.bits_per_symbol() * idx.len() as f64;
        assert!(
            huff_bits < 0.6 * fixed_bits as f64,
            "huffman {huff_bits} vs fixed {fixed_bits}"
        );
        // And never below the entropy bound.
        let h = index_entropy_bits(&idx, 8);
        assert!(ec.bits_per_symbol() >= h - 1e-9);
        assert!(ec.bits_per_symbol() <= h + 1.0, "within 1 bit of entropy");
    }

    #[test]
    fn uniform_stream_matches_fixed_width() {
        let idx: Vec<u32> = (0..4096).map(|i| (i % 8) as u32).collect();
        let ec = EntropyCoded::encode(&idx, 8);
        // Uniform over 8 symbols: exactly 3 bits/symbol, the fixed-width
        // 1536 bytes + 8 length bytes + 8-byte count.
        assert_eq!(ec.bits_per_symbol(), 3.0);
        assert_eq!(ec.size_bytes(), 1552);
    }

    #[test]
    fn single_symbol_stream() {
        let idx = vec![5u32; 64];
        let ec = EntropyCoded::encode(&idx, 8);
        assert!(
            (ec.bits_per_symbol() - 1.0).abs() < 1e-9,
            "degenerate code is 1 bit"
        );
    }

    #[test]
    fn two_symbols() {
        let idx = vec![0u32, 1, 0, 0, 1, 0];
        let ec = EntropyCoded::encode(&idx, 2);
        assert!((ec.bits_per_symbol() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_of_uniform_and_point_masses() {
        let uniform: Vec<u32> = (0..256).map(|i| (i % 4) as u32).collect();
        assert!((index_entropy_bits(&uniform, 4) - 2.0).abs() < 1e-12);
        let point = vec![3u32; 100];
        assert_eq!(index_entropy_bits(&point, 4), 0.0);
        assert_eq!(index_entropy_bits(&[], 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_stream_panics() {
        EntropyCoded::encode(&[], 4);
    }

    proptest! {
        /// Huffman is optimal-prefix: within 1 bit of entropy, never below.
        #[test]
        fn prop_entropy_bounds(idx in prop::collection::vec(0u32..8, 10..400)) {
            let ec = EntropyCoded::encode(&idx, 8);
            let h = index_entropy_bits(&idx, 8);
            let b = ec.bits_per_symbol();
            prop_assert!(b >= h - 1e-9, "below entropy: {} < {}", b, h);
            prop_assert!(b <= h + 1.0 + 1e-9, "more than 1 bit over entropy: {} > {}", b, h);
        }

        /// Huffman never does worse than fixed-width packing (plus the
        /// degenerate 1-symbol case where fixed width would be 0 bits).
        #[test]
        fn prop_never_worse_than_fixed(idx in prop::collection::vec(0u32..32, 32..400)) {
            let ec = EntropyCoded::encode(&idx, 32);
            prop_assert!(ec.bits_per_symbol() <= 5.0 + 1e-9);
        }
    }
}
