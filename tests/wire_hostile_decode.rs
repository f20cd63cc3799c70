//! Hostile decoding of the dense element sections (`Raw`, `Bf16`, `Int8`):
//! `Message::decode` is fed `Update` frames whose dims and element bytes
//! are arbitrary but whose FNV-1a checksum is recomputed, so every frame
//! gets past the integrity check and into the section decoders. Whatever
//! the frame claims, decoding must return `Err` rather than panic, accept
//! only a tensor whose section length matches its shape exactly, and never
//! make an allocation larger than the frame's own length implies (an `Int8`
//! code widens to a 4-byte `f32`, so `4 · frame length` bounds every
//! element buffer).
//!
//! The allocation bound is observed by a pass-through global allocator
//! that records the largest request made on the current thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use pelta_fl::Message;

/// Delegates to the system allocator, noting the largest request size.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` neither allocates nor unwinds.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Runs `f` and returns its result with the largest allocation request it
/// made on this thread.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// FNV-1a 64, the frame checksum (`docs/wire-format.md`).
fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The three dense codecs: wire tag (none for `Raw`) and bytes per element.
const DENSE: [(Option<u8>, usize); 3] = [(None, 4), (Some(1), 2), (Some(2), 1)];

/// A one-parameter `Update` frame (`docs/wire-format.md`) carrying `dims`
/// under a claimed `rank`, an Int8 `scale` when the codec has one, then
/// `section` as the element bytes, and a valid checksum.
fn update_frame(tag: Option<u8>, rank: u32, dims: &[u64], scale: u32, section: &[u8]) -> Vec<u8> {
    let mut frame = b"PFL\x01".to_vec();
    match tag {
        None => frame.extend_from_slice(&2u16.to_le_bytes()),
        Some(_) => frame.extend_from_slice(&3u16.to_le_bytes()),
    }
    frame.push(2); // Update
    frame.extend(tag);
    for field in [4u64, 17, 1] {
        // round, client id, sample count
        frame.extend_from_slice(&field.to_le_bytes());
    }
    frame.extend_from_slice(&1u32.to_le_bytes()); // one parameter
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.push(b'w');
    frame.extend_from_slice(&rank.to_le_bytes());
    for dim in dims {
        frame.extend_from_slice(&dim.to_le_bytes());
    }
    if tag == Some(2) {
        frame.extend_from_slice(&scale.to_le_bytes());
    }
    frame.extend_from_slice(section);
    frame.extend_from_slice(&0u32.to_le_bytes()); // no sealed blobs
    let checksum = fnv1a64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Decodes `frame`, asserting the allocation bound, and returns the decoded
/// parameter's dims and element count when it was accepted.
fn decode_bounded(frame: &[u8]) -> Option<(Vec<usize>, usize)> {
    let (decoded, largest) = largest_request(|| Message::decode(frame));
    assert!(
        largest <= 4 * frame.len() + 256,
        "decoding a {}-byte frame made a {largest}-byte allocation",
        frame.len()
    );
    match decoded {
        Ok(Message::Update { update, .. }) => {
            let tensor = &update.parameters[0].1;
            Some((tensor.dims().to_vec(), tensor.numel()))
        }
        Ok(other) => panic!("an Update frame decoded as {}", other.kind()),
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_dense_sections_error_without_panicking_or_overallocating(
        codec in 0usize..3,
        rank_draw in 0u32..=10,
        dim_draws in proptest::collection::vec(0u64..=u64::MAX, 10),
        scale in 0u32..=u32::MAX,
        fit in 0u8..3,
        bytes in proptest::collection::vec(0u8..=255, 0..=96),
        slack in 0usize..=8,
    ) {
        let (tag, width) = DENSE[codec];
        // Mostly small dims (so a section can match the shape), sometimes
        // any u64 at all — products that overflow, or dwarf the payload.
        let dims: Vec<u64> = dim_draws
            .iter()
            .take(rank_draw as usize)
            .map(|&d| if d % 4 == 0 { d } else { d % 5 })
            .collect();
        // A shape is well formed when its left-to-right product fits, the
        // way `Tensor` multiplies it (a later zero dim does not rescue it).
        let numel = dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d));
        // `fit` 0 sends the exact section the shape needs (when small),
        // 1 that section cut short or overrun by `slack` bytes, 2 raw bytes.
        let exact = numel
            .and_then(|n| n.checked_mul(width as u64))
            .filter(|&len| len <= 4096)
            .map(|len| len as usize);
        let section: Vec<u8> = match (fit, exact) {
            (0, Some(len)) => bytes.iter().copied().cycle().take(len).collect(),
            (1, Some(len)) if slack > 0 && len >= slack => {
                bytes.iter().copied().chain(std::iter::repeat(7)).take(len - slack).collect()
            }
            (1, Some(len)) => bytes.iter().copied().cycle().take(len + slack + 1).collect(),
            _ => bytes.clone(),
        };
        let frame = update_frame(tag, rank_draw, &dims, scale, &section);
        let consistent = rank_draw <= 8 && exact == Some(section.len());
        match decode_bounded(&frame) {
            Some((decoded_dims, decoded_numel)) => {
                prop_assert!(consistent, "accepted an inconsistent section: {dims:?}, {} bytes", section.len());
                let claimed: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
                prop_assert_eq!(decoded_dims, claimed);
                prop_assert_eq!(decoded_numel * width, section.len());
            }
            None => prop_assert!(
                !consistent,
                "refused a consistent {}-dim section",
                rank_draw
            ),
        }
    }
}

#[test]
fn dims_claiming_more_than_the_frame_holds_are_refused_before_allocating() {
    for (tag, _) in DENSE {
        for dims in [
            vec![u64::MAX],
            vec![1 << 40],
            vec![1 << 20, 1 << 20],
            vec![u64::MAX, 0, u64::MAX],
            vec![u64::MAX, u64::MAX, 0],
            vec![3, 1 << 62, 5],
        ] {
            let frame = update_frame(tag, dims.len() as u32, &dims, 0x3F80_0000, &[1, 2, 3]);
            let accepted = decode_bounded(&frame);
            // A zero dim makes the claim legitimately empty; the 3 spare
            // bytes then trail the tensor and the frame is still refused.
            assert_eq!(accepted, None, "{dims:?} under tag {tag:?}");
        }
    }
}
