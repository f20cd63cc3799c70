//! Property tests for the blocked/parallel compute backend.
//!
//! Every fast kernel (packed GEMM with all transpose variants, im2col
//! convolution forward and both gradients) is checked against the naive
//! reference loops in `pelta_tensor::kernels::reference` over randomised
//! shapes, strides and paddings — and against itself across thread counts,
//! where the determinism contract requires **bitwise** identical results.
//! The stride walks behind broadcasting, `reduce_to_shape` and `permute`
//! must match their naive index loops bitwise too.

use pelta_tensor::kernels::{conv, gemm::gemm, reference};
use pelta_tensor::pool::ThreadPool;
use pelta_tensor::{Conv2dSpec, Tensor};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Absolute tolerance for fast-vs-naive comparisons (the FMA kernels round
/// differently from the scalar reference).
const TOL: f32 = 1e-4;

fn assert_close(fast: &[f32], naive: &[f32], what: &str) {
    assert_eq!(fast.len(), naive.len(), "{what}: length mismatch");
    for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
        assert!(
            (a - b).abs() < TOL,
            "{what}: element {i} differs: fast {a} vs naive {b}"
        );
    }
}

fn assert_bitwise(one: &[f32], many: &[f32], what: &str) {
    assert_eq!(
        one.to_bits_vec(),
        many.to_bits_vec(),
        "{what}: results disagree bitwise"
    );
}

/// Bit-exact comparison helper.
trait ToBits {
    fn to_bits_vec(&self) -> Vec<u32>;
}

impl ToBits for [f32] {
    fn to_bits_vec(&self) -> Vec<u32> {
        self.iter().map(|x| x.to_bits()).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packed GEMM (all four transpose combinations) matches the naive
    /// i-k-j loop, bitwise-identically at 1, 2 and 4 threads. Dimensions
    /// straddle the small-GEMM cutoff so both paths are exercised.
    #[test]
    fn prop_gemm_matches_reference_at_any_thread_count(
        m in 1usize..96,
        k in 1usize..96,
        n in 1usize..96,
        trans_bits in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let (trans_a, trans_b) = (trans_bits & 1 != 0, trans_bits & 2 != 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Stored layouts depend on the transpose flags.
        let a_dims = if trans_a { [k, m] } else { [m, k] };
        let b_dims = if trans_b { [n, k] } else { [k, n] };
        let a = Tensor::rand_uniform(&a_dims, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&b_dims, -1.0, 1.0, &mut rng);

        // Naive oracle on the materialised transposes.
        let a_mat = if trans_a { a.transpose().unwrap() } else { a.clone() };
        let b_mat = if trans_b { b.transpose().unwrap() } else { b.clone() };
        let naive = reference::naive_matmul(&a_mat, &b_mat).unwrap();

        let mut per_pool = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![0.0f32; m * n];
            gemm(&pool, trans_a, a.data(), trans_b, b.data(), m, k, n, &mut out, false);
            assert_close(&out, naive.data(), "gemm");
            per_pool.push(out);
        }
        assert_bitwise(&per_pool[0], &per_pool[1], "gemm 1 vs 2 threads");
        assert_bitwise(&per_pool[0], &per_pool[2], "gemm 1 vs 4 threads");
    }

    /// GEMM accumulate mode adds onto the existing output.
    #[test]
    fn prop_gemm_accumulate_adds(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let pool = ThreadPool::new(2);
        let mut once = vec![0.0f32; m * n];
        gemm(&pool, false, a.data(), false, b.data(), m, k, n, &mut once, false);
        let mut twice = once.clone();
        gemm(&pool, false, a.data(), false, b.data(), m, k, n, &mut twice, true);
        for (two, one) in twice.iter().zip(&once) {
            prop_assert!((two - 2.0 * one).abs() < TOL);
        }
    }

    /// im2col conv2d forward matches the naive 7-loop direct convolution
    /// over random geometry, bitwise-identically across thread counts.
    #[test]
    fn prop_conv2d_matches_reference(
        n in 1usize..4,
        c_in in 1usize..4,
        c_out in 1usize..5,
        h in 4usize..11,
        w in 4usize..11,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let kernel = kernel.min(h).min(w);
        let spec = Conv2dSpec::new(stride, pad);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&[n, c_in, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[c_out, c_in, kernel, kernel], -1.0, 1.0, &mut rng);
        let naive = reference::naive_conv2d(&x, &wt, spec).unwrap();

        let mut per_pool = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            let fast = conv::conv2d(&pool, &x, &wt, spec).unwrap();
            prop_assert_eq!(fast.dims(), naive.dims());
            assert_close(fast.data(), naive.data(), "conv2d");
            per_pool.push(fast);
        }
        assert_bitwise(per_pool[0].data(), per_pool[1].data(), "conv2d 1 vs 2 threads");
        assert_bitwise(per_pool[0].data(), per_pool[2].data(), "conv2d 1 vs 4 threads");
    }

    /// Both convolution gradients match their naive references over random
    /// geometry and thread counts.
    #[test]
    fn prop_conv2d_gradients_match_reference(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..4,
        h in 4usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let w = h; // square inputs keep the case count manageable
        let kernel = kernel.min(h);
        let spec = Conv2dSpec::new(stride, pad);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&[n, c_in, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[c_out, c_in, kernel, kernel], -1.0, 1.0, &mut rng);
        let y = reference::naive_conv2d(&x, &wt, spec).unwrap();
        let g = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);

        let naive_gx =
            reference::naive_conv2d_input_grad(&g, &wt, x.dims(), spec).unwrap();
        let naive_gw =
            reference::naive_conv2d_weight_grad(&x, &g, wt.dims(), spec).unwrap();

        let mut gx_runs = Vec::new();
        let mut gw_runs = Vec::new();
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads);
            let gx = conv::conv2d_input_grad(&pool, &g, &wt, x.dims(), spec).unwrap();
            let gw = conv::conv2d_weight_grad(&pool, &x, &g, wt.dims(), spec).unwrap();
            assert_close(gx.data(), naive_gx.data(), "conv2d_input_grad");
            assert_close(gw.data(), naive_gw.data(), "conv2d_weight_grad");
            gx_runs.push(gx);
            gw_runs.push(gw);
        }
        assert_bitwise(gx_runs[0].data(), gx_runs[1].data(), "input_grad threads");
        assert_bitwise(gw_runs[0].data(), gw_runs[1].data(), "weight_grad threads");
    }

    /// The batched matmul driver agrees with per-slice matmuls regardless of
    /// which internal path (per-slice parallel vs per-row parallel) it took.
    #[test]
    fn prop_batch_matmul_matches_slices(
        b in 1usize..5,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&[b, m, k], -1.0, 1.0, &mut rng);
        let bb = Tensor::rand_uniform(&[b, k, n], -1.0, 1.0, &mut rng);
        let fast = a.batch_matmul(&bb).unwrap();
        for bi in 0..b {
            let ai = a.index_axis(0, bi).unwrap();
            let bi_t = bb.index_axis(0, bi).unwrap();
            let naive = reference::naive_matmul(&ai, &bi_t).unwrap();
            let slice = fast.index_axis(0, bi).unwrap();
            assert_close(slice.data(), naive.data(), "batch_matmul");
        }
    }
}

/// `dims` with the axes whose bit is set in `ones` shrunk to 1 and the
/// leading `drop` axes removed — a shape that broadcasts to `dims`.
fn broadcastable(dims: &[usize], ones: usize, drop: usize) -> Vec<usize> {
    let kept: Vec<usize> = dims
        .iter()
        .enumerate()
        .map(|(axis, &d)| if ones >> axis & 1 == 1 { 1 } else { d })
        .collect();
    kept[drop.min(kept.len())..].to_vec()
}

/// `dims` with axis `zero` (if in range) set to 0.
fn with_zero_axis(mut dims: Vec<usize>, zero: usize) -> Vec<usize> {
    if let Some(d) = dims.get_mut(zero) {
        *d = 0;
    }
    dims
}

/// Every permutation of `0..rank`, in lexicographic order.
fn permutations(rank: usize) -> Vec<Vec<usize>> {
    if rank == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..rank {
        for rest in permutations(rank - 1) {
            let mut p = vec![first];
            p.extend(rest.into_iter().map(|a| if a >= first { a + 1 } else { a }));
            out.push(p);
        }
    }
    out
}

/// A public broadcasting binary op, and the scalar function it applies.
type Zip = (
    &'static str,
    fn(&Tensor, &Tensor) -> pelta_tensor::Result<Tensor>,
    fn(f32, f32) -> f32,
);

/// Every public broadcasting binary op.
const ZIPS: [Zip; 6] = [
    ("add", Tensor::add, |x, y| x + y),
    ("sub", Tensor::sub, |x, y| x - y),
    ("mul", Tensor::mul, |x, y| x * y),
    ("div", Tensor::div, |x, y| x / y),
    ("maximum", Tensor::maximum, f32::max),
    ("minimum", Tensor::minimum, f32::min),
];

/// Every broadcasting op on `a`, `b` equals the naive index loop bitwise.
fn assert_zips_match_reference(a: &Tensor, b: &Tensor) {
    for (name, op, f) in ZIPS {
        let fast = op(a, b).unwrap();
        let naive = reference::naive_broadcast_zip(a, b, f).unwrap();
        assert_eq!(
            fast.dims(),
            naive.dims(),
            "{name} {:?} {:?}",
            a.dims(),
            b.dims()
        );
        assert_bitwise(fast.data(), naive.data(), name);
    }
}

/// `src.reduce_to_shape(target)` equals the naive loop bitwise (or, for the
/// identity target, `src` itself).
fn assert_reduce_matches_reference(src: &Tensor, target: &[usize]) {
    let fast = src.reduce_to_shape(target).unwrap();
    let want = if src.dims() == target {
        src.clone()
    } else {
        reference::naive_reduce_to_shape(src, target).unwrap()
    };
    assert_eq!(fast.dims(), want.dims(), "{:?} -> {target:?}", src.dims());
    assert_bitwise(fast.data(), want.data(), "reduce_to_shape");
}

/// Every permutation of `src`'s axes equals the naive gather bitwise.
fn assert_permutes_match_reference(src: &Tensor) {
    for axes in permutations(src.rank()) {
        let fast = src.permute(&axes).unwrap();
        let naive = reference::naive_permute(src, &axes).unwrap();
        assert_eq!(fast.dims(), naive.dims(), "{:?} by {axes:?}", src.dims());
        assert_bitwise(fast.data(), naive.data(), "permute");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Broadcasting binary ops equal the seed's index loop bitwise over
    /// random shapes up to rank 4: each side independently broadcast on a
    /// random subset of axes (so both-sided `[3,1] + [1,4]` cases occur),
    /// rank-padded by dropping leading axes, sometimes with a zero-size axis.
    #[test]
    fn prop_broadcast_zip_matches_reference_bitwise(
        dims in vec(1usize..5, 0..=4),
        zero in 0usize..12,
        ones_a in 0usize..16,
        ones_b in 0usize..16,
        drop_a in 0usize..5,
        drop_b in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let dims = with_zero_axis(dims, zero);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&broadcastable(&dims, ones_a, drop_a), -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&broadcastable(&dims, ones_b, drop_b), -2.0, 2.0, &mut rng);
        assert_zips_match_reference(&a, &b);
        assert_zips_match_reference(&b, &a);
    }

    /// `reduce_to_shape` equals the seed's ascending-offset summation loop
    /// bitwise for every target that broadcasts to the source: random
    /// collapsed axes, dropped leading axes and zero-size axes up to rank 4.
    #[test]
    fn prop_reduce_to_shape_matches_reference_bitwise(
        dims in vec(1usize..6, 0..=4),
        zero in 0usize..12,
        ones in 0usize..16,
        drop in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let dims = with_zero_axis(dims, zero);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let src = Tensor::rand_uniform(&dims, -2.0, 2.0, &mut rng);
        assert_reduce_matches_reference(&src, &broadcastable(&dims, ones, drop));
    }

    /// Every axis permutation of a random tensor up to rank 4 (including
    /// size-1 and zero-size axes) equals the seed's gather loop bitwise.
    #[test]
    fn prop_permute_matches_reference_bitwise(
        dims in vec(1usize..5, 0..=4),
        zero in 0usize..12,
        seed in 0u64..1_000,
    ) {
        let dims = with_zero_axis(dims, zero);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        assert_permutes_match_reference(&Tensor::rand_uniform(&dims, -2.0, 2.0, &mut rng));
    }
}

/// The named shapes the model layers use, plus the edge ranks, against the
/// naive loops bitwise.
#[test]
fn stride_walks_match_reference_on_named_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut t = |dims: &[usize]| Tensor::rand_uniform(dims, -2.0, 2.0, &mut rng);
    let pairs: [(&[usize], &[usize]); 8] = [
        (&[3, 1], &[1, 4]),         // both-sided broadcast
        (&[2, 17, 8], &[8]),        // [B,T,D] + [D] bias add
        (&[2, 17, 8], &[17, 8]),    // positional embedding
        (&[2, 17, 8], &[2, 17, 1]), // layer-norm statistics
        (&[], &[2, 3]),             // rank-0 operand
        (&[], &[]),                 // rank-0 both sides
        (&[0, 3], &[3]),            // zero-size axis
        (&[2, 0, 1], &[1, 5]),      // zero-size against broadcast
    ];
    for (a, b) in pairs {
        let (a, b) = (t(a), t(b));
        assert_zips_match_reference(&a, &b);
        assert_zips_match_reference(&b, &a);
    }
    let reductions: [(&[usize], &[usize]); 6] = [
        (&[2, 17, 8], &[8]),
        (&[2, 17, 8], &[1, 17, 1]),
        (&[3, 4], &[]),
        (&[], &[]),
        (&[2, 0, 3], &[3]),
        (&[2, 0, 3], &[2, 1, 1]),
    ];
    for (src, target) in reductions {
        assert_reduce_matches_reference(&t(src), target);
    }
    for dims in [&[2, 17, 4, 2][..], &[], &[1, 1, 3], &[2, 0, 3, 1]] {
        assert_permutes_match_reference(&t(dims));
    }
}

/// Non-proptest sanity check: the public `Tensor` ops (which use the global
/// pool) agree with the naive references on a blocked-path-sized problem.
#[test]
fn tensor_ops_route_through_kernels() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let a = Tensor::rand_uniform(&[130, 70], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[70, 90], -1.0, 1.0, &mut rng);
    let fast = a.matmul(&b).unwrap();
    let naive = reference::naive_matmul(&a, &b).unwrap();
    assert_close(fast.data(), naive.data(), "Tensor::matmul");

    let x = Tensor::rand_uniform(&[2, 3, 12, 12], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[8, 3, 3, 3], -1.0, 1.0, &mut rng);
    let spec = Conv2dSpec::new(1, 1);
    let fast = x.conv2d(&w, spec).unwrap();
    let naive = reference::naive_conv2d(&x, &w, spec).unwrap();
    assert_close(fast.data(), naive.data(), "Tensor::conv2d");
}
