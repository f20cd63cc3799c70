//! Robust aggregation rules — the in-protocol defense layer of the server
//! state machine.
//!
//! The paper's related work (§II) points at defenses "against poisoning,
//! i.e., altering the model's parameters to have it underperform in its
//! primary task or overperform in a secondary task unbeknownst to the server
//! or the nodes". Pelta itself defends the *clients* against evasion-sample
//! crafting; the rules here defend the *server* against the poisoned updates
//! such samples feed.
//!
//! Since the adversary-in-the-scheduler refactor there is exactly **one**
//! aggregation code path: [`aggregate_with_rule`]. The message-driven
//! [`crate::FedAvgServer`] calls it from its *Aggregating* phase (after
//! shielded segments were unsealed and the participation policy selected the
//! reporters), and the call-level [`RobustAggregator`] wraps the same
//! function for benches and analyses that do not need the message flow.
//!
//! **Canonical fold order.** Before any rule runs, the update set is
//! re-ordered by ascending client id. Floating-point accumulation is not
//! associative, so this is what makes every rule's output a function of the
//! update *set* rather than of arrival order — the in-protocol property
//! tests assert bit-identical aggregates under client permutations, across
//! transports and across `PELTA_THREADS` values.
//!
//! **Codec transparency.** The rules never see wire bytes: when a scenario
//! ships updates through an [`crate::UpdateCodec`], the transport layer has
//! already decoded (dequantized / densified) every payload by the time it
//! reaches the fold, so the rules fold exact `f32` values in the same
//! canonical order whatever the codec. A codec changes *which* values
//! arrive (its quantization error), never *how* they are folded — each
//! codec's aggregate is therefore just as permutation-invariant,
//! transport-invariant and streaming/buffered-identical as `Raw`'s, which
//! `tests/robust_properties.rs` asserts per codec.
//!
//! **Topology invariance.** Since the topology layer, the rules also see
//! the same update set whatever route it travelled: edge aggregators and
//! gossip peers forward member updates with per-client granularity, so the
//! fold at the consensus point is identical for star, hierarchical and
//! gossip federations — and the defenses keep their full-population
//! statistics (a per-subtree trimmed mean would be a weaker, partition-
//! dependent statistic; see [`crate::topology`]). The
//! `tests/topology_equivalence.rs` and `tests/robust_properties.rs` suites
//! pin this down to the bit.
//!
//! # Streaming fold contract
//!
//! Aggregation is an [`AggregationFold`]: updates are folded **one at a
//! time, in canonical ascending-client-id order**, and [`aggregate_with_rule`]
//! is now merely the buffered façade that feeds a sorted slice through the
//! same fold. Which rules stream:
//!
//! * [`AggregationRule::FedAvg`] — **streams**. Each update's weighted delta
//!   `num_samplesᵤ · (paramsᵤ − ref)` is added to a running per-parameter
//!   sum and the payload is dropped immediately; one final normalisation by
//!   the accumulated total weight produces the aggregate. Peak memory is
//!   O(model), independent of the population.
//! * [`AggregationRule::NormClipping`] — **streams**. The clip scale
//!   `min(1, max_norm / ‖δᵤ‖)` depends only on the update itself and the
//!   fixed round reference, so the scaled delta folds incrementally exactly
//!   like FedAvg; the final normalisation divides by the update **count**
//!   (equal weights).
//! * [`AggregationRule::TrimmedMean`] — **buffers** (documented two-pass
//!   design). A per-coordinate order statistic needs every client's value
//!   for that coordinate: pass one collects the round's updates, pass two
//!   sorts each coordinate column and averages the untrimmed interior. Peak
//!   memory is inherently O(population × model); deployments that need
//!   population scale use a streaming rule.
//! * [`AggregationRule::Krum`] / [`AggregationRule::MultiKrum`] — **buffer**
//!   by the same mathematical necessity: the Krum score of one client is a
//!   function of its pairwise distances to *every other* client's update,
//!   so no update can be scored (let alone selected) before the whole round
//!   has arrived. Pass one collects, pass two computes the pairwise
//!   squared-L2 distance matrix, scores and selects.
//!
//! Why the bits are unchanged between the streamed and the buffered path:
//! both are the *same* fold code over the same canonical order — the
//! buffered façade sorts, then folds the slice through an
//! [`AggregationFold`] one update at a time. Streaming therefore preserves
//! the permutation-invariant-bits contract by construction, and the 1k-seat
//! suites in `tests/robust_properties.rs` and
//! `tests/topology_equivalence.rs` assert streamed ≡ buffered to the bit
//! across transports and `PELTA_THREADS` values.
//!
//! The rules:
//!
//! * [`AggregationRule::FedAvg`] — sample-weighted averaging (McMahan et
//!   al.), no defense; the boosted-weight backdoor walks right in.
//! * [`AggregationRule::NormClipping`] — each client's whole-model *delta*
//!   is clipped to a maximum L2 norm and the clipped deltas are averaged
//!   **equally** (clip-and-average, Sun et al.), bounding the reach of
//!   boosted model-replacement updates on both of the axes the adversary
//!   controls: delta magnitude and the self-reported sample count.
//! * [`AggregationRule::TrimmedMean`] — coordinate-wise trimmed mean (Yin et
//!   al.): per coordinate the `trim` largest and smallest client values are
//!   discarded and the rest averaged **unweighted**, so a lying
//!   `num_samples` buys the adversary nothing.
//! * [`AggregationRule::Krum`] — distance-based selection (Blanchard et
//!   al.): each client is scored by the summed squared L2 distances to its
//!   `n − f − 2` nearest neighbours, and the single lowest-scoring client's
//!   parameters become the next global model **bit-exactly** (no averaging
//!   at all, so nothing the adversary reports — weight or magnitude — mixes
//!   in unless its update sits inside the honest cluster). Requires
//!   `n ≥ 2f + 3`.
//! * [`AggregationRule::MultiKrum`] — the multi-selection variant: the `m`
//!   lowest-scoring clients are selected by the same score and their
//!   parameters averaged **unweighted** in ascending client-id order.
//!   Requires `n ≥ max(2f + 3, m + f + 2)`.
//!
//! **Krum-family determinism.** Distances accumulate per-tensor
//! `‖δ‖₂²` in `f64` in schema order (the same pattern as the clip norm);
//! per-client neighbour lists and the final ranking sort with
//! `f64::total_cmp`; score ties break toward the **lowest client id**
//! (selection ranks by `(score, canonical index)`). Every step is a pure
//! function of the canonical ascending-client-id update set, so selection is
//! permutation-, transport-, topology- and thread-invariant like every other
//! rule — `tests/robust_properties.rs` and `tests/topology_equivalence.rs`
//! pin this to the bit.

use pelta_tensor::pool::{self, parallel_map_mut, ThreadPool};
use pelta_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{FlError, GlobalModel, ModelUpdate, Result};

/// Which aggregation rule the server applies in its *Aggregating* phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregationRule {
    /// Plain sample-weighted federated averaging (no defense).
    FedAvg,
    /// Each client's update *delta* is clipped to a maximum L2 norm and the
    /// clipped deltas are averaged **equally** (clip-and-average, Sun et
    /// al.) — the standard defense against boosted model-replacement
    /// backdoors. Self-reported sample counts are ignored: a malicious
    /// client can inflate `num_samples` just as easily as it can boost its
    /// delta, so a defense that bounds one must not honor the other.
    NormClipping {
        /// Maximum L2 norm of one client's whole-model delta.
        max_norm: f32,
    },
    /// Coordinate-wise trimmed mean: per parameter coordinate, the largest
    /// and smallest `trim` client values are discarded before averaging
    /// (unweighted, as in Yin et al.).
    TrimmedMean {
        /// Number of extreme values trimmed at each end.
        trim: usize,
    },
    /// Krum selection (Blanchard et al.): each client is scored by the sum
    /// of squared L2 distances to its `n − f − 2` nearest neighbours and the
    /// lowest-scoring client's parameters are adopted **bit-exactly** as the
    /// next global model. Tolerates up to `f` Byzantine clients out of
    /// `n ≥ 2f + 3` reporters; self-reported sample counts are ignored.
    Krum {
        /// Number of Byzantine clients the selection must tolerate.
        f: usize,
    },
    /// Multi-Krum (Blanchard et al.): the `m` lowest Krum scores are
    /// selected and their parameters averaged **unweighted** in ascending
    /// client-id order. Requires `n ≥ max(2f + 3, m + f + 2)` reporters.
    MultiKrum {
        /// Number of Byzantine clients the selection must tolerate.
        f: usize,
        /// Number of selected clients to average.
        m: usize,
    },
}

impl AggregationRule {
    /// Validates the rule's own parameters (independent of any update set).
    ///
    /// # Errors
    /// Returns an error for a non-positive or non-finite clipping norm, or a
    /// multi-Krum selection size of zero.
    pub fn validate(&self) -> Result<()> {
        match self {
            AggregationRule::NormClipping { max_norm }
                if *max_norm <= 0.0 || !max_norm.is_finite() =>
            {
                Err(FlError::InvalidConfig {
                    reason: format!("clipping norm must be positive and finite, got {max_norm}"),
                })
            }
            AggregationRule::MultiKrum { m: 0, .. } => Err(FlError::InvalidConfig {
                reason: "multi-krum must select at least one client (m >= 1)".to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// The minimum number of updates this rule can aggregate.
    pub fn min_updates(&self) -> usize {
        match self {
            AggregationRule::TrimmedMean { trim } => 2 * trim + 1,
            // Krum scoring sums the n − f − 2 nearest neighbours and must
            // keep at least f + 1 honest neighbours in every list, which is
            // the classic n ≥ 2f + 3 bound; multi-Krum additionally needs
            // the m selected plus f Byzantine plus 2 to fit.
            AggregationRule::Krum { f } => 2 * f + 3,
            AggregationRule::MultiKrum { f, m } => (2 * f + 3).max(m + f + 2),
            _ => 1,
        }
    }

    /// Whether this rule folds updates incrementally (O(model) peak memory)
    /// or must buffer the round's update set (O(population × model)) — see
    /// the module-level *streaming fold contract*.
    pub fn streams(&self) -> bool {
        !matches!(
            self,
            AggregationRule::TrimmedMean { .. }
                | AggregationRule::Krum { .. }
                | AggregationRule::MultiKrum { .. }
        )
    }
}

/// The single aggregation code path of the federation: validates one round's
/// update set against the current global parameters, re-orders it into the
/// canonical ascending-client-id fold order, applies `rule`, and returns the
/// next global parameters.
///
/// # Errors
/// Returns an error if no update was supplied, an update targets a different
/// round or carries zero samples, a client id appears twice, schemas
/// disagree, or the trimmed mean would discard every client.
pub fn aggregate_with_rule(
    current: &[(String, Tensor)],
    round: usize,
    updates: &[ModelUpdate],
    rule: AggregationRule,
) -> Result<Vec<(String, Tensor)>> {
    validate_updates(current, round, updates)?;
    // Canonical fold order: ascending client id. Float accumulation is not
    // associative, so sorting here is what makes the aggregate a function of
    // the update set, not of arrival order.
    let mut ordered: Vec<&ModelUpdate> = updates.iter().collect();
    ordered.sort_by_key(|u| u.client_id);
    // The buffered façade over the streaming fold: one code path, so the
    // streamed and the buffered aggregate are bit-identical by construction.
    let mut fold = AggregationFold::new(current, round, rule)?;
    for update in ordered {
        fold.fold_ref(update)?;
    }
    fold.finish()
}

/// One round's aggregation as an incremental fold (see the module-level
/// *streaming fold contract*). Updates must arrive in strictly ascending
/// client-id order — the canonical fold order — and under a streaming rule
/// each payload is consumed immediately, keeping peak memory at O(model)
/// regardless of the population. [`AggregationRule::TrimmedMean`] buffers
/// internally (its per-coordinate order statistic needs every client's
/// value) and applies its documented two-pass design at [`AggregationFold::finish`].
pub struct AggregationFold {
    rule: AggregationRule,
    round: usize,
    /// The fixed round reference: deltas, clip norms and the final
    /// normalisation are all anchored to the global parameters the round
    /// opened with.
    reference: Vec<(String, Tensor)>,
    /// Running per-parameter sums `Σᵤ wᵤ · (paramsᵤ − ref)` (streaming
    /// rules only; empty for buffering rules).
    sums: Vec<Tensor>,
    /// Total FedAvg weight (sample count) folded so far.
    total_samples: usize,
    folded: usize,
    last_client: Option<usize>,
    /// The collected round for buffering rules (empty for streaming rules).
    buffered: Vec<ModelUpdate>,
}

impl AggregationFold {
    /// Opens a fold over the current global parameters for `round`.
    ///
    /// # Errors
    /// Returns an error if the rule's own parameters are degenerate.
    pub fn new(current: &[(String, Tensor)], round: usize, rule: AggregationRule) -> Result<Self> {
        rule.validate()?;
        let sums = if rule.streams() {
            current
                .iter()
                .map(|(_, tensor)| Tensor::zeros(tensor.dims()))
                .collect()
        } else {
            Vec::new()
        };
        Ok(AggregationFold {
            rule,
            round,
            reference: current.to_vec(),
            sums,
            total_samples: 0,
            folded: 0,
            last_client: None,
            buffered: Vec::new(),
        })
    }

    /// The number of updates folded so far.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Total FedAvg weight (sample count) folded so far.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// Folds one update, consuming it. Under a streaming rule the payload is
    /// dropped before this returns; under a buffering rule it is retained
    /// until [`AggregationFold::finish`].
    ///
    /// # Errors
    /// Returns an error if the update breaks the ascending client-id fold
    /// order, targets a different round, or fails schema validation.
    pub fn fold(&mut self, update: ModelUpdate) -> Result<()> {
        if self.rule.streams() {
            self.fold_ref(&update)
        } else {
            self.admit(&update)?;
            self.buffered.push(update);
            Ok(())
        }
    }

    /// Folds one update by reference (the buffered façade's entry point —
    /// buffering rules clone the payload, streaming rules never do).
    ///
    /// # Errors
    /// As for [`AggregationFold::fold`].
    pub fn fold_ref(&mut self, update: &ModelUpdate) -> Result<()> {
        self.admit(update)?;
        match self.rule {
            AggregationRule::FedAvg => {
                let weight = update.num_samples as f32;
                self.accumulate(update, weight);
            }
            AggregationRule::NormClipping { max_norm } => {
                // The clip scale depends only on this update and the fixed
                // round reference, so it is computable without the rest of
                // the round; the equal weights of clip-and-average become
                // the single 1/count normalisation at finish.
                let norm = delta_norm(&self.reference, update)?;
                let scale = if norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                };
                self.accumulate(update, scale);
            }
            AggregationRule::TrimmedMean { .. }
            | AggregationRule::Krum { .. }
            | AggregationRule::MultiKrum { .. } => {
                self.buffered.push(update.clone());
            }
        }
        Ok(())
    }

    /// Shared admission checks: strictly ascending client ids (which also
    /// subsumes duplicate detection), the round match, and the schema /
    /// finiteness validation every accepted update must pass.
    fn admit(&mut self, update: &ModelUpdate) -> Result<()> {
        if let Some(last) = self.last_client {
            if update.client_id <= last {
                return Err(FlError::InvalidConfig {
                    reason: format!(
                        "update from client {} folds after client {last}: the canonical \
                         fold order is strictly ascending client id",
                        update.client_id
                    ),
                });
            }
        }
        if update.round != self.round {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "update from client {} targets round {}, the fold is at round {}",
                    update.client_id, update.round, self.round
                ),
            });
        }
        validate_update_schema(&self.reference, update)?;
        self.last_client = Some(update.client_id);
        self.total_samples += update.num_samples;
        self.folded += 1;
        Ok(())
    }

    /// Adds `weight · (paramsᵤ − ref)` to the running per-parameter sums, in
    /// place: `s + w·(p − r)` per element, the same expression (and, with no
    /// FMA contraction in Rust, the same bits) as materialising the delta.
    fn accumulate(&mut self, update: &ModelUpdate, weight: f32) {
        for ((sum, (_, reference)), (_, value)) in self
            .sums
            .iter_mut()
            .zip(&self.reference)
            .zip(&update.parameters)
        {
            for ((s, &p), &r) in sum
                .data_mut()
                .iter_mut()
                .zip(value.data())
                .zip(reference.data())
            {
                *s += weight * (p - r);
            }
        }
    }

    /// Closes the fold and returns the next global parameters.
    ///
    /// # Errors
    /// Returns an error if no update was folded or the trimmed mean would
    /// discard every client.
    pub fn finish(self) -> Result<Vec<(String, Tensor)>> {
        if self.folded == 0 {
            return Err(FlError::InvalidConfig {
                reason: "no client updates to aggregate".to_string(),
            });
        }
        match self.rule {
            AggregationRule::FedAvg => self.normalized(1.0 / self.total_samples as f32),
            AggregationRule::NormClipping { .. } => self.normalized(1.0 / self.folded as f32),
            AggregationRule::TrimmedMean { trim } => {
                let ordered: Vec<&ModelUpdate> = self.buffered.iter().collect();
                trimmed_mean(&pool::global(), &self.reference, &ordered, trim)
            }
            AggregationRule::Krum { f } => {
                let ordered: Vec<&ModelUpdate> = self.buffered.iter().collect();
                let winners = krum_winners(&ordered, f, 1)?;
                // Krum adopts the winner bit-exactly: no averaging
                // arithmetic may touch the selected parameters.
                Ok(ordered[winners[0]].parameters.clone())
            }
            AggregationRule::MultiKrum { f, m } => {
                let ordered: Vec<&ModelUpdate> = self.buffered.iter().collect();
                let winners = krum_winners(&ordered, f, m)?;
                krum_mean(&ordered, &winners)
            }
        }
    }

    /// The single final normalisation of a streaming rule:
    /// `next = ref + norm · Σᵤ wᵤ · δᵤ`.
    fn normalized(&self, norm: f32) -> Result<Vec<(String, Tensor)>> {
        let mut aggregated = Vec::with_capacity(self.reference.len());
        for ((name, reference), sum) in self.reference.iter().zip(self.sums.iter()) {
            aggregated.push((name.clone(), reference.axpy(norm, sum)?));
        }
        Ok(aggregated)
    }
}

/// Validates one update against the current global schema: a positive
/// sample count (zero samples are invalid under every rule — the protocol
/// Nacks them at delivery, and the call-level path must agree), matching
/// parameter names/shapes, and **finite values**. The wire protocol is
/// deliberately bit-exact for NaN/∞, so finiteness must be enforced here:
/// a NaN coordinate would slip past the clip guard (`NaN > max_norm` is
/// false) and an ∞ delta would turn `scale · ∞` into NaN — either way one
/// poisoned update would NaN the next broadcast for every client. Shared by
/// [`crate::FedAvgServer`]'s delivery validation and the aggregation entry
/// below, so the two façades cannot drift.
pub(crate) fn validate_update_schema(
    current: &[(String, Tensor)],
    update: &ModelUpdate,
) -> Result<()> {
    if update.num_samples == 0 {
        return Err(FlError::InvalidConfig {
            reason: format!("client {} update carries zero samples", update.client_id),
        });
    }
    if update.parameters.len() != current.len() {
        return Err(FlError::SchemaMismatch {
            reason: format!(
                "client {} sent {} parameters, expected {}",
                update.client_id,
                update.parameters.len(),
                current.len()
            ),
        });
    }
    for ((name, reference), (update_name, value)) in current.iter().zip(update.parameters.iter()) {
        if name != update_name || value.dims() != reference.dims() {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "client {} parameter '{update_name}' {:?} does not match '{name}' {:?}",
                    update.client_id,
                    value.dims(),
                    reference.dims()
                ),
            });
        }
        if value.data().iter().any(|v| !v.is_finite()) {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "client {} parameter '{update_name}' contains non-finite values",
                    update.client_id
                ),
            });
        }
    }
    Ok(())
}

fn validate_updates(
    current: &[(String, Tensor)],
    round: usize,
    updates: &[ModelUpdate],
) -> Result<()> {
    if updates.is_empty() {
        return Err(FlError::InvalidConfig {
            reason: "no client updates to aggregate".to_string(),
        });
    }
    for (index, update) in updates.iter().enumerate() {
        if update.round != round {
            return Err(FlError::SchemaMismatch {
                reason: format!(
                    "update from client {} targets round {}, server is at round {round}",
                    update.client_id, update.round
                ),
            });
        }
        // Duplicate ids would make the canonical client-id sort (and thus
        // the fold order) depend on arrival order — the permutation
        // invariance the rules promise. The state machine already dedups
        // via its reporter set; the call-level path must too.
        if updates[..index]
            .iter()
            .any(|earlier| earlier.client_id == update.client_id)
        {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "client {} appears twice in the update set",
                    update.client_id
                ),
            });
        }
        validate_update_schema(current, update)?;
    }
    Ok(())
}

/// L2 norm of one client's whole-model delta relative to the current global
/// parameters.
fn delta_norm(current: &[(String, Tensor)], update: &ModelUpdate) -> Result<f32> {
    let mut sum = 0.0f64;
    for ((_, reference), (_, value)) in current.iter().zip(update.parameters.iter()) {
        let delta = value.sub(reference)?;
        let norm = delta.l2_norm();
        sum += f64::from(norm) * f64::from(norm);
    }
    Ok(sum.sqrt() as f32)
}

/// Keys per trimmed-mean task: a task transposes as many coordinates as fit
/// this many `u32` keys (32 KiB), at least one. Only the work split depends
/// on it — every coordinate's result is computed whole inside one task.
const TRIM_TASK_KEYS: usize = 8192;

/// Coordinate-wise trimmed mean of the client parameters (unweighted) — the
/// second pass of the buffering rule's documented two-pass design: the
/// round's updates were collected by the [`AggregationFold`], and this pass
/// sorts each coordinate column and averages the untrimmed interior.
///
/// The coordinates of every parameter are cut into blocks that fan out over
/// `pool`. A task transposes its block into per-coordinate columns of
/// [`total_order_key`]s, sorts each column and sums the interior in sorted
/// order. Values that compare equal under `f32::total_cmp` have identical
/// bits, so the unstable key sort yields exactly the stably sorted column,
/// and each coordinate's sort and sum run inside one task: the result is
/// the same bits at any thread count.
fn trimmed_mean(
    pool: &ThreadPool,
    current: &[(String, Tensor)],
    updates: &[&ModelUpdate],
    trim: usize,
) -> Result<Vec<(String, Tensor)>> {
    let n = updates.len();
    if 2 * trim >= n {
        return Err(FlError::InvalidConfig {
            reason: format!(
                "trimming {trim} from each end of {n} updates leaves nothing to average"
            ),
        });
    }
    let kept = (n - 2 * trim) as f32;
    let block = (TRIM_TASK_KEYS / n).max(1);
    let mut outputs: Vec<Tensor> = current
        .iter()
        .map(|(_, reference)| Tensor::zeros(reference.dims()))
        .collect();
    let mut tasks: Vec<(usize, usize, &mut [f32])> = Vec::new();
    for (index, output) in outputs.iter_mut().enumerate() {
        for (b, chunk) in output.data_mut().chunks_mut(block).enumerate() {
            tasks.push((index, b * block, chunk));
        }
    }
    parallel_map_mut(pool, &mut tasks, |_, (index, start, out)| {
        let len = out.len();
        let mut keys = vec![0u32; len * n];
        for (u, update) in updates.iter().enumerate() {
            let values = &update.parameters[*index].1.data()[*start..*start + len];
            for (c, &v) in values.iter().enumerate() {
                keys[c * n + u] = total_order_key(v);
            }
        }
        for (column, out) in keys.chunks_exact_mut(n).zip(out.iter_mut()) {
            column.sort_unstable();
            let sum: f32 = column[trim..n - trim]
                .iter()
                .map(|&key| from_total_order_key(key))
                .sum();
            *out = sum / kept;
        }
    });
    Ok(current
        .iter()
        .zip(outputs)
        .map(|((name, _), output)| (name.clone(), output))
        .collect())
}

/// Maps an `f32` to a `u32` whose unsigned order is `f32::total_cmp`'s
/// order: negative patterns are inverted, non-negative ones get the sign
/// bit set. A bijection, undone by [`from_total_order_key`].
fn total_order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Inverse of [`total_order_key`].
fn from_total_order_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key & 0x7FFF_FFFF
    } else {
        !key
    })
}

/// Squared L2 distance between two clients' full parameter vectors,
/// accumulated per tensor in `f64` in schema order — the same deterministic
/// reduction pattern as the clip norm, so distances are identical at any
/// `PELTA_THREADS` value.
fn pairwise_sq_distance(a: &ModelUpdate, b: &ModelUpdate) -> Result<f64> {
    let mut sum = 0.0f64;
    for ((_, va), (_, vb)) in a.parameters.iter().zip(b.parameters.iter()) {
        let delta = va.sub(vb)?;
        let norm = delta.l2_norm();
        sum += f64::from(norm) * f64::from(norm);
    }
    Ok(sum)
}

/// The Krum-family selection pass over a round buffered in canonical
/// ascending-client-id order: scores every client by the sum of squared L2
/// distances to its `n − f − 2` nearest neighbours and returns the indices
/// of the `m` lowest-scoring clients, **sorted ascending** (so a downstream
/// mean folds in canonical client-id order). Ranking and neighbour lists
/// sort with `f64::total_cmp`; score ties rank by ascending index, i.e.
/// ascending client id.
fn krum_winners(updates: &[&ModelUpdate], f: usize, m: usize) -> Result<Vec<usize>> {
    let n = updates.len();
    let needed = (2 * f + 3).max(m + f + 2);
    if n < needed {
        return Err(FlError::InvalidConfig {
            reason: format!(
                "krum selection with f = {f}, m = {m} needs at least {needed} updates, got {n}"
            ),
        });
    }
    // Upper-triangular pairwise distance matrix.
    let mut distance = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = pairwise_sq_distance(updates[i], updates[j])?;
            distance[i][j] = d;
            distance[j][i] = d;
        }
    }
    let neighbors = n - f - 2;
    let mut scores = Vec::with_capacity(n);
    for (i, row) in distance.iter().enumerate() {
        let mut others: Vec<f64> = row
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, d)| *d)
            .collect();
        others.sort_by(f64::total_cmp);
        // Summing the sorted prefix keeps the accumulation order (and thus
        // the bits) a pure function of the update set.
        scores.push(others[..neighbors].iter().sum::<f64>());
    }
    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    let mut winners = ranked[..m].to_vec();
    winners.sort_unstable();
    Ok(winners)
}

/// Unweighted mean of the selected clients' parameters, folded in ascending
/// client-id order (the `winners` slice is ascending) — multi-Krum's
/// averaging pass.
fn krum_mean(updates: &[&ModelUpdate], winners: &[usize]) -> Result<Vec<(String, Tensor)>> {
    let scale = 1.0 / winners.len() as f32;
    let mut aggregated = Vec::with_capacity(updates[winners[0]].parameters.len());
    for (index, (name, first)) in updates[winners[0]].parameters.iter().enumerate() {
        let mut sum = Tensor::zeros(first.dims());
        for &w in winners {
            sum = sum.axpy(1.0, &updates[w].parameters[index].1)?;
        }
        aggregated.push((name.clone(), Tensor::zeros(first.dims()).axpy(scale, &sum)?));
    }
    Ok(aggregated)
}

/// A call-level federated aggregator with a configurable robust rule.
///
/// It wraps the same [`aggregate_with_rule`] code path the message-driven
/// [`crate::FedAvgServer`] runs in its *Aggregating* phase, behind the
/// broadcast/aggregate/round surface benches and one-shot analyses use when
/// they do not need transports or the participation policy.
pub struct RobustAggregator {
    round: usize,
    rule: AggregationRule,
    parameters: Vec<(String, Tensor)>,
}

impl RobustAggregator {
    /// Creates a robust aggregator from the initial global parameters.
    ///
    /// # Errors
    /// Returns an error if the rule's own parameters are degenerate
    /// (non-positive clipping norm).
    pub fn new(initial_parameters: Vec<(String, Tensor)>, rule: AggregationRule) -> Result<Self> {
        rule.validate()?;
        Ok(RobustAggregator {
            round: 0,
            rule,
            parameters: initial_parameters,
        })
    }

    /// The current round number.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The aggregation rule in force.
    pub fn rule(&self) -> AggregationRule {
        self.rule
    }

    /// The current global parameters.
    pub fn parameters(&self) -> &[(String, Tensor)] {
        &self.parameters
    }

    /// The broadcast message for the current round.
    pub fn broadcast(&self) -> GlobalModel {
        GlobalModel {
            round: self.round,
            parameters: self.parameters.clone(),
        }
    }

    /// Aggregates one round of client updates under the configured rule and
    /// advances the round counter.
    ///
    /// # Errors
    /// Returns an error if no update was supplied, an update targets a
    /// different round, schemas disagree, or the trimmed mean would discard
    /// every client.
    pub fn aggregate(&mut self, updates: &[ModelUpdate]) -> Result<()> {
        self.parameters = aggregate_with_rule(&self.parameters, self.round, updates, self.rule)?;
        self.round += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(values: &[f32]) -> Vec<(String, Tensor)> {
        vec![(
            "w".to_string(),
            Tensor::from_vec(values.to_vec(), &[values.len()]).unwrap(),
        )]
    }

    fn update(client: usize, samples: usize, values: &[f32]) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            round: 0,
            num_samples: samples,
            parameters: named(values),
        }
    }

    #[test]
    fn fedavg_rule_matches_the_weighted_average() {
        let mut robust =
            RobustAggregator::new(named(&[0.0, 0.0]), AggregationRule::FedAvg).unwrap();
        robust
            .aggregate(&[update(0, 30, &[1.0, 1.0]), update(1, 10, &[5.0, 5.0])])
            .unwrap();
        assert_eq!(robust.round(), 1);
        assert!((robust.parameters()[0].1.data()[0] - 2.0).abs() < 1e-6);
        assert_eq!(robust.broadcast().round, 1);
        assert_eq!(robust.rule(), AggregationRule::FedAvg);
    }

    #[test]
    fn norm_clipping_bounds_a_boosted_malicious_update() {
        // An honest client moves the single weight by 1; the attacker tries
        // to move it by 100 with a boosted sample count. Clipping at norm 1
        // caps the attacker's influence to the same magnitude as the honest
        // client's.
        let initial = named(&[0.0]);
        let honest = update(0, 10, &[1.0]);
        let malicious = update(1, 30, &[100.0]);

        let mut plain = RobustAggregator::new(initial.clone(), AggregationRule::FedAvg).unwrap();
        plain
            .aggregate(&[honest.clone(), malicious.clone()])
            .unwrap();
        let undefended = plain.parameters()[0].1.data()[0];

        let mut clipped =
            RobustAggregator::new(initial, AggregationRule::NormClipping { max_norm: 1.0 })
                .unwrap();
        clipped.aggregate(&[honest, malicious]).unwrap();
        let defended = clipped.parameters()[0].1.data()[0];

        assert!(undefended > 50.0, "undefended aggregate {undefended}");
        assert!(defended <= 1.0 + 1e-6, "defended aggregate {defended}");
        assert!(defended > 0.0);
    }

    /// The original one-column-at-a-time stable-sort trimmed mean, kept as
    /// the oracle of the blocked key-sort kernel.
    fn seed_trimmed_mean(
        current: &[(String, Tensor)],
        updates: &[&ModelUpdate],
        trim: usize,
    ) -> Vec<(String, Tensor)> {
        let kept = updates.len() - 2 * trim;
        let mut aggregated = Vec::with_capacity(current.len());
        let mut column = vec![0.0f32; updates.len()];
        for (index, (name, reference)) in current.iter().enumerate() {
            let mut out = Tensor::zeros(reference.dims());
            for coord in 0..reference.numel() {
                for (u, update) in updates.iter().enumerate() {
                    column[u] = update.parameters[index].1.data()[coord];
                }
                column.sort_by(f32::total_cmp);
                let sum: f32 = column[trim..updates.len() - trim].iter().sum();
                out.data_mut()[coord] = sum / kept as f32;
            }
            aggregated.push((name.clone(), out));
        }
        aggregated
    }

    /// A single-threaded pool and a multi-threaded one, shared by every case.
    fn pools() -> &'static [ThreadPool; 2] {
        static POOLS: std::sync::OnceLock<[ThreadPool; 2]> = std::sync::OnceLock::new();
        POOLS.get_or_init(|| {
            [
                ThreadPool::new(1),
                ThreadPool::new(pool::env_threads().max(4)),
            ]
        })
    }

    /// Asserts the blocked kernel reproduces the seed oracle bit for bit on
    /// both pools.
    fn assert_trimmed_mean_matches_the_seed(
        current: &[(String, Tensor)],
        updates: &[ModelUpdate],
        trim: usize,
    ) {
        let ordered: Vec<&ModelUpdate> = updates.iter().collect();
        let expected = seed_trimmed_mean(current, &ordered, trim);
        for pool in pools() {
            let got = trimmed_mean(pool, current, &ordered, trim).unwrap();
            assert_eq!(got.len(), expected.len());
            for ((name, a), (want, b)) in got.iter().zip(&expected) {
                assert_eq!(name, want);
                assert_eq!(a.dims(), b.dims());
                for (coord, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name}[{coord}] at {} threads, trim {trim}",
                        pool.threads()
                    );
                }
            }
        }
    }

    /// One finite value per draw (the fold rejects non-finite updates):
    /// special patterns, a handful of heavily duplicated values, small
    /// uniform magnitudes and raw bit patterns, non-finite ones folded onto
    /// `±f32::MAX` — whose sums still overflow to ±∞.
    fn drawn_value(draw: u32) -> f32 {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-45,
            -1.0e-45,
            f32::MAX,
            f32::MIN,
        ];
        let rest = draw / 4;
        match draw % 4 {
            0 => SPECIAL[rest as usize % SPECIAL.len()],
            1 => [1.0, -1.0, 0.5, 0.25][rest as usize % 4],
            2 => rest as f32 / (u32::MAX / 4) as f32 - 0.5,
            _ => {
                let v = f32::from_bits(draw.rotate_left(7));
                if v.is_finite() {
                    v
                } else {
                    f32::MAX.copysign(v)
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn trimmed_mean_matches_the_seed_bit_for_bit(
            clients in 1usize..=24,
            trim_draw in 0usize..=12,
            numels in proptest::collection::vec(0usize..=700, 1..=3),
            draws in proptest::collection::vec(0u32..=u32::MAX, 1..=512),
        ) {
            // Every admissible trim, including 0 and n = 2·trim + 1.
            let trim = trim_draw % ((clients - 1) / 2 + 1);
            let current: Vec<(String, Tensor)> = numels
                .iter()
                .enumerate()
                .map(|(i, &numel)| (format!("p{i}"), Tensor::zeros(&[numel])))
                .collect();
            let mut next = 0usize;
            let updates: Vec<ModelUpdate> = (0..clients)
                .map(|client| ModelUpdate {
                    client_id: client,
                    round: 0,
                    num_samples: 1,
                    parameters: numels
                        .iter()
                        .enumerate()
                        .map(|(i, &numel)| {
                            let values: Vec<f32> = (0..numel)
                                .map(|_| {
                                    next += 1;
                                    drawn_value(draws[(next * 7 + client) % draws.len()])
                                })
                                .collect();
                            (format!("p{i}"), Tensor::from_vec(values, &[numel]).unwrap())
                        })
                        .collect(),
                })
                .collect();
            assert_trimmed_mean_matches_the_seed(&current, &updates, trim);
        }
    }

    #[test]
    fn trimmed_mean_matches_the_seed_at_population_scale() {
        // 256 seats, trim 8, two parameters spanning many task blocks; the
        // second is all signed zeros, whose interior sum keeps its sign.
        let current = vec![
            ("w".to_string(), Tensor::zeros(&[97, 3])),
            ("z".to_string(), Tensor::zeros(&[40])),
        ];
        let updates: Vec<ModelUpdate> = (0..256)
            .map(|client| ModelUpdate {
                client_id: client,
                round: 0,
                num_samples: 1,
                parameters: vec![
                    (
                        "w".to_string(),
                        Tensor::from_vec(
                            (0..291)
                                .map(|c| {
                                    drawn_value(((client * 2_654_435_761) ^ (c * 40_503)) as u32)
                                })
                                .collect(),
                            &[97, 3],
                        )
                        .unwrap(),
                    ),
                    (
                        "z".to_string(),
                        Tensor::from_vec(vec![-0.0; 40], &[40]).unwrap(),
                    ),
                ],
            })
            .collect();
        for trim in [0, 8, 127] {
            assert_trimmed_mean_matches_the_seed(&current, &updates, trim);
        }
    }

    #[test]
    fn streaming_fold_matches_the_materialised_delta_sums() {
        // The in-place `s + w·(p − r)` against the seed's `sub` + `axpy`.
        let reference = vec![(
            "w".to_string(),
            Tensor::from_vec(vec![0.1, -2.5, 3.0e-39, 7.0], &[2, 2]).unwrap(),
        )];
        let updates = [
            (3usize, [0.3f32, -2.25, -1.0e-38, 1.0e30]),
            (7, [1.0e-7, 9.5, 0.0, -3.0]),
            (11, [-0.1, -2.5, 2.0e-39, 7.000_001]),
        ];
        for rule in [
            AggregationRule::FedAvg,
            AggregationRule::NormClipping { max_norm: 1.5 },
        ] {
            let mut fold = AggregationFold::new(&reference, 0, rule).unwrap();
            let mut sum = Tensor::zeros(&[2, 2]);
            for (samples, values) in updates {
                let update = ModelUpdate {
                    client_id: samples,
                    round: 0,
                    num_samples: samples,
                    parameters: vec![(
                        "w".to_string(),
                        Tensor::from_vec(values.to_vec(), &[2, 2]).unwrap(),
                    )],
                };
                let weight = match rule {
                    AggregationRule::FedAvg => samples as f32,
                    _ => {
                        let norm = delta_norm(&reference, &update).unwrap();
                        if norm > 1.5 {
                            1.5 / norm
                        } else {
                            1.0
                        }
                    }
                };
                let delta = update.parameters[0].1.sub(&reference[0].1).unwrap();
                sum = sum.axpy(weight, &delta).unwrap();
                fold.fold(update).unwrap();
            }
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fold.sums[0]), bits(&sum), "{rule:?}");
        }
    }

    #[test]
    fn trimmed_mean_discards_the_outlier() {
        let mut server =
            RobustAggregator::new(named(&[0.0]), AggregationRule::TrimmedMean { trim: 1 }).unwrap();
        server
            .aggregate(&[
                update(0, 10, &[1.0]),
                update(1, 10, &[1.2]),
                update(2, 10, &[0.8]),
                update(3, 10, &[100.0]),
            ])
            .unwrap();
        let value = server.parameters()[0].1.data()[0];
        assert!((value - 1.1).abs() < 1e-5, "trimmed mean {value}");
    }

    #[test]
    fn aggregation_is_invariant_under_update_order() {
        // The same update set in two arrival orders: the canonical
        // client-id fold order makes the aggregates bit-identical.
        let updates = [
            update(0, 10, &[0.125, -3.0]),
            update(1, 7, &[2.5, 0.0625]),
            update(2, 13, &[-0.75, 1.0]),
        ];
        for rule in [
            AggregationRule::FedAvg,
            AggregationRule::NormClipping { max_norm: 1.0 },
            AggregationRule::TrimmedMean { trim: 1 },
            AggregationRule::Krum { f: 0 },
            AggregationRule::MultiKrum { f: 0, m: 1 },
        ] {
            let initial = named(&[0.5, -0.25]);
            let forward = aggregate_with_rule(&initial, 0, &updates, rule).unwrap();
            let reversed: Vec<ModelUpdate> = updates.iter().rev().cloned().collect();
            let backward = aggregate_with_rule(&initial, 0, &reversed, rule).unwrap();
            let bits = |params: &[(String, Tensor)]| -> Vec<u32> {
                params
                    .iter()
                    .flat_map(|(_, t)| t.data().iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&forward), bits(&backward), "rule {rule:?} reordered");
        }
    }

    #[test]
    fn rule_validation_and_min_updates() {
        assert!(AggregationRule::NormClipping { max_norm: 0.0 }
            .validate()
            .is_err());
        assert!(AggregationRule::NormClipping { max_norm: f32::NAN }
            .validate()
            .is_err());
        assert!(AggregationRule::FedAvg.validate().is_ok());
        assert_eq!(AggregationRule::FedAvg.min_updates(), 1);
        assert_eq!(AggregationRule::TrimmedMean { trim: 2 }.min_updates(), 5);
        // Krum family: m = 0 is degenerate; the population bounds are
        // n ≥ 2f + 3 (Krum) and n ≥ max(2f + 3, m + f + 2) (multi-Krum).
        assert!(AggregationRule::MultiKrum { f: 1, m: 0 }
            .validate()
            .is_err());
        assert!(AggregationRule::Krum { f: 1 }.validate().is_ok());
        assert_eq!(AggregationRule::Krum { f: 0 }.min_updates(), 3);
        assert_eq!(AggregationRule::Krum { f: 1 }.min_updates(), 5);
        assert_eq!(AggregationRule::MultiKrum { f: 1, m: 2 }.min_updates(), 5);
        assert_eq!(AggregationRule::MultiKrum { f: 1, m: 4 }.min_updates(), 7);
        assert!(!AggregationRule::Krum { f: 1 }.streams());
        assert!(!AggregationRule::MultiKrum { f: 1, m: 2 }.streams());
    }

    #[test]
    fn krum_adopts_an_honest_update_bit_exactly() {
        // Four clustered honest clients and one boosted outlier: the winner
        // must be one of the honest updates, adopted without any averaging
        // arithmetic — its exact bit pattern becomes the global model.
        let updates = [
            update(0, 10, &[1.0, 0.9]),
            update(1, 10, &[1.1, 1.0]),
            update(2, 10, &[0.9, 1.1]),
            update(3, 10, &[1.05, 0.95]),
            update(4, 512, &[100.0, -100.0]),
        ];
        let result = aggregate_with_rule(
            &named(&[0.0, 0.0]),
            0,
            &updates,
            AggregationRule::Krum { f: 1 },
        )
        .unwrap();
        let winner_bits: Vec<u32> = result[0].1.data().iter().map(|v| v.to_bits()).collect();
        let matches_honest = updates[..4].iter().any(|u| {
            let bits: Vec<u32> = u.parameters[0]
                .1
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            bits == winner_bits
        });
        assert!(matches_honest, "krum selected {:?}", result[0].1.data());
        assert!(
            result[0].1.data()[0] < 2.0,
            "outlier won: {:?}",
            result[0].1.data()
        );
    }

    #[test]
    fn multi_krum_excludes_the_outlier_from_its_mean() {
        let updates = [
            update(0, 10, &[1.0]),
            update(1, 10, &[1.2]),
            update(2, 10, &[0.8]),
            update(3, 10, &[1.1]),
            update(4, 512, &[100.0]),
        ];
        let result = aggregate_with_rule(
            &named(&[0.0]),
            0,
            &updates,
            AggregationRule::MultiKrum { f: 1, m: 2 },
        )
        .unwrap();
        let value = result[0].1.data()[0];
        // The mean of any 2 of the clustered updates lies in [0.8, 1.2];
        // with the outlier mixed in it would exceed 30.
        assert!((0.8..=1.2).contains(&value), "multi-krum mean {value}");
    }

    #[test]
    fn krum_score_ties_break_toward_the_lowest_client_id() {
        // Two identical honest pairs: scores tie pairwise, so selection
        // must deterministically prefer the lower client id.
        let updates = [
            update(0, 10, &[1.0]),
            update(1, 10, &[1.0]),
            update(2, 10, &[1.0]),
            update(3, 10, &[1.0]),
            update(4, 10, &[5.0]),
        ];
        let result =
            aggregate_with_rule(&named(&[0.0]), 0, &updates, AggregationRule::Krum { f: 1 })
                .unwrap();
        assert_eq!(result[0].1.data()[0].to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn krum_rejects_populations_below_its_bound() {
        let updates = [
            update(0, 10, &[1.0]),
            update(1, 10, &[1.2]),
            update(2, 10, &[0.8]),
            update(3, 10, &[1.1]),
        ];
        // n = 4 < 2f + 3 = 5.
        assert!(
            aggregate_with_rule(&named(&[0.0]), 0, &updates, AggregationRule::Krum { f: 1 },)
                .is_err()
        );
        // n = 4 < m + f + 2 = 5 even though 2f + 3 = 3 fits.
        assert!(aggregate_with_rule(
            &named(&[0.0]),
            0,
            &updates,
            AggregationRule::MultiKrum { f: 0, m: 3 },
        )
        .is_err());
    }

    #[test]
    fn construction_and_aggregation_are_validated() {
        assert!(RobustAggregator::new(
            named(&[0.0]),
            AggregationRule::NormClipping { max_norm: 0.0 }
        )
        .is_err());

        let mut server =
            RobustAggregator::new(named(&[0.0]), AggregationRule::TrimmedMean { trim: 1 }).unwrap();
        // Too few updates for the trim level.
        assert!(server
            .aggregate(&[update(0, 10, &[1.0]), update(1, 10, &[2.0])])
            .is_err());
        // Empty round, stale round, schema mismatch.
        assert!(server.aggregate(&[]).is_err());
        let stale = ModelUpdate {
            round: 3,
            ..update(0, 10, &[1.0])
        };
        assert!(server.aggregate(&[stale]).is_err());
        let bad_schema = ModelUpdate {
            parameters: vec![("other".to_string(), Tensor::zeros(&[1]))],
            ..update(0, 10, &[1.0])
        };
        assert!(server.aggregate(&[bad_schema]).is_err());
        // Zero-sample updates are invalid under every rule (the protocol
        // Nacks them at delivery; the call-level path agrees).
        let mut weighted = RobustAggregator::new(named(&[0.0]), AggregationRule::FedAvg).unwrap();
        assert!(weighted.aggregate(&[update(0, 0, &[1.0])]).is_err());
        // Duplicate client ids would make the canonical fold order depend
        // on arrival order, so they are rejected.
        let mut duped = RobustAggregator::new(named(&[0.0]), AggregationRule::FedAvg).unwrap();
        assert!(duped
            .aggregate(&[update(0, 10, &[1.0]), update(0, 10, &[2.0])])
            .is_err());
    }

    #[test]
    fn non_finite_updates_are_rejected_under_every_rule() {
        // A NaN coordinate would slip past the `norm > max_norm` clip guard
        // and an ∞ delta would turn `scale · ∞` into NaN — one poisoned
        // update must not NaN the global model under ANY rule.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for rule in [
                AggregationRule::FedAvg,
                AggregationRule::NormClipping { max_norm: 1.0 },
                AggregationRule::TrimmedMean { trim: 1 },
                AggregationRule::Krum { f: 0 },
                AggregationRule::MultiKrum { f: 0, m: 1 },
            ] {
                let mut server = RobustAggregator::new(named(&[0.0]), rule).unwrap();
                let err = server.aggregate(&[
                    update(0, 10, &[1.0]),
                    update(1, 10, &[1.2]),
                    update(2, 10, &[poison]),
                ]);
                assert!(err.is_err(), "rule {rule:?} accepted {poison}");
            }
        }
    }
}
