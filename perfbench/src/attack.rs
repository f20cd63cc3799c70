//! The `attack_shielded_pgd` workload: a compromised client crafts PGD
//! adversarial examples with `robust_accuracy` against
//! `ShieldedWhiteBox::with_default_enclave` over a trained defender's
//! correctly classified test samples — the paper's own evaluation loop. It
//! runs the tensor and autodiff layers in eval mode, with gradients taken
//! with respect to the input and many passes over one small batch; it
//! exercises the `core` shield and `tee` masking and no `fl` at all.

use std::sync::Arc;
use std::time::Instant;

use pelta_attacks::{robust_accuracy, select_correctly_classified, Pgd};
use pelta_core::{GradientOracle, ShieldedWhiteBox};
use pelta_data::{Dataset, DatasetSpec, GeneratorConfig};
use pelta_models::{train_classifier, ImageModel, TrainingConfig};
use pelta_tee::CostLedger;
use pelta_tensor::{SeedStream, Tensor};

use crate::fl::vit;
use crate::trace::Tracer;
use crate::wrap::{CapturingAttack, Parent, TimedOracle, TracedModel};

/// L∞ budget. The quickstart's 0.062 leaves even the clear defender
/// unbroken at this training budget, which would measure nothing; at 0.25
/// the clear twin flips samples while the shield holds.
pub const EPSILON: f32 = 0.25;
pub const STEP: f32 = EPSILON / 4.0;
pub const STEPS: usize = 8;
/// Correctly classified samples attacked per crafting call.
pub const SAMPLES: usize = 6;
/// Fewest samples a defender must classify correctly before it stops
/// training extra epochs.
const MIN_SAMPLES: usize = 3;
/// Most extra epochs a defender trains to reach `MIN_SAMPLES`.
const EXTRA_EPOCHS: usize = 2;

pub fn generator() -> GeneratorConfig {
    GeneratorConfig {
        train_samples: 32,
        test_samples: 128,
        ..GeneratorConfig::default()
    }
}

/// Defender training. At the quickstart's learning rate of 0.02 this small
/// budget collapses the ViT onto one class on about half the seeds: its
/// logits then barely depend on the input and not even the clear twin can
/// flip a sample. At 0.002 the defender stays input-sensitive on every seed
/// tried.
pub fn training() -> TrainingConfig {
    TrainingConfig {
        epochs: 2,
        batch_size: 16,
        learning_rate: 0.002,
        momentum: 0.9,
    }
}

/// A trained defender and the samples it classifies correctly.
pub struct Defender {
    pub model: Arc<dyn ImageModel>,
    pub samples: Tensor,
    pub labels: Vec<usize>,
}

/// Set-up: dataset generation, defender training and sample selection.
/// With `tracing`, the defender records its forward passes.
pub fn setup(seed: u64, tracing: Option<(&Arc<Tracer>, &Parent)>) -> Result<Defender, String> {
    let dataset = Dataset::generate(DatasetSpec::Cifar10Like, &generator(), seed);
    let mut seeds = SeedStream::new(seed);
    let mut model = vit(&mut seeds.derive("model"));
    if let Some((tracer, parent)) = tracing {
        model = Box::new(TracedModel::new(model, tracer.clone(), parent.clone()));
    }
    let train = |model: &mut dyn ImageModel, config: &TrainingConfig| {
        train_classifier(
            model,
            dataset.train_images(),
            dataset.train_labels(),
            config,
        )
        .map_err(|e| format!("defender training failed: {e}"))
    };
    train(model.as_mut(), &training())?;
    let test = dataset.test_subset(generator().test_samples);
    // A defender that classifies fewer than MIN_SAMPLES test samples
    // correctly trains one more epoch, up to EXTRA_EPOCHS times (on some
    // seeds two epochs leave it right on none at all).
    let mut extra = 0;
    let (samples, labels) = loop {
        let selected =
            select_correctly_classified(model.as_ref(), &test.images, &test.labels, SAMPLES);
        match selected {
            Ok((_, ref labels)) if labels.len() < MIN_SAMPLES && extra < EXTRA_EPOCHS => {}
            Err(_) if extra < EXTRA_EPOCHS => {}
            other => break other.map_err(|e| format!("sample selection failed: {e}"))?,
        }
        extra += 1;
        train(
            model.as_mut(),
            &TrainingConfig {
                epochs: 1,
                ..training()
            },
        )?;
    };
    Ok(Defender {
        model: Arc::from(model),
        samples,
        labels,
    })
}

/// One crafting call's outputs.
#[derive(Clone)]
pub struct Craft {
    pub wall_s: f64,
    pub robust_accuracy: f32,
    pub adversarial: Tensor,
    pub ledger: CostLedger,
    pub raw_unseals: u64,
}

/// Crafts one batch of adversarial examples against `oracle` (a fresh
/// shielded oracle unless the caller passes one) through `robust_accuracy`.
pub fn craft(
    defender: &Defender,
    seed: u64,
    oracle: &dyn GradientOracle,
) -> Result<(f64, f32, Tensor), String> {
    let attack = CapturingAttack::new(
        Pgd::new(EPSILON, STEP, STEPS).map_err(|e| format!("invalid PGD budget: {e}"))?,
    );
    let mut rng = SeedStream::new(seed).derive("attack");
    let start = Instant::now();
    let outcome = robust_accuracy(
        oracle,
        &attack,
        &defender.samples,
        &defender.labels,
        &mut rng,
    )
    .map_err(|e| format!("crafting failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let adversarial = attack
        .take()
        .ok_or_else(|| "the attack returned no adversarial examples".to_string())?;
    Ok((wall_s, outcome.robust_accuracy, adversarial))
}

/// Crafts against a fresh `ShieldedWhiteBox::with_default_enclave`; with
/// `tracing`, probes and logits are recorded as `core.probe` /
/// `core.logits` spans under the parent.
pub fn craft_shielded(
    defender: &Defender,
    seed: u64,
    tracing: Option<(&Tracer, &Parent)>,
) -> Result<Craft, String> {
    let shielded = ShieldedWhiteBox::with_default_enclave(Arc::clone(&defender.model))
        .map_err(|e| format!("shield failed: {e}"))?;
    let (wall_s, robust_accuracy, adversarial) = match tracing {
        None => craft(defender, seed, &shielded)?,
        Some((tracer, parent)) => {
            let timed = TimedOracle::new(
                &shielded,
                tracer,
                parent.clone(),
                "core.probe",
                "core.logits",
            );
            craft(defender, seed, &timed)?
        }
    };
    Ok(Craft {
        wall_s,
        robust_accuracy,
        adversarial,
        ledger: shielded.cost_ledger(),
        raw_unseals: shielded.enclave().raw_unseal_count(),
    })
}

/// Two set-ups from one seed must select the same samples bit for bit.
pub fn check_setup(first: &Defender, again: &Defender) -> Vec<String> {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if first.labels != again.labels || bits(&first.samples) != bits(&again.samples) {
        vec!["replayed set-up selected different samples".to_string()]
    } else {
        Vec::new()
    }
}

/// Checks a crafting call: every example within ε of its source in L∞ and
/// inside [0, 1], and the same bits as the first call of the run (same
/// seed). Returns the failed checks.
pub fn check(defender: &Defender, this: &Craft, first: &Craft) -> Vec<String> {
    let mut problems = Vec::new();
    let adv = this.adversarial.data();
    let src = defender.samples.data();
    if adv.len() != src.len() {
        problems.push("adversarial batch has the wrong size".to_string());
    }
    // One ulp of slack: the projection computes `x ± ε` in f32.
    let slack = EPSILON * (1.0 + f32::EPSILON) + f32::EPSILON;
    let outside = adv
        .iter()
        .zip(src)
        .filter(|(a, s)| !((0.0..=1.0).contains(*a) && (*a - *s).abs() <= slack))
        .count();
    if outside > 0 {
        problems.push(format!("{outside} pixels outside the ε-ball or [0, 1]"));
    }
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(&this.adversarial) != bits(&first.adversarial) {
        problems.push("replay crafted different adversarial examples".to_string());
    }
    if !this.robust_accuracy.is_finite() {
        problems.push("non-finite robust accuracy".to_string());
    }
    problems
}
