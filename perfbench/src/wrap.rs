//! Delegating wrappers that time calls into a layer from outside it: a
//! model that records its forward passes inside a real `Federation::run`
//! or attack, a gradient oracle that records probes and logits, and an
//! attack that keeps the adversarial examples it crafted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pelta_attacks::EvasionAttack;
use pelta_autodiff::{Graph, NodeId};
use pelta_core::{AttackLoss, BackwardProbe, GradientOracle};
use pelta_models::{Architecture, ImageModel, ParameterSegment};
use pelta_nn::{Module, Param};
use pelta_tensor::Tensor;
use rand_chacha::ChaCha8Rng;

use crate::trace::Tracer;

/// The span under which wrapped calls are recorded; the harness points it
/// at whatever it is running (a federation run, a crafting call).
#[derive(Clone, Default)]
pub struct Parent(Arc<AtomicU64>);

impl Parent {
    pub fn set(&self, id: u64) {
        self.0.store(id, Ordering::Relaxed);
    }

    fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }
}

/// An [`ImageModel`] that forwards everything to `inner` and records a
/// `models.forward` span per forward pass.
pub struct TracedModel {
    inner: Box<dyn ImageModel>,
    tracer: Arc<Tracer>,
    parent: Parent,
}

impl TracedModel {
    pub fn new(inner: Box<dyn ImageModel>, tracer: Arc<Tracer>, parent: Parent) -> TracedModel {
        TracedModel {
            inner,
            tracer,
            parent,
        }
    }
}

impl Module for TracedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&self, graph: &mut Graph, input: NodeId) -> pelta_nn::Result<NodeId> {
        self.tracer.span("models.forward", self.parent.get(), |_| {
            self.inner.forward(graph, input)
        })
    }

    fn parameters(&self) -> Vec<&Param> {
        self.inner.parameters()
    }

    fn parameters_mut(&mut self) -> Vec<&mut Param> {
        self.inner.parameters_mut()
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }
}

impl ImageModel for TracedModel {
    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.inner.input_shape()
    }

    fn frontier_tag(&self) -> String {
        self.inner.frontier_tag()
    }

    fn attention_probs_prefix(&self) -> Option<String> {
        self.inner.attention_probs_prefix()
    }

    fn shielded_parameter_prefixes(&self) -> Vec<String> {
        self.inner.shielded_parameter_prefixes()
    }

    fn parameter_segment(&self, name: &str) -> ParameterSegment {
        self.inner.parameter_segment(name)
    }
}

/// A [`GradientOracle`] that forwards to `inner` and records `probe_span`
/// and `logits_span` spans.
pub struct TimedOracle<'a> {
    inner: &'a dyn GradientOracle,
    tracer: &'a Tracer,
    parent: Parent,
    probe_span: &'static str,
    logits_span: &'static str,
}

impl<'a> TimedOracle<'a> {
    pub fn new(
        inner: &'a dyn GradientOracle,
        tracer: &'a Tracer,
        parent: Parent,
        probe_span: &'static str,
        logits_span: &'static str,
    ) -> TimedOracle<'a> {
        TimedOracle {
            inner,
            tracer,
            parent,
            probe_span,
            logits_span,
        }
    }
}

impl GradientOracle for TimedOracle<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn input_shape(&self) -> [usize; 3] {
        self.inner.input_shape()
    }

    fn is_shielded(&self) -> bool {
        self.inner.is_shielded()
    }

    fn logits(&self, images: &Tensor) -> pelta_core::Result<Tensor> {
        self.tracer.span(self.logits_span, self.parent.get(), |_| {
            self.inner.logits(images)
        })
    }

    fn probe(
        &self,
        images: &Tensor,
        labels: &[usize],
        loss: AttackLoss,
    ) -> pelta_core::Result<BackwardProbe> {
        self.tracer.span(self.probe_span, self.parent.get(), |_| {
            self.inner.probe(images, labels, loss)
        })
    }
}

/// An [`EvasionAttack`] that forwards to `inner` and keeps the last batch
/// of adversarial examples it returned, so the harness can check them
/// after `robust_accuracy` has consumed them.
pub struct CapturingAttack<A> {
    inner: A,
    last: Mutex<Option<Tensor>>,
}

impl<A: EvasionAttack> CapturingAttack<A> {
    pub fn new(inner: A) -> CapturingAttack<A> {
        CapturingAttack {
            inner,
            last: Mutex::new(None),
        }
    }

    pub fn take(&self) -> Option<Tensor> {
        self.last
            .lock()
            .expect("the capture lock is never held across a panic")
            .take()
    }
}

impl<A: EvasionAttack> EvasionAttack for CapturingAttack<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(
        &self,
        oracle: &dyn GradientOracle,
        images: &Tensor,
        labels: &[usize],
        rng: &mut ChaCha8Rng,
    ) -> pelta_attacks::Result<Tensor> {
        let adversarial = self.inner.run(oracle, images, labels, rng)?;
        *self
            .last
            .lock()
            .expect("the capture lock is never held across a panic") = Some(adversarial.clone());
        Ok(adversarial)
    }
}
