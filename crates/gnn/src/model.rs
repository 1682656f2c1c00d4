//! A multi-layer GraphSAGE model with explicit gradients.
//!
//! The model consumes the [`MinibatchSample`]s produced by the sampling crate
//! (the per-layer sampled adjacency matrices of Algorithm 1) plus the input
//! feature rows for the innermost frontier, and produces logits for the batch
//! vertices.  Gradients are computed layer by layer; the parameter layout is
//! a flat `Vec<DenseMatrix>` so that data-parallel training can all-reduce
//! gradients with a single flattened buffer.
//!
//! Propagation copies nothing it does not need (see `layers.rs`): the
//! input features and the sampled adjacency are borrowed, and each layer's
//! output is kept once in the [`ForwardCache`] and borrowed by the next
//! layer.  Inference ([`SageModel::logits`], [`SageModel::predict`]) keeps no
//! cache.

use crate::error::GnnError;
use crate::layers::{sage_layer_backward, sage_layer_forward, SageActivations};
use crate::loss::cross_entropy;
use crate::Result;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::DenseMatrix;
use dmbs_sampling::{LayerSample, MinibatchSample};
use rand::Rng;
use std::collections::HashMap;

/// A GraphSAGE model: `num_layers` mean-aggregator SAGE layers followed by a
/// linear classifier.
///
/// Parameter layout (see [`SageModel::parameters`]): for each SAGE layer `l`,
/// `params[2l]` is `W_self` and `params[2l + 1]` is `W_neigh`; the final
/// entry is the classifier weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SageModel {
    input_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    num_layers: usize,
    params: Vec<DenseMatrix>,
    parallelism: Parallelism,
}

/// Forward-pass state for one minibatch, consumed by [`SageModel::backward`]:
/// each SAGE layer's activations, and the sample whose adjacencies the
/// backward pass multiplies by again.
#[derive(Debug, Clone)]
pub struct ForwardCache<'a> {
    sample: &'a MinibatchSample,
    layers: Vec<SageActivations>,
}

impl SageModel {
    /// Creates a model with Xavier-style uniform initialization.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if input_dim == 0 || hidden_dim == 0 || num_classes == 0 || num_layers == 0 {
            return Err(GnnError::InvalidConfig(
                "input_dim, hidden_dim, num_classes and num_layers must be positive".into(),
            ));
        }
        let mut params = Vec::with_capacity(2 * num_layers + 1);
        for l in 0..num_layers {
            let in_dim = if l == 0 { input_dim } else { hidden_dim };
            let scale = (6.0 / (in_dim + hidden_dim) as f64).sqrt();
            params.push(DenseMatrix::random_uniform(in_dim, hidden_dim, scale, rng));
            params.push(DenseMatrix::random_uniform(in_dim, hidden_dim, scale, rng));
        }
        let scale = (6.0 / (hidden_dim + num_classes) as f64).sqrt();
        params.push(DenseMatrix::random_uniform(hidden_dim, num_classes, scale, rng));
        Ok(SageModel {
            input_dim,
            hidden_dim,
            num_classes,
            num_layers,
            params,
            parallelism: Parallelism::serial(),
        })
    }

    /// Returns this model with every propagation kernel — the aggregation
    /// SpMMs and the dense products of forward and backward — running on
    /// `parallelism` worker threads.  Parallelism changes nothing about the
    /// computed values (the kernels are byte-identical to serial), only the
    /// wall time of forward/backward propagation.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The shared-memory parallelism of the propagation kernels.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The flat parameter list.
    pub fn parameters(&self) -> &[DenseMatrix] {
        &self.params
    }

    /// Mutable access to the flat parameter list (used by optimizers).
    pub fn parameters_mut(&mut self) -> &mut [DenseMatrix] {
        &mut self.params
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.iter().map(|p| p.rows() * p.cols()).sum()
    }

    /// Flattens a gradient list (same layout as the parameters) into one
    /// buffer, for the data-parallel all-reduce.
    pub fn flatten_grads(grads: &[DenseMatrix]) -> Vec<f64> {
        grads.iter().flat_map(|g| g.as_slice().iter().copied()).collect()
    }

    /// Rebuilds a gradient list from a flat buffer produced by
    /// [`SageModel::flatten_grads`] on a model with identical shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if the buffer length does not
    /// match the parameter count.
    pub fn unflatten_grads(&self, flat: &[f64]) -> Result<Vec<DenseMatrix>> {
        if flat.len() != self.num_parameters() {
            return Err(GnnError::InvalidConfig(format!(
                "flat gradient has {} entries but the model has {} parameters",
                flat.len(),
                self.num_parameters()
            )));
        }
        let mut grads = Vec::with_capacity(self.params.len());
        let mut offset = 0;
        for p in &self.params {
            let len = p.rows() * p.cols();
            grads.push(DenseMatrix::from_vec(
                p.rows(),
                p.cols(),
                flat[offset..offset + len].to_vec(),
            )?);
            offset += len;
        }
        Ok(grads)
    }

    fn w_self(&self, layer: usize) -> &DenseMatrix {
        &self.params[2 * layer]
    }

    fn w_neigh(&self, layer: usize) -> &DenseMatrix {
        &self.params[2 * layer + 1]
    }

    fn w_out(&self) -> &DenseMatrix {
        &self.params[2 * self.num_layers]
    }

    /// Runs the forward pass on one sampled minibatch.
    ///
    /// `input_features` must hold one row per vertex of
    /// [`MinibatchSample::input_vertices`] (the columns of the innermost
    /// layer), in the same order — this is exactly what the feature-fetching
    /// step delivers.  The returned cache borrows `sample` for the backward
    /// pass; use [`SageModel::logits`] when no backward pass follows.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if the sample has a different
    /// number of layers than the model, if feature rows are missing, or if a
    /// layer's row vertices are not contained in its column vertices (use a
    /// sampler with self-loops enabled).
    pub fn forward<'a>(
        &self,
        sample: &'a MinibatchSample,
        input_features: &DenseMatrix,
    ) -> Result<(DenseMatrix, ForwardCache<'a>)> {
        let (logits, layers) = self.propagate(sample, input_features, true)?;
        Ok((logits, ForwardCache { sample, layers }))
    }

    /// The forward pass without a cache: the logits of the batch vertices,
    /// with each layer's activations freed as soon as the next layer has
    /// consumed them.  Bit-identical to the logits of
    /// [`SageModel::forward`].
    ///
    /// # Errors
    ///
    /// As [`SageModel::forward`].
    pub fn logits(
        &self,
        sample: &MinibatchSample,
        input_features: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        Ok(self.propagate(sample, input_features, false)?.0)
    }

    /// The SAGE layers, then the classifier.  With `keep`, every layer's
    /// activations are returned for the backward pass; without, each is
    /// dropped once the next layer has read its output.
    fn propagate(
        &self,
        sample: &MinibatchSample,
        input_features: &DenseMatrix,
        keep: bool,
    ) -> Result<(DenseMatrix, Vec<SageActivations>)> {
        self.check_inputs(sample, input_features)?;
        let mut layers: Vec<SageActivations> = Vec::with_capacity(self.num_layers);
        for (l, layer) in sample.layers.iter().enumerate() {
            let positions = self_positions(l, layer)?;
            let h = layers.last().map_or(input_features, |prev| &prev.output);
            let act = sage_layer_forward(
                &layer.adjacency,
                positions,
                h,
                self.w_self(l),
                self.w_neigh(l),
                self.parallelism,
            )?;
            if !keep {
                layers.clear();
            }
            layers.push(act);
        }
        let hidden = &layers.last().expect("a model has at least one layer").output;
        let logits = hidden.matmul_parallel(self.w_out(), self.parallelism)?;
        Ok((logits, layers))
    }

    fn check_inputs(&self, sample: &MinibatchSample, input_features: &DenseMatrix) -> Result<()> {
        if sample.num_layers() != self.num_layers {
            return Err(GnnError::InvalidConfig(format!(
                "sample has {} layers but the model has {}",
                sample.num_layers(),
                self.num_layers
            )));
        }
        if input_features.rows() != sample.input_vertices().len() {
            return Err(GnnError::InvalidConfig(format!(
                "{} input feature rows supplied but the innermost frontier has {} vertices",
                input_features.rows(),
                sample.input_vertices().len()
            )));
        }
        if input_features.cols() != self.input_dim {
            return Err(GnnError::InvalidConfig(format!(
                "input features have dimension {} but the model expects {}",
                input_features.cols(),
                self.input_dim
            )));
        }
        Ok(())
    }

    /// Runs the backward pass, returning gradients in the same layout as
    /// [`SageModel::parameters`].
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::Matrix`] on dimension mismatches.
    pub fn backward(
        &self,
        cache: &ForwardCache<'_>,
        d_logits: &DenseMatrix,
    ) -> Result<Vec<DenseMatrix>> {
        let n = self.num_layers;
        let par = self.parallelism;
        let mut grads = vec![DenseMatrix::default(); 2 * n + 1];
        let hidden = &cache.layers[n - 1].output;
        grads[2 * n] = hidden.transpose_matmul_parallel(d_logits, par)?;
        let mut d_h = d_logits.matmul_transpose_parallel(self.w_out(), par)?;
        for l in (0..n).rev() {
            let layer = sage_layer_backward(
                &cache.sample.layers[l].adjacency,
                &cache.layers[l],
                self.w_self(l),
                self.w_neigh(l),
                d_h,
                l > 0,
                par,
            )?;
            grads[2 * l] = layer.d_w_self;
            grads[2 * l + 1] = layer.d_w_neigh;
            match layer.d_input {
                Some(d_input) => d_h = d_input,
                None => break,
            }
        }
        Ok(grads)
    }

    /// Convenience: forward pass, cross-entropy loss against the batch
    /// labels, backward pass.  Returns `(loss, logits, gradients)`.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward and loss errors.
    pub fn loss_and_gradients(
        &self,
        sample: &MinibatchSample,
        input_features: &DenseMatrix,
        batch_labels: &[usize],
    ) -> Result<(f64, DenseMatrix, Vec<DenseMatrix>)> {
        let (logits, cache) = self.forward(sample, input_features)?;
        let (loss, d_logits) = cross_entropy(&logits, batch_labels)?;
        let grads = self.backward(&cache, &d_logits)?;
        Ok((loss, logits, grads))
    }

    /// Predicted class per batch vertex.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(
        &self,
        sample: &MinibatchSample,
        input_features: &DenseMatrix,
    ) -> Result<Vec<usize>> {
        Ok(self.logits(sample, input_features)?.row_argmax())
    }
}

/// Index of each row vertex of layer `l` inside the layer's column list (the
/// self rows of the layer input).
fn self_positions(l: usize, layer: &LayerSample) -> Result<Vec<usize>> {
    let col_pos: HashMap<usize, usize> =
        layer.cols.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    // Sized up front: collecting through `Result` would regrow the vector
    // `log2(rows)` times.
    let mut positions = Vec::with_capacity(layer.rows.len());
    for v in &layer.rows {
        let pos = col_pos.get(v).copied().ok_or_else(|| {
            GnnError::InvalidConfig(format!(
                "row vertex {v} of layer {l} is not among its columns; \
                 sample with self-loops enabled"
            ))
        })?;
        positions.push(pos);
    }
    Ok(positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_graph::generators::figure1_example;
    use dmbs_matrix::DenseMatrix;
    use dmbs_sampling::{GraphSageSampler, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_and_features(
        fanouts: Vec<usize>,
        seed: u64,
    ) -> (MinibatchSample, DenseMatrix, Vec<usize>) {
        let graph = figure1_example();
        let sampler = GraphSageSampler::new(fanouts).with_self_loops();
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = sampler.sample_minibatch(graph.adjacency(), &[1, 5], &mut rng).unwrap();
        // Simple 4-dimensional features: one-hot-ish on vertex id parity.
        let feats = DenseMatrix::from_rows(
            &sample
                .input_vertices()
                .iter()
                .map(|&v| vec![v as f64, (v % 2) as f64, 1.0, -(v as f64) / 10.0])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        (sample, feats, vec![0, 1])
    }

    #[test]
    fn model_construction_and_parameter_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SageModel::new(4, 8, 3, 2, &mut rng).unwrap();
        assert_eq!(m.num_layers(), 2);
        assert_eq!(m.parameters().len(), 5);
        // (4*8 + 4*8) + (8*8 + 8*8) + 8*3 = 64 + 128 + 24.
        assert_eq!(m.num_parameters(), 216);
        assert!(SageModel::new(0, 8, 3, 2, &mut rng).is_err());
        assert!(SageModel::new(4, 0, 3, 2, &mut rng).is_err());
        assert!(SageModel::new(4, 8, 0, 2, &mut rng).is_err());
        assert!(SageModel::new(4, 8, 3, 0, &mut rng).is_err());
    }

    #[test]
    fn forward_produces_logits_for_batch() {
        let (sample, feats, _) = sample_and_features(vec![2, 2], 3);
        let mut rng = StdRng::seed_from_u64(2);
        let model = SageModel::new(4, 8, 3, 2, &mut rng).unwrap();
        let (logits, _) = model.forward(&sample, &feats).unwrap();
        assert_eq!(logits.shape(), (2, 3));
    }

    #[test]
    fn forward_validates_inputs() {
        let (sample, feats, _) = sample_and_features(vec![2], 4);
        let mut rng = StdRng::seed_from_u64(3);
        // Wrong layer count.
        let model = SageModel::new(4, 8, 3, 2, &mut rng).unwrap();
        assert!(model.forward(&sample, &feats).is_err());
        // Wrong feature rows.
        let model1 = SageModel::new(4, 8, 3, 1, &mut rng).unwrap();
        assert!(model1.forward(&sample, &DenseMatrix::zeros(1, 4)).is_err());
        // Wrong feature dim.
        assert!(model1
            .forward(&sample, &DenseMatrix::zeros(sample.input_vertices().len(), 7))
            .is_err());
    }

    #[test]
    fn forward_requires_self_loops() {
        let graph = figure1_example();
        let sampler = GraphSageSampler::new(vec![1]); // no self loops
        let mut rng = StdRng::seed_from_u64(5);
        // Vertex 0's only neighbor is 1, so its row vertex will not be among
        // the sampled columns and the model must reject the sample.
        let sample = sampler.sample_minibatch(graph.adjacency(), &[0], &mut rng).unwrap();
        let model = SageModel::new(2, 4, 2, 1, &mut rng).unwrap();
        let feats = DenseMatrix::zeros(sample.input_vertices().len(), 2);
        let result = model.forward(&sample, &feats);
        if !sample.layers[0].cols.contains(&0) {
            assert!(result.is_err());
        }
    }

    #[test]
    fn model_gradients_match_finite_differences() {
        let (sample, feats, labels) = sample_and_features(vec![2, 2], 7);
        let mut rng = StdRng::seed_from_u64(11);
        let model = SageModel::new(4, 5, 2, 2, &mut rng).unwrap();
        let (_, _, grads) = model.loss_and_gradients(&sample, &feats, &labels).unwrap();

        let eps = 1e-5;
        // Check a handful of entries in every parameter matrix.
        for (pi, grad) in grads.iter().enumerate() {
            for &(r, c) in &[(0usize, 0usize), (grad.rows() - 1, grad.cols() - 1)] {
                let mut plus = model.clone();
                let v = plus.parameters()[pi].get(r, c);
                plus.parameters_mut()[pi].set(r, c, v + eps);
                let (lp, _, _) = plus.loss_and_gradients(&sample, &feats, &labels).unwrap();
                let mut minus = model.clone();
                minus.parameters_mut()[pi].set(r, c, v - eps);
                let (lm, _, _) = minus.loss_and_gradients(&sample, &feats, &labels).unwrap();
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad.get(r, c)).abs() < 1e-4,
                    "param {pi} entry ({r},{c}): numeric {numeric} vs analytic {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        use crate::optim::{Optimizer, Sgd};
        let (sample, feats, labels) = sample_and_features(vec![2, 2], 13);
        let mut rng = StdRng::seed_from_u64(17);
        let mut model = SageModel::new(4, 8, 2, 2, &mut rng).unwrap();
        let mut opt = Sgd::new(0.1);
        let (initial_loss, _, _) = model.loss_and_gradients(&sample, &feats, &labels).unwrap();
        let mut last = initial_loss;
        for _ in 0..50 {
            let (loss, _, grads) = model.loss_and_gradients(&sample, &feats, &labels).unwrap();
            opt.step(model.parameters_mut(), &grads).unwrap();
            last = loss;
        }
        assert!(last < initial_loss * 0.5, "loss did not decrease: {initial_loss} -> {last}");
        // The model should now classify its own training batch correctly.
        let preds = model.predict(&sample, &feats).unwrap();
        assert_eq!(preds, labels);
    }

    /// The textbook forward/backward the copy-free path replaced: a
    /// normalised copy of each adjacency, cloned operands, separate ReLU and
    /// mask passes, the input gradient of every layer, and the scatter
    /// through `get`/`set`.
    fn oracle_loss_and_gradients(
        model: &SageModel,
        sample: &MinibatchSample,
        feats: &DenseMatrix,
        labels: &[usize],
    ) -> (f64, DenseMatrix, Vec<DenseMatrix>) {
        use crate::layers::{linear_backward, linear_forward, sage_backward, sage_forward};
        let n = model.num_layers();
        let mut h = feats.clone();
        let mut caches = Vec::new();
        let mut positions = Vec::new();
        for (l, layer) in sample.layers.iter().enumerate() {
            let pos = self_positions(l, layer).unwrap();
            let h_self = h.gather_rows(&pos).unwrap();
            let (out, cache) = sage_forward(
                &layer.adjacency,
                &h,
                &h_self,
                model.w_self(l),
                model.w_neigh(l),
                true,
                model.parallelism(),
            )
            .unwrap();
            caches.push(cache);
            positions.push(pos);
            h = out;
        }
        let (logits, linear) = linear_forward(&h, model.w_out()).unwrap();
        let (loss, d_logits) = cross_entropy(&logits, labels).unwrap();
        let mut grads = vec![DenseMatrix::default(); 2 * n + 1];
        let (d_w_out, mut d_h) = linear_backward(&linear, model.w_out(), &d_logits).unwrap();
        grads[2 * n] = d_w_out;
        for l in (0..n).rev() {
            let g = sage_backward(
                &caches[l],
                model.w_self(l),
                model.w_neigh(l),
                &d_h,
                model.parallelism(),
            )
            .unwrap();
            grads[2 * l] = g.d_w_self;
            grads[2 * l + 1] = g.d_w_neigh;
            let mut d_prev = g.d_h_neigh;
            for (row, &pos) in positions[l].iter().enumerate() {
                for c in 0..d_prev.cols() {
                    let v = d_prev.get(pos, c) + g.d_h_self.get(row, c);
                    d_prev.set(pos, c, v);
                }
            }
            d_h = d_prev;
        }
        (loss, logits, grads)
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Features with a quarter `+0.0`, a quarter `-0.0` entries.
    fn signed_sparse_features(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
        use rand::Rng;
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..=1.0),
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    /// Loss, logits and every gradient of the copy-free path are bit-equal
    /// to the textbook oracle on a GraphSAGE and a LADIES sample, at one and
    /// several threads; the cache-free logits are bit-equal to the forward
    /// pass's.
    #[test]
    fn propagation_is_bit_identical_to_the_oracle() {
        use dmbs_graph::generators::{rmat, RmatConfig};
        use dmbs_sampling::LadiesSampler;
        let graph = rmat(&RmatConfig::new(8, 6), &mut StdRng::seed_from_u64(21)).unwrap();
        let batch: Vec<usize> = (0..graph.num_vertices()).step_by(9).collect();
        let samplers: [(&str, Box<dyn Sampler>); 2] = [
            ("graphsage", Box::new(GraphSageSampler::new(vec![6, 4]).with_self_loops())),
            ("ladies", Box::new(LadiesSampler::new(2, 40).with_previous_included())),
        ];
        for (name, sampler) in samplers {
            let mut rng = StdRng::seed_from_u64(22);
            let sample = sampler.sample_minibatch(graph.adjacency(), &batch, &mut rng).unwrap();
            let feats = signed_sparse_features(sample.input_vertices().len(), 9, &mut rng);
            let labels: Vec<usize> = batch.iter().map(|v| v % 3).collect();
            // Hidden width 12: one 8-column tile and four 1-column tiles.
            let model = SageModel::new(9, 12, 3, 2, &mut rng).unwrap();
            let (want_loss, want_logits, want_grads) =
                oracle_loss_and_gradients(&model, &sample, &feats, &labels);
            for threads in [1usize, 2, 3] {
                let model = model.clone().with_parallelism(Parallelism::new(threads));
                let (loss, logits, grads) =
                    model.loss_and_gradients(&sample, &feats, &labels).unwrap();
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{name} loss, {threads} threads");
                assert_eq!(bits(&logits), bits(&want_logits), "{name} logits, {threads} threads");
                assert_eq!(grads.len(), want_grads.len());
                for (i, (got, want)) in grads.iter().zip(&want_grads).enumerate() {
                    assert_eq!(bits(got), bits(want), "{name} gradient {i}, {threads} threads");
                }
                let inferred = model.logits(&sample, &feats).unwrap();
                assert_eq!(bits(&inferred), bits(&want_logits), "{name} inference logits");
            }
        }
    }

    #[test]
    fn grad_flatten_roundtrip() {
        let mut rng = StdRng::seed_from_u64(19);
        let model = SageModel::new(3, 4, 2, 1, &mut rng).unwrap();
        let grads: Vec<DenseMatrix> = model
            .parameters()
            .iter()
            .map(|p| DenseMatrix::filled(p.rows(), p.cols(), 0.5))
            .collect();
        let flat = SageModel::flatten_grads(&grads);
        assert_eq!(flat.len(), model.num_parameters());
        let back = model.unflatten_grads(&flat).unwrap();
        assert_eq!(back, grads);
        assert!(model.unflatten_grads(&flat[1..]).is_err());
    }
}
