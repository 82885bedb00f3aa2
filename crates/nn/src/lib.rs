//! Neural-network building blocks on top of [`turl_tensor`].
//!
//! The crate provides the layer vocabulary needed by the TURL reproduction:
//! a central [`ParamStore`] owning all trainable tensors, composable layers
//! ([`Linear`], [`Embedding`], [`Dropout`]), the encoder's
//! [`TransformerConfig`], and an [`Adam`] optimizer with linear
//! learning-rate decay. The Transformer itself has no forward here: it
//! is the IR `turl-audit` lowers and `turl-core` runs.
//!
//! # Forward-pass protocol
//!
//! Each training step builds a fresh autograd [`Forward`] context over the
//! shared [`ParamStore`]; layers bind their parameters into the graph on
//! first use, the loss is backpropagated, and `Forward::backprop`
//! moves gradients back into the store for the optimizer.
//!
//! ```
//! use turl_nn::{Forward, Linear, ParamStore, Adam, AdamConfig};
//! use turl_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let lin = Linear::new(&mut store, &mut rng, "lin", 4, 2, true);
//! let mut opt = Adam::new(AdamConfig::default());
//! for _ in 0..10 {
//!     let mut f = Forward::new(&store);
//!     let x = f.graph.constant(Tensor::ones(vec![3, 4]));
//!     let y = lin.forward(&mut f, &store, x);
//!     let loss = f.graph.mean_all(y);
//!     f.backprop(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! ```

#![deny(missing_docs)]

mod artifact;
mod codec;
mod layers;
mod optim;
mod params;
mod schedule;
mod serialize;
mod transformer;

pub use artifact::{
    export_artifact, load_artifact, ArtifactSummary, ExportOptions, ARTIFACT_ALIGN, ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
};
pub use layers::{Dropout, Embedding, Linear};
pub use optim::{clip_grad_norm, Adam, AdamConfig, ClipReport};
pub use params::{Forward, ParamId, ParamStore, Reduced};
pub use schedule::LinearDecaySchedule;
pub use serialize::{
    checkpoint_file_name, list_checkpoints, load_trainer_checkpoint, prune_checkpoints,
    recover_latest, remove_stale_temps, restore_params, save_trainer_checkpoint, snapshot_params,
    CheckpointRecovery, ParamRecord, ProgressState, RngStateRepr, SerializeError,
    TrainerCheckpoint, CHECKPOINT_VERSION,
};
pub use transformer::TransformerConfig;
