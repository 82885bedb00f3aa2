//! Dense `f32` tensors with reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the TURL reproduction. It is
//! deliberately small and CPU-only: row-major dense tensors, NumPy-style
//! broadcasting for elementwise arithmetic, blocked matrix multiplication,
//! and a tape-based autograd [`Graph`] exposing exactly the operations the
//! structure-aware Transformer encoder needs (masked softmax attention,
//! layer norm, embedding gather, fused losses).
//!
//! # Example
//!
//! ```
//! use turl_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let w = g.leaf(Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]), true);
//! let x = g.constant(Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]));
//! let y = g.matmul(w, x);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
//! ```

#![deny(missing_docs)]

mod check;
pub mod dtype;
mod graph;
mod init;
pub mod ops;
pub mod pool;
mod shape;
mod tensor;

pub use check::{finite_difference_grad, gradcheck, GradCheckReport};
pub use dtype::{quant_rows_cols, DType, QuantBlocks, Storage, QBLOCK, QBLOCK_SHIFT};
pub use graph::{AttentionTable, GradForm, GradPart, Graph, Var};
pub use init::{kaiming_bound, kaiming_uniform, normal_init, normal_init_bound, uniform_init};
pub use shape::{broadcast_shape, num_elements, strides_for, ShapeError};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ShapeError>;
