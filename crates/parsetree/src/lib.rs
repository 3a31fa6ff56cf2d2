//! Parse-tree data model for the Subtree Index.
//!
//! This crate is the bottom substrate of the workspace: it defines
//! syntactically annotated trees (Definition 1 of the paper), label
//! interning, the `(pre, post, level)` interval numbering used by all
//! coding schemes, a Penn-Treebank bracketed-format reader/writer, and the
//! on-disk data file's succinct tree codec with its bit and varint coders.
//!
//! Nodes of a [`ParseTree`] are stored in pre-order, so a [`NodeId`] *is*
//! the node's pre number. The `post` rank and `level` are materialized at
//! construction time.
//!
//! # Example
//!
//! ```
//! use si_parsetree::{LabelInterner, ptb};
//!
//! let mut interner = LabelInterner::new();
//! let tree = ptb::parse("(S (NP (NNS agouti)) (VP (VBZ is) (NP (DT a) (NN))))", &mut interner)
//!     .unwrap();
//! assert_eq!(tree.len(), 11);
//! assert_eq!(interner.resolve(tree.label(tree.root())), "S");
//! ```

pub mod bits;
pub mod codec;
pub mod label;
pub mod ptb;
pub mod tree;
pub mod varint;

pub use label::{Label, LabelInterner};
pub use tree::{NodeId, ParseTree, TreeBuilder};

/// Identifier of a tree within a corpus (the paper's `tid`).
pub type TreeId = u32;
