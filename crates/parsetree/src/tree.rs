//! Arena-based syntactically annotated trees with interval numbering.
//!
//! A [`ParseTree`] stores its nodes in pre-order, so the [`NodeId`] of a
//! node equals its `pre` rank. The `post` rank and `level` (root = 0) are
//! materialized at construction; together they provide the classic interval
//! containment test (`u` is an ancestor of `v` iff `pre(u) < pre(v)` and
//! `post(v) < post(u)`) that every coding scheme of the paper relies on.

use crate::label::Label;

const NONE: u32 = u32::MAX;

/// Identifier of a node inside one [`ParseTree`]; equals the node's
/// pre-order rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's pre-order rank (the paper's `pre` number).
    #[inline]
    pub fn pre(self) -> u32 {
        self.0
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immutable syntactically annotated tree (Definition 1).
///
/// Construction goes through [`TreeBuilder`] (push-style) or
/// [`crate::ptb::parse`] (bracketed text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTree {
    pub(crate) labels: Vec<Label>,
    parent: Vec<u32>,
    /// Size (node count) of the subtree rooted at each node.
    size: Vec<u32>,
    post: Vec<u32>,
    pub(crate) level: Vec<u16>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
}

impl ParseTree {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// A tree always has at least a root; this is false by construction but
    /// kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The root node (`r(T)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The node's label.
    #[inline]
    pub fn label(&self, n: NodeId) -> Label {
        self.labels[n.index()]
    }

    /// The node's parent, or `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent[n.index()];
        (p != NONE).then_some(NodeId(p))
    }

    /// Pre-order rank (identical to the id).
    #[inline]
    pub fn pre(&self, n: NodeId) -> u32 {
        n.0
    }

    /// Post-order rank.
    #[inline]
    pub fn post(&self, n: NodeId) -> u32 {
        self.post[n.index()]
    }

    /// Depth of the node; the root has level 0.
    #[inline]
    pub fn level(&self, n: NodeId) -> u16 {
        self.level[n.index()]
    }

    /// Number of nodes in the subtree rooted at `n` (including `n`).
    #[inline]
    pub fn subtree_size(&self, n: NodeId) -> u32 {
        self.size[n.index()]
    }

    /// Whether `n` has no children.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.first_child[n.index()] == NONE
    }

    /// Number of children (the node's branching factor).
    pub fn branching(&self, n: NodeId) -> usize {
        self.children(n).count()
    }

    /// Iterates the children of `n` in document order.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children {
            tree: self,
            next: self.first_child[n.index()],
        }
    }

    /// Iterates all nodes in pre-order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterates the subtree rooted at `n` (including `n`) in pre-order.
    ///
    /// Because nodes are stored in pre-order, a subtree is the contiguous id
    /// range `[n, n + size(n))`.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let start = n.0;
        let end = n.0 + self.size[n.index()];
        (start..end).map(NodeId)
    }

    /// Interval containment: is `anc` a proper ancestor of `desc`?
    #[inline]
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.pre(anc) < self.pre(desc) && self.post(desc) < self.post(anc)
    }

    /// Checks internal consistency; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if n == 0 {
            return Err("empty tree".into());
        }
        if self.parent[0] != NONE {
            return Err("root has a parent".into());
        }
        let mut seen_post = vec![false; n];
        for id in self.nodes() {
            let i = id.index();
            if i > 0 {
                let p = self.parent[i];
                if p == NONE || p as usize >= n || p >= id.0 {
                    return Err(format!("node {i} has bad parent {p}"));
                }
                if self.level[i] != self.level[p as usize] + 1 {
                    return Err(format!("node {i} level mismatch"));
                }
            }
            let post = self.post[i] as usize;
            if post >= n || seen_post[post] {
                return Err(format!("node {i} bad post {post}"));
            }
            seen_post[post] = true;
            let child_sum: u32 = self.children(id).map(|c| self.size[c.index()]).sum();
            if self.size[i] != child_sum + 1 {
                return Err(format!("node {i} size mismatch"));
            }
            for c in self.children(id) {
                if self.parent[c.index()] != id.0 {
                    return Err(format!("child {} of {i} disagrees on parent", c.0));
                }
                if !self.is_ancestor(id, c) {
                    return Err(format!("containment fails for {i} -> {}", c.0));
                }
            }
        }
        Ok(())
    }
}

/// Iterator over the children of a node.
pub struct Children<'a> {
    tree: &'a ParseTree,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NONE {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.tree.next_sibling[id.index()];
        Some(id)
    }
}

/// Push-style constructor for [`ParseTree`].
///
/// Call [`TreeBuilder::open`] when entering a node and
/// [`TreeBuilder::close`] when leaving it; nodes are laid out in pre-order
/// automatically.
///
/// ```
/// use si_parsetree::{LabelInterner, TreeBuilder};
/// let mut li = LabelInterner::new();
/// let mut b = TreeBuilder::new();
/// b.open(li.intern("S"));
/// b.open(li.intern("NP"));
/// b.close();
/// b.close();
/// let tree = b.finish().unwrap();
/// assert_eq!(tree.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    labels: Vec<Label>,
    parent: Vec<u32>,
    size: Vec<u32>,
    post: Vec<u32>,
    level: Vec<u16>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    last_child: Vec<u32>,
    stack: Vec<u32>,
    post_counter: u32,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new node labelled `label` under the currently open node.
    ///
    /// The first `open` creates the root. Returns the id the node will have
    /// in the finished tree.
    pub fn open(&mut self, label: Label) -> NodeId {
        let id = self.labels.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        assert!(
            !(parent == NONE && id != 0),
            "a ParseTree has exactly one root"
        );
        self.labels.push(label);
        self.parent.push(parent);
        self.size.push(1);
        self.post.push(0);
        let level = if parent == NONE {
            0
        } else {
            self.level[parent as usize] + 1
        };
        self.level.push(level);
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.last_child.push(NONE);
        if parent != NONE {
            let p = parent as usize;
            if self.first_child[p] == NONE {
                self.first_child[p] = id;
            } else {
                self.next_sibling[self.last_child[p] as usize] = id;
            }
            self.last_child[p] = id;
        }
        self.stack.push(id);
        NodeId(id)
    }

    /// Closes the most recently opened node.
    ///
    /// # Panics
    /// Panics if no node is open.
    pub fn close(&mut self) {
        let id = self.stack.pop().expect("close without open") as usize;
        self.post[id] = self.post_counter;
        self.post_counter += 1;
        if let Some(&p) = self.stack.last() {
            self.size[p as usize] += self.size[id];
        }
    }

    /// Convenience: `open` immediately followed by `close`.
    pub fn leaf(&mut self, label: Label) -> NodeId {
        let id = self.open(label);
        self.close();
        id
    }

    /// Finishes construction.
    ///
    /// Returns `None` if no node was ever opened or some node is still open.
    pub fn finish(self) -> Option<ParseTree> {
        if self.labels.is_empty() || !self.stack.is_empty() {
            return None;
        }
        let tree = ParseTree {
            labels: self.labels,
            parent: self.parent,
            size: self.size,
            post: self.post,
            level: self.level,
            first_child: self.first_child,
            next_sibling: self.next_sibling,
        };
        debug_assert_eq!(tree.validate(), Ok(()));
        Some(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelInterner;

    fn sample() -> (ParseTree, LabelInterner) {
        // S(NP(DT NN) VP(VBZ NP(NN)))
        let mut li = LabelInterner::new();
        let mut b = TreeBuilder::new();
        b.open(li.intern("S"));
        b.open(li.intern("NP"));
        b.leaf(li.intern("DT"));
        b.leaf(li.intern("NN"));
        b.close();
        b.open(li.intern("VP"));
        b.leaf(li.intern("VBZ"));
        b.open(li.intern("NP"));
        b.leaf(li.intern("NN"));
        b.close();
        b.close();
        b.close();
        (b.finish().unwrap(), li)
    }

    #[test]
    fn builder_assigns_preorder_ids() {
        let (t, li) = sample();
        assert_eq!(t.len(), 8);
        let labels: Vec<_> = t
            .nodes()
            .map(|n| li.resolve(t.label(n)).to_owned())
            .collect();
        assert_eq!(labels, ["S", "NP", "DT", "NN", "VP", "VBZ", "NP", "NN"]);
    }

    #[test]
    fn levels_and_sizes() {
        let (t, _) = sample();
        assert_eq!(t.level(t.root()), 0);
        assert_eq!(t.subtree_size(t.root()), 8);
        assert_eq!(t.level(NodeId(2)), 2); // DT
        assert_eq!(t.subtree_size(NodeId(4)), 4); // VP
    }

    #[test]
    fn post_order_ranks() {
        let (t, _) = sample();
        // post-order: DT NN NP VBZ NN NP VP S
        let expected = [7u32, 2, 0, 1, 6, 3, 5, 4];
        for n in t.nodes() {
            assert_eq!(t.post(n), expected[n.index()], "node {}", n.0);
        }
    }

    #[test]
    fn children_in_document_order() {
        let (t, _) = sample();
        let kids: Vec<_> = t.children(t.root()).map(|c| c.0).collect();
        assert_eq!(kids, [1, 4]);
        assert_eq!(t.branching(t.root()), 2);
        assert!(t.is_leaf(NodeId(2)));
    }

    #[test]
    fn ancestor_containment() {
        let (t, _) = sample();
        assert!(t.is_ancestor(NodeId(0), NodeId(7)));
        assert!(t.is_ancestor(NodeId(4), NodeId(6)));
        assert!(!t.is_ancestor(NodeId(1), NodeId(6)));
        assert!(!t.is_ancestor(NodeId(3), NodeId(3)));
    }

    #[test]
    fn descendants_are_contiguous() {
        let (t, _) = sample();
        let d: Vec<_> = t.descendants(NodeId(4)).map(|n| n.0).collect();
        assert_eq!(d, [4, 5, 6, 7]);
    }

    #[test]
    fn single_node_tree() {
        let mut li = LabelInterner::new();
        let mut b = TreeBuilder::new();
        b.leaf(li.intern("NN"));
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.subtree_size(t.root()), 1);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn unbalanced_builder_fails() {
        let mut li = LabelInterner::new();
        let mut b = TreeBuilder::new();
        b.open(li.intern("S"));
        assert!(b.finish().is_none());
        assert!(TreeBuilder::new().finish().is_none());
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn second_root_panics() {
        let mut li = LabelInterner::new();
        let mut b = TreeBuilder::new();
        b.leaf(li.intern("S"));
        b.leaf(li.intern("S"));
    }

    #[test]
    fn validate_accepts_sample() {
        let (t, _) = sample();
        assert_eq!(t.validate(), Ok(()));
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use crate::label::LabelInterner;

    #[test]
    fn branching_and_leaf_queries() {
        let mut li = LabelInterner::new();
        let mut b = TreeBuilder::new();
        b.open(li.intern("A"));
        for _ in 0..5 {
            b.leaf(li.intern("B"));
        }
        b.close();
        let t = b.finish().unwrap();
        assert_eq!(t.branching(t.root()), 5);
        assert!(!t.is_leaf(t.root()));
        assert!(t.children(t.root()).all(|c| t.is_leaf(c)));
        assert_eq!(t.descendants(t.root()).count(), 6);
    }

    #[test]
    fn deep_chain_levels() {
        let mut li = LabelInterner::new();
        let mut b = TreeBuilder::new();
        let depth = 50u16;
        for _ in 0..depth {
            b.open(li.intern("X"));
        }
        for _ in 0..depth {
            b.close();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.len(), depth as usize);
        assert_eq!(t.level(NodeId(depth as u32 - 1)), depth - 1);
        assert!(t.is_ancestor(NodeId(0), NodeId(depth as u32 - 1)));
        assert_eq!(t.validate(), Ok(()));
    }
}
