//! The region inclusion graph (RIG, §3): nodes are region names; an edge
//! `(Ri, Rj)` states that an `Ri` region *can directly include* an `Rj`
//! region. A RIG plays the role of a schema for region instances
//! (Definition 3.1), and the optimizer's rewrites are justified by
//! reachability properties of this graph (Proposition 3.5).

use qof_grammar::Grammar;
use qof_pat::Instance;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// A region inclusion graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rig {
    nodes: Vec<String>,
    by_name: HashMap<String, u32>,
    out: Vec<BTreeSet<u32>>,
    /// Reachability closure: bit `t` of `reach[f]` is set iff a walk of
    /// length ≥ 1 leads from `f` to `t`. Every query's abstract
    /// interpretation and every optimizer rewrite asks reachability
    /// questions, so they are answered by a bit test; every edit rebuilds
    /// the closure (RIGs have tens of nodes).
    reach: Vec<Vec<u64>>,
}

/// A violation of Definition 3.1: an instance region pair in direct
/// inclusion whose names have no RIG edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RigViolation {
    /// Name of the including region.
    pub outer: String,
    /// Name of the directly included region.
    pub inner: String,
}

impl fmt::Display for RigViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance violates RIG: {} directly includes {} but the edge is absent",
            self.outer, self.inner
        )
    }
}

impl Rig {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node if absent, returning its id.
    pub fn add_node(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.out.push(BTreeSet::new());
        self.close();
        id
    }

    /// Adds an edge (creating nodes as needed).
    pub fn add_edge(&mut self, from: &str, to: &str) {
        let f = self.add_node(from);
        let t = self.add_node(to);
        if self.out[f as usize].insert(t) {
            self.close();
        }
    }

    /// Rebuilds the reachability closure: one depth-first walk per node.
    fn close(&mut self) {
        let words = self.nodes.len().div_ceil(64);
        self.reach = self
            .out
            .iter()
            .map(|succ| {
                let mut row = vec![0u64; words];
                let mut stack: Vec<u32> = succ.iter().copied().collect();
                while let Some(n) = stack.pop() {
                    let (w, bit) = (n as usize / 64, 1u64 << (n % 64));
                    if row[w] & bit == 0 {
                        row[w] |= bit;
                        stack.extend(&self.out[n as usize]);
                    }
                }
                row
            })
            .collect();
    }

    /// Derives the RIG of a *fully indexed* natural structuring schema
    /// (§4.2): nodes are all non-terminals except the root; there is an
    /// edge `(Ai, Aj)` iff `Aj` appears on the right-hand side of a rule
    /// for `Ai`.
    pub fn from_grammar(grammar: &Grammar) -> Rig {
        let mut rig = Rig::new();
        for (id, name) in grammar.symbols() {
            if id == grammar.root() {
                continue;
            }
            rig.add_node(name);
            for child in grammar.children_of(id) {
                if child != grammar.root() {
                    rig.add_edge(name, grammar.name(child));
                }
            }
        }
        rig
    }

    /// Derives the partial RIG for an indexed subset (§6.1): nodes are the
    /// indexed names; edge `(Ai, Aj)` iff the full RIG has a path from `Ai`
    /// to `Aj` where all intermediate nodes are *not* indexed.
    pub fn partial(&self, indexed: &BTreeSet<String>) -> Rig {
        let mut rig = Rig::new();
        for name in indexed {
            if self.by_name.contains_key(name) {
                rig.add_node(name);
            }
        }
        for name in indexed {
            let Some(&start) = self.by_name.get(name) else { continue };
            // BFS through non-indexed intermediates.
            let mut seen = vec![false; self.nodes.len()];
            let mut queue: VecDeque<u32> = self.out[start as usize].iter().copied().collect();
            while let Some(n) = queue.pop_front() {
                if seen[n as usize] {
                    continue;
                }
                seen[n as usize] = true;
                if indexed.contains(&self.nodes[n as usize]) {
                    rig.add_edge(name, &self.nodes[n as usize]);
                    continue; // do not traverse through indexed nodes
                }
                for &m in &self.out[n as usize] {
                    queue.push_back(m);
                }
            }
        }
        rig
    }

    /// The node names.
    pub fn node_names(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(String::as_str)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(BTreeSet::len).sum()
    }

    /// The node names, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(String::as_str)
    }

    /// Whether `name` is a node.
    pub fn has_node(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Whether the edge `(from, to)` exists.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        match (self.by_name.get(from), self.by_name.get(to)) {
            (Some(&f), Some(&t)) => self.out[f as usize].contains(&t),
            _ => false,
        }
    }

    /// Direct successors of a node.
    pub fn successors(&self, name: &str) -> Vec<&str> {
        match self.by_name.get(name) {
            Some(&id) => {
                self.out[id as usize].iter().map(|&t| self.nodes[t as usize].as_str()).collect()
            }
            None => Vec::new(),
        }
    }

    /// The id of node `name`, for the id-based queries below.
    pub(crate) fn node_id(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Whether the edge `(from, to)` exists, by node id.
    pub(crate) fn edge(&self, from: u32, to: u32) -> bool {
        self.out[from as usize].contains(&to)
    }

    /// Whether a walk of length ≥ 1 leads from `from` to `to`, by node id.
    pub(crate) fn reaches(&self, from: u32, to: u32) -> bool {
        self.reach[from as usize][to as usize / 64] & (1 << (to % 64)) != 0
    }

    /// Reachability `from → to` by a walk of length ≥ 1, optionally avoiding
    /// a node entirely.
    fn reach(&self, from: u32, to: u32, avoid_node: Option<u32>) -> bool {
        if avoid_node.is_none() {
            return self.reaches(from, to);
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &n in &self.out[from as usize] {
            if Some(n) == avoid_node {
                continue;
            }
            queue.push_back(n);
        }
        while let Some(n) = queue.pop_front() {
            if n == to {
                return true;
            }
            if seen[n as usize] {
                continue;
            }
            seen[n as usize] = true;
            for &m in &self.out[n as usize] {
                if Some(m) != avoid_node {
                    queue.push_back(m);
                }
            }
        }
        false
    }

    /// Whether a path of length ≥ 1 exists from `from` to `to`.
    pub fn has_path(&self, from: &str, to: &str) -> bool {
        match (self.by_name.get(from), self.by_name.get(to)) {
            (Some(&f), Some(&t)) => self.reach(f, t, None),
            _ => false,
        }
    }

    /// Whether `name` sits on a RIG cycle — i.e. regions of this type can
    /// nest inside regions of the same type. Closure (`+`) over a name off
    /// every cycle can never reach a second nesting level.
    pub fn on_cycle(&self, name: &str) -> bool {
        self.has_path(name, name)
    }

    /// Proposition 3.5(a), first disjunct: the edge `(from, to)` exists and
    /// is the **only** path from `from` to `to`.
    ///
    /// "Paths" are walks: region names may repeat along an actual nesting
    /// chain (self-nested regions), so a route through a cycle counts as a
    /// second path.
    pub fn only_path_edge(&self, from: &str, to: &str) -> bool {
        let (Some(&f), Some(&t)) = (self.by_name.get(from), self.by_name.get(to)) else {
            return false;
        };
        if !self.out[f as usize].contains(&t) {
            return false;
        }
        // Another walk exists iff some other successor of `from` reaches
        // `to`, or `to` lies on a cycle (the walk re-enters `to`).
        let other = self.out[f as usize].iter().any(|&c| c != t && self.reach(c, t, None))
            || self.reach(t, t, None);
        !other
    }

    /// Proposition 3.5(a), second disjunct: the edge exists and **every**
    /// path (walk) from `from` to `to` starts with it — no other successor
    /// of `from` reaches `to` at all.
    pub fn all_paths_start_with_edge(&self, from: &str, to: &str) -> bool {
        let (Some(&f), Some(&t)) = (self.by_name.get(from), self.by_name.get(to)) else {
            return false;
        };
        if !self.out[f as usize].contains(&t) {
            return false;
        }
        self.out[f as usize].iter().filter(|&&c| c != t).all(|&c| !self.reach(c, t, None))
    }

    /// The dual of [`Rig::all_paths_start_with_edge`] for projection
    /// chains: the edge exists and **every** path (walk) from `from` to
    /// `to` ends with it — no other predecessor of `to` is reachable from
    /// `from`. (Weakening `⊂d` at the outermost end of a projection chain
    /// requires the *last* step to be the edge, since the deepest regions —
    /// not the containers — are the result.)
    pub fn all_paths_end_with_edge(&self, from: &str, to: &str) -> bool {
        let (Some(&f), Some(&t)) = (self.by_name.get(from), self.by_name.get(to)) else {
            return false;
        };
        if !self.out[f as usize].contains(&t) {
            return false;
        }
        // Predecessors of `to` other than `from` must be unreachable from
        // `from` (reachable one would yield a walk ending with a different
        // edge into `to`).
        (0..self.nodes.len() as u32)
            .all(|c| c == f || !self.out[c as usize].contains(&t) || !self.reach(f, c, None))
    }

    /// Proposition 3.5(b): every path from `from` to `to` passes through
    /// `via` (equivalently: `to` is unreachable once `via` is removed).
    /// Requires at least one path to exist (non-trivial expressions).
    pub fn all_paths_pass_through(&self, from: &str, to: &str, via: &str) -> bool {
        let (Some(&f), Some(&t), Some(&v)) =
            (self.by_name.get(from), self.by_name.get(to), self.by_name.get(via))
        else {
            return false;
        };
        if v == f || v == t {
            return false;
        }
        self.reach(f, t, None) && !self.reach(f, t, Some(v))
    }

    /// Checks Definition 3.1 against an instance, modulo *extent collapse*:
    /// a one-element repetition has the same extents as its child (e.g. a
    /// single-author `Authors` region equals its `Name` region), making the
    /// child *formally* directly included in the grandparent. Such a pair is
    /// licensed when some name sharing the inner region's extents has the
    /// edge instead. Returns the first unlicensed strict direct inclusion.
    pub fn check_instance(&self, instance: &Instance) -> Result<(), RigViolation> {
        // Map extents -> names carrying them.
        let mut names_of: BTreeMap<qof_pat::Region, Vec<&str>> = BTreeMap::new();
        for (name, set) in instance.iter() {
            for r in set {
                names_of.entry(*r).or_default().push(name);
            }
        }
        let forest = instance.forest();
        for (i, r) in forest.regions().iter().enumerate() {
            let Some(p) = forest.parent_of(i) else { continue };
            let parent = forest.regions()[p];
            let outers = &names_of[&parent];
            let inners = &names_of[r];
            for inner in inners {
                let licensed = outers.iter().any(|o| self.has_edge(o, inner))
                    || inners.iter().any(|m| m != inner && self.has_edge(m, inner));
                if !licensed {
                    return Err(RigViolation {
                        outer: outers.first().copied().unwrap_or("?").to_owned(),
                        inner: (*inner).to_owned(),
                    });
                }
            }
        }
        Ok(())
    }
}

impl Rig {
    /// Graphviz rendering of the graph — the paper's RIG diagrams (§3.2,
    /// §5.1, §6.1) as `dot` input, with an optional set of highlighted
    /// (e.g. query-path) nodes.
    pub fn to_dot(&self, highlight: &[&str]) -> String {
        let mut out = String::from("digraph RIG {\n  rankdir=TB;\n  node [shape=box];\n");
        for (i, name) in self.nodes.iter().enumerate() {
            if highlight.contains(&name.as_str()) {
                out.push_str(&format!("  \"{name}\" [style=filled, fillcolor=lightgrey];\n"));
            }
            for &t in &self.out[i] {
                out.push_str(&format!("  \"{name}\" -> \"{}\";\n", self.nodes[t as usize]));
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Rig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, name) in self.nodes.iter().enumerate() {
            let succs: Vec<&str> =
                self.out[i].iter().map(|&t| self.nodes[t as usize].as_str()).collect();
            writeln!(f, "{name} -> {{{}}}", succs.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_pat::{Region, RegionSet};

    /// The paper's §3.2 BibTeX RIG fragment:
    /// Reference → {Key, Authors, Title, Editors};
    /// Authors → Name; Editors → Name; Name → {`First_Name`, `Last_Name`}.
    fn bib_rig() -> Rig {
        let mut g = Rig::new();
        g.add_edge("Reference", "Key");
        g.add_edge("Reference", "Authors");
        g.add_edge("Reference", "Title");
        g.add_edge("Reference", "Editors");
        g.add_edge("Authors", "Name");
        g.add_edge("Editors", "Name");
        g.add_edge("Name", "First_Name");
        g.add_edge("Name", "Last_Name");
        g
    }

    #[test]
    fn paths_and_edges() {
        let g = bib_rig();
        assert!(g.has_edge("Authors", "Name"));
        assert!(!g.has_edge("Reference", "Name"));
        assert!(g.has_path("Reference", "Last_Name"));
        assert!(!g.has_path("Last_Name", "Reference"));
        assert!(!g.has_path("Title", "Name"));
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn only_path_edge_tests() {
        let g = bib_rig();
        // Authors → Name is the only path from Authors to Name.
        assert!(g.only_path_edge("Authors", "Name"));
        // Name → Last_Name likewise.
        assert!(g.only_path_edge("Name", "Last_Name"));
        // No edge Reference → Name at all.
        assert!(!g.only_path_edge("Reference", "Name"));
        // Add a second route Authors → Alias → Name: no longer the only path.
        let mut g2 = bib_rig();
        g2.add_edge("Authors", "Alias");
        g2.add_edge("Alias", "Name");
        assert!(!g2.only_path_edge("Authors", "Name"));
    }

    #[test]
    fn all_paths_pass_through_tests() {
        let g = bib_rig();
        // Every path Reference → Last_Name passes through Name...
        assert!(g.all_paths_pass_through("Reference", "Last_Name", "Name"));
        // ...but not through Authors (Editors route exists).
        assert!(!g.all_paths_pass_through("Reference", "Last_Name", "Authors"));
        // Authors → Last_Name passes through Name.
        assert!(g.all_paths_pass_through("Authors", "Last_Name", "Name"));
        // Endpoints don't count as "via".
        assert!(!g.all_paths_pass_through("Authors", "Name", "Authors"));
    }

    #[test]
    fn all_paths_start_with_edge_tests() {
        let g = bib_rig();
        assert!(g.all_paths_start_with_edge("Authors", "Name"));
        assert!(g.all_paths_start_with_edge("Name", "Last_Name"));
        // Reference → Authors: holds (the only way into Authors).
        assert!(g.all_paths_start_with_edge("Reference", "Authors"));
        // Reference has no edge to Last_Name.
        assert!(!g.all_paths_start_with_edge("Reference", "Last_Name"));
        // Add edge Reference → Name: now Reference → Name holds only if no
        // other successor reaches Name — Authors and Editors do.
        let mut g2 = bib_rig();
        g2.add_edge("Reference", "Name");
        assert!(!g2.all_paths_start_with_edge("Reference", "Name"));
    }

    #[test]
    fn all_paths_end_with_edge_tests() {
        let g = bib_rig();
        // Authors → Name ends every walk into Name? Editors → Name also
        // exists, but Editors is not reachable from Authors — so from
        // Authors, yes.
        assert!(g.all_paths_end_with_edge("Authors", "Name"));
        // Self-nested regions: E inside E. A → E with E → D → E: a walk
        // A → E → D → E ends with (D, E), not (A, E).
        let mut c = Rig::new();
        c.add_edge("A", "E");
        c.add_edge("E", "D");
        c.add_edge("D", "E");
        assert!(!c.all_paths_end_with_edge("A", "E"));
    }

    #[test]
    fn cycles_are_supported() {
        // Section → Subsections → Section (self-nesting, §3).
        let mut g = Rig::new();
        g.add_edge("Section", "Subsections");
        g.add_edge("Subsections", "Section");
        g.add_edge("Section", "Head");
        assert!(g.has_path("Section", "Section"));
        assert!(g.has_path("Subsections", "Head"));
        // Section → Head is an edge, but a longer route exists through the
        // cycle: Section → Subsections → Section → Head.
        assert!(!g.only_path_edge("Section", "Head"));
        assert!(g.all_paths_pass_through("Subsections", "Head", "Section"));
    }

    #[test]
    fn partial_rig_derivation() {
        let g = bib_rig();
        // Zp = {Reference, Key, Last_Name} — §6.1's example.
        let indexed: BTreeSet<String> =
            ["Reference", "Key", "Last_Name"].iter().map(ToString::to_string).collect();
        let p = g.partial(&indexed);
        assert_eq!(p.node_count(), 3);
        assert!(p.has_edge("Reference", "Key"));
        assert!(p.has_edge("Reference", "Last_Name"));
        assert!(!p.has_edge("Key", "Last_Name"));
    }

    #[test]
    fn partial_rig_stops_at_indexed_nodes() {
        let g = bib_rig();
        let indexed: BTreeSet<String> =
            ["Reference", "Authors", "Last_Name"].iter().map(ToString::to_string).collect();
        let p = g.partial(&indexed);
        // Reference reaches Last_Name through Editors (not indexed) without
        // passing an indexed node, so the edge exists...
        assert!(p.has_edge("Reference", "Last_Name"));
        // ...and also through Authors, but that route is cut at Authors.
        assert!(p.has_edge("Reference", "Authors"));
        assert!(p.has_edge("Authors", "Last_Name"));
    }

    #[test]
    fn instance_satisfaction() {
        let g = bib_rig();
        let mut inst = Instance::new();
        inst.insert("Reference", RegionSet::from_regions(vec![Region::new(0, 100)]));
        inst.insert("Authors", RegionSet::from_regions(vec![Region::new(10, 40)]));
        inst.insert("Name", RegionSet::from_regions(vec![Region::new(12, 30)]));
        assert!(g.check_instance(&inst).is_ok());
        // A Name directly inside a Reference violates the BibTeX RIG.
        let mut bad = Instance::new();
        bad.insert("Reference", RegionSet::from_regions(vec![Region::new(0, 100)]));
        bad.insert("Name", RegionSet::from_regions(vec![Region::new(12, 30)]));
        let v = g.check_instance(&bad).unwrap_err();
        assert_eq!(v.outer, "Reference");
        assert_eq!(v.inner, "Name");
    }

    #[test]
    fn display_lists_adjacency() {
        let g = bib_rig();
        let s = g.to_string();
        assert!(s.contains("Authors -> {Name}"));
    }

    #[test]
    fn dot_output_is_wellformed() {
        let g = bib_rig();
        let dot = g.to_dot(&["Authors"]);
        assert!(dot.starts_with("digraph RIG {"));
        assert!(dot.contains("\"Authors\" -> \"Name\";"));
        assert!(dot.contains("fillcolor=lightgrey"));
        assert!(dot.ends_with("}\n"));
    }
}
