//! The auto-fusion planner: from N lane graphs to a [`FusionPlan`].
//!
//! Matching works on tokens — each lane's [`ShapedOp`]s, `(op spec, entry
//! shape)` pairs at one row — so a candidate fusion is shape-safe by
//! construction. The planner:
//!
//! 1. computes every lane's token sequence ([`ModelGraph::shaped`]);
//! 2. folds a longest-common-subsequence over the *distinct* sequences,
//!    yielding the **anchors**: a maximal common run of tokens present in
//!    every lane, in order;
//! 3. greedily (leftmost) locates the anchors in each lane and splits
//!    them into maximal runs that are *contiguous in every lane* — each
//!    run becomes one all-lane [`Block`] of kind [`BlockKind::Fused`];
//! 4. the per-lane gap segments between consecutive runs are grouped by
//!    identical token content: groups of two or more lanes become
//!    sub-width fused blocks, singletons become [`BlockKind::Serial`]
//!    blocks.
//!
//! Every block records, per participating lane, the *start index into
//! that lane's own program* — the lane-index map that lets execution key
//! parameter initialization and lane surgery to `(lane, op-in-lane)`,
//! independent of how the plan carved the program into blocks. That is
//! the invariant behind the bit-identity contract: any two plans over the
//! same graphs (including the trivial all-serial plan) train every lane
//! bit-for-bit identically.

use serde::{Deserialize, Serialize};

use crate::ir::{ModelGraph, OpSpec, PlanError, ShapedOp};

/// Whether a block runs horizontally fused or per-lane serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockKind {
    /// Two or more lanes run these ops as one fused (width ≥ 2) segment.
    Fused,
    /// A single lane runs these ops on its own (width-1) segment.
    Serial,
}

/// One contiguous segment of the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// [`BlockKind::Fused`] iff `lanes.len() >= 2`.
    pub kind: BlockKind,
    /// Participating global lane indices, ascending.
    pub lanes: Vec<usize>,
    /// `starts[j]` = index of `ops[0]` within `lanes[j]`'s own program.
    pub starts: Vec<usize>,
    /// The ops of this segment (identical across participating lanes).
    pub ops: Vec<OpSpec>,
}

impl Block {
    fn new(lanes: Vec<usize>, starts: Vec<usize>, ops: Vec<OpSpec>) -> Block {
        debug_assert_eq!(lanes.len(), starts.len());
        debug_assert!(lanes.windows(2).all(|w| w[0] < w[1]));
        Block {
            kind: if lanes.len() >= 2 {
                BlockKind::Fused
            } else {
                BlockKind::Serial
            },
            lanes,
            starts,
            ops,
        }
    }

    /// Fused width (number of participating lanes).
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// True when the block runs two or more lanes fused.
    pub fn is_fused(&self) -> bool {
        self.kind == BlockKind::Fused
    }

    /// Position of global `lane` within this block, if it participates.
    pub fn lane_index(&self, lane: usize) -> Option<usize> {
        self.lanes.iter().position(|&l| l == lane)
    }
}

/// An ordered sequence of fused and serial blocks covering every op of
/// every lane exactly once, in each lane's own program order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionPlan {
    /// Number of lanes planned over.
    pub lanes: usize,
    /// Per-lane program length (op count).
    pub lane_ops: Vec<usize>,
    /// The blocks, in execution order.
    pub blocks: Vec<Block>,
}

impl FusionPlan {
    /// Plans a model set: maximal shape-safe fusion, serial leftovers.
    ///
    /// # Errors
    ///
    /// [`PlanError::Empty`] on an empty set; [`PlanError::Shape`] when a
    /// graph's shapes do not propagate.
    pub fn plan(graphs: &[ModelGraph]) -> Result<FusionPlan, PlanError> {
        let toks = all_tokens(graphs)?;
        let anchors = common_anchors(&toks);
        let pos: Vec<Vec<usize>> = toks.iter().map(|t| match_leftmost(t, &anchors)).collect();

        let n = graphs.len();
        let mut blocks = Vec::new();
        let mut cursor = vec![0usize; n];
        // Split anchors into maximal runs contiguous in every lane.
        let mut i = 0;
        while i < anchors.len() {
            let mut j = i + 1;
            while j < anchors.len() && pos.iter().all(|p| p[j] == p[j - 1] + 1) {
                j += 1;
            }
            // Per-lane gaps before this run.
            let next: Vec<usize> = pos.iter().map(|p| p[i]).collect();
            gap_blocks(&toks, &cursor, &next, &mut blocks);
            blocks.push(Block::new(
                (0..n).collect(),
                next.clone(),
                anchors[i..j].iter().map(|t| t.op().clone()).collect(),
            ));
            for (c, p) in cursor.iter_mut().zip(&pos) {
                *c = p[j - 1] + 1;
            }
            i = j;
        }
        // Trailing gaps.
        let ends: Vec<usize> = toks.iter().map(|t| t.len()).collect();
        gap_blocks(&toks, &cursor, &ends, &mut blocks);

        let plan = FusionPlan {
            lanes: n,
            lane_ops: ends,
            blocks,
        };
        debug_assert!(plan.check_coverage());
        Ok(plan)
    }

    /// The trivial no-fusion plan: one serial block per lane covering its
    /// whole program. Validates shapes like [`FusionPlan::plan`].
    pub fn serial(graphs: &[ModelGraph]) -> Result<FusionPlan, PlanError> {
        let toks = all_tokens(graphs)?;
        Ok(FusionPlan {
            lanes: graphs.len(),
            lane_ops: toks.iter().map(|t| t.len()).collect(),
            blocks: graphs
                .iter()
                .enumerate()
                .map(|(l, g)| Block::new(vec![l], vec![0], g.ops.clone()))
                .collect(),
        })
    }

    /// Fraction of `(lane, op)` work covered by fused (width ≥ 2)
    /// blocks — the packing signal `hfta-sched` and `hfta-serve` consume.
    pub fn fused_fraction(&self) -> f64 {
        let total: usize = self.lane_ops.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let fused: usize = self
            .blocks
            .iter()
            .filter(|b| b.is_fused())
            .map(|b| b.width() * b.ops.len())
            .sum();
        fused as f64 / total as f64
    }

    /// Widest fused block in the plan (0 when nothing fuses).
    pub fn max_fused_width(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.is_fused())
            .map(Block::width)
            .max()
            .unwrap_or(0)
    }

    /// True when every lane's ops are covered exactly once, in order.
    fn check_coverage(&self) -> bool {
        let mut seen = vec![0usize; self.lanes];
        for b in &self.blocks {
            for (&l, &s) in b.lanes.iter().zip(&b.starts) {
                if seen[l] != s {
                    return false;
                }
                seen[l] += b.ops.len();
            }
        }
        seen == self.lane_ops
    }
}

fn all_tokens(graphs: &[ModelGraph]) -> Result<Vec<Vec<ShapedOp>>, PlanError> {
    if graphs.is_empty() {
        return Err(PlanError::Empty);
    }
    graphs.iter().map(|g| g.shaped(1)).collect()
}

/// Folds LCS over the distinct token sequences: the result is a common
/// subsequence of every lane's program.
fn common_anchors(toks: &[Vec<ShapedOp>]) -> Vec<ShapedOp> {
    let mut distinct: Vec<&Vec<ShapedOp>> = Vec::new();
    for t in toks {
        if !distinct.contains(&t) {
            distinct.push(t);
        }
    }
    let mut common = distinct[0].clone();
    for t in &distinct[1..] {
        common = lcs(&common, t);
        if common.is_empty() {
            break;
        }
    }
    common
}

/// Classic O(n·m) longest-common-subsequence on tokens.
fn lcs(a: &[ShapedOp], b: &[ShapedOp]) -> Vec<ShapedOp> {
    let (n, m) = (a.len(), b.len());
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[at(i, j)] = if a[i] == b[j] {
                dp[at(i + 1, j + 1)] + 1
            } else {
                dp[at(i + 1, j)].max(dp[at(i, j + 1)])
            };
        }
    }
    let mut out = Vec::with_capacity(dp[at(0, 0)] as usize);
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            out.push(a[i].clone());
            i += 1;
            j += 1;
        } else if dp[at(i + 1, j)] >= dp[at(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Greedy leftmost positions of `anchors` (a known subsequence) in `seq`.
fn match_leftmost(seq: &[ShapedOp], anchors: &[ShapedOp]) -> Vec<usize> {
    let mut pos = Vec::with_capacity(anchors.len());
    let mut i = 0;
    for a in anchors {
        while seq[i] != *a {
            i += 1;
        }
        pos.push(i);
        i += 1;
    }
    pos
}

/// Emits blocks for the per-lane gap segments `cursor[l]..next[l]`,
/// grouping lanes with identical segment content into sub-width fused
/// blocks (groups ordered by smallest member lane).
fn gap_blocks(toks: &[Vec<ShapedOp>], cursor: &[usize], next: &[usize], blocks: &mut Vec<Block>) {
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (lanes, starts)
    for (l, t) in toks.iter().enumerate() {
        let seg = &t[cursor[l]..next[l]];
        if seg.is_empty() {
            continue;
        }
        let found = groups.iter_mut().find(|(lanes, starts)| {
            let l0 = lanes[0];
            let s0 = starts[0];
            toks[l0][s0..s0 + (next[l0] - s0)] == *seg
        });
        match found {
            Some((lanes, starts)) => {
                lanes.push(l);
                starts.push(cursor[l]);
            }
            None => groups.push((vec![l], vec![cursor[l]])),
        }
    }
    for (lanes, starts) in groups {
        let l0 = lanes[0];
        let ops = toks[l0][starts[0]..next[l0]]
            .iter()
            .map(|t| t.op().clone())
            .collect();
        blocks.push(Block::new(lanes, starts, ops));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpSpec;
    use hfta_nn::layers::{Conv2dCfg, LinearCfg};

    fn base_ops() -> Vec<OpSpec> {
        vec![
            OpSpec::conv2d(Conv2dCfg::new(3, 8, 4).stride(2).padding(1).bias(false)),
            OpSpec::leaky_relu(0.2),
            OpSpec::conv2d(Conv2dCfg::new(8, 16, 4).stride(2).padding(1).bias(false)),
            OpSpec::batch_norm(16),
            OpSpec::leaky_relu(0.2),
            OpSpec::conv2d(Conv2dCfg::new(16, 1, 4).stride(1).padding(0).bias(false)),
            OpSpec::flatten(),
        ]
    }

    fn variant_ops() -> Vec<OpSpec> {
        let mut ops = base_ops();
        // Shape-preserving refinement block after stage 1.
        ops.insert(
            2,
            OpSpec::conv2d(Conv2dCfg::new(8, 8, 3).stride(1).padding(1).bias(false)),
        );
        ops.insert(3, OpSpec::leaky_relu(0.2));
        ops
    }

    fn graph(name: &str, ops: Vec<OpSpec>) -> ModelGraph {
        ModelGraph::new(name, vec![3, 16, 16], ops)
    }

    #[test]
    fn homogeneous_set_fuses_into_one_block() {
        let graphs: Vec<_> = (0..4)
            .map(|i| graph(&format!("d{i}"), base_ops()))
            .collect();
        let plan = FusionPlan::plan(&graphs).unwrap();
        assert_eq!(plan.blocks.len(), 1);
        assert!(plan.blocks[0].is_fused());
        assert_eq!(plan.blocks[0].lanes, vec![0, 1, 2, 3]);
        assert_eq!(plan.blocks[0].ops.len(), 7);
        assert_eq!(plan.fused_fraction(), 1.0);
        assert_eq!(plan.max_fused_width(), 4);
    }

    #[test]
    fn mixed_variants_share_prefix_and_suffix_with_subgroup_gap() {
        let graphs = vec![
            graph("base0", base_ops()),
            graph("var0", variant_ops()),
            graph("base1", base_ops()),
            graph("var1", variant_ops()),
        ];
        let plan = FusionPlan::plan(&graphs).unwrap();
        // Prefix (conv+lrelu) fused over all 4, the variant's refinement
        // block fused over lanes {1,3}, suffix fused over all 4.
        let all_lane_fused: Vec<&Block> = plan
            .blocks
            .iter()
            .filter(|b| b.is_fused() && b.width() == 4)
            .collect();
        assert_eq!(
            all_lane_fused.iter().map(|b| b.ops.len()).sum::<usize>(),
            7,
            "every base op fuses across all four lanes: {plan:#?}"
        );
        let sub = plan
            .blocks
            .iter()
            .find(|b| b.lanes == vec![1, 3])
            .expect("variant lanes share their refinement block");
        assert_eq!(sub.ops.len(), 2);
        assert!(sub.is_fused());
        // 4*7 common + 2*2 variant = 32 of 32 lane-ops fused.
        assert!((plan.fused_fraction() - 1.0).abs() < 1e-12);
        // Lane-index maps point into each lane's own program.
        for b in &plan.blocks {
            for (&l, &s) in b.lanes.iter().zip(&b.starts) {
                assert!(s + b.ops.len() <= plan.lane_ops[l]);
                assert_eq!(graphs[l].ops[s..s + b.ops.len()], b.ops[..]);
            }
        }
    }

    #[test]
    fn lone_variant_runs_its_extra_block_serial() {
        let graphs = vec![
            graph("base0", base_ops()),
            graph("base1", base_ops()),
            graph("var", variant_ops()),
        ];
        let plan = FusionPlan::plan(&graphs).unwrap();
        let serial: Vec<&Block> = plan.blocks.iter().filter(|b| !b.is_fused()).collect();
        assert_eq!(serial.len(), 1);
        assert_eq!(serial[0].lanes, vec![2]);
        assert_eq!(serial[0].ops.len(), 2);
        assert!(plan.fused_fraction() > 0.9);
    }

    #[test]
    fn disjoint_archs_fall_back_to_arch_groups() {
        let cnn = graph("cnn", base_ops());
        let mlp = ModelGraph::new(
            "mlp",
            vec![12],
            vec![
                OpSpec::linear(LinearCfg::new(12, 8)),
                OpSpec::relu(),
                OpSpec::linear(LinearCfg::new(8, 2)),
            ],
        );
        let plan = FusionPlan::plan(&[cnn.clone(), mlp.clone(), cnn, mlp]).unwrap();
        // No common anchors, but each arch pair fuses as a gap group.
        assert_eq!(plan.blocks.len(), 2);
        assert!(plan.blocks.iter().all(Block::is_fused));
        assert_eq!(plan.blocks[0].lanes, vec![0, 2]);
        assert_eq!(plan.blocks[1].lanes, vec![1, 3]);
        assert_eq!(plan.fused_fraction(), 1.0);
    }

    #[test]
    fn same_ops_different_entry_shapes_do_not_fuse() {
        // Same op kinds, but one lane's input is larger: entry shapes
        // differ, so nothing may fuse even though specs match.
        let a = ModelGraph::new(
            "small",
            vec![3, 16, 16],
            vec![OpSpec::conv2d(
                Conv2dCfg::new(3, 8, 4).stride(2).padding(1).bias(false),
            )],
        );
        let b = ModelGraph::new(
            "large",
            vec![3, 32, 32],
            vec![OpSpec::conv2d(
                Conv2dCfg::new(3, 8, 4).stride(2).padding(1).bias(false),
            )],
        );
        let plan = FusionPlan::plan(&[a, b]).unwrap();
        assert!(plan.blocks.iter().all(|b| !b.is_fused()));
        assert_eq!(plan.fused_fraction(), 0.0);
        assert_eq!(plan.max_fused_width(), 0);
    }

    #[test]
    fn serial_plan_covers_every_lane() {
        let graphs = vec![graph("a", base_ops()), graph("b", variant_ops())];
        let plan = FusionPlan::serial(&graphs).unwrap();
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(plan.fused_fraction(), 0.0);
        assert!(plan.check_coverage());
    }

    #[test]
    fn empty_set_is_an_error() {
        assert_eq!(FusionPlan::plan(&[]), Err(PlanError::Empty));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let graphs = vec![graph("a", base_ops()), graph("v", variant_ops())];
        let plan = FusionPlan::plan(&graphs).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FusionPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
