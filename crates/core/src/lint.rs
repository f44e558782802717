//! Static plan linting: analyze layouts and redistribution plans *before*
//! any exchange runs, so contract violations surface as typed diagnostics
//! with fix hints instead of wrong answers or deadlocks at reorganize time.
//!
//! Three entry points, from cheapest to most thorough:
//!
//! * [`lint_layouts`] — the declared [`Layout`]s alone: ownership overlap,
//!   domain coverage holes, need blocks nobody produces.
//! * [`lint_plan`] — one rank's computed (or deserialized) [`Plan`]:
//!   element-size consistency, subarray bounds, round-count invariants,
//!   duplicate peers within a round, phantom transfers.
//! * [`lint_plans`] — the full set of per-rank plans: cross-rank agreement
//!   on shape, and per-round send/receive byte symmetry — every byte rank
//!   `s` ships to rank `d` in round `r` must be expected by `d`'s plan, and
//!   vice versa, or the exchange loses or invents data.
//!
//! [`lint_mapping`] composes all three from a [`Descriptor`] and the
//! layouts, recomputing every rank's plan through
//! [`crate::compute_local_plan`]. [`ValidationPolicy::Audit`] runs it inside
//! `setup_data_mapping` and rejects plans with error-severity findings as
//! [`crate::DdrError::PlanRejected`].

use crate::block::{bounding_box, Block};
use crate::descriptor::Descriptor;
use crate::layout::Layout;
use crate::plan::Plan;
use crate::validate::ValidationPolicy;
use std::collections::HashMap;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable: the exchange will run, possibly wastefully
    /// or with unfilled elements the caller may have intended.
    Warning,
    /// The plan violates the redistribution contract; executing it would
    /// lose data, corrupt buffers, or hang.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Typed identity of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintCode {
    /// The union of owned chunks does not cover the domain, or a rank's
    /// needed block contains elements no chunk produces.
    CoverageHole,
    /// Two owned chunks intersect — the "mutually exclusive" requirement.
    OwnershipOverlap,
    /// Element sizes disagree between plans, or between a plan and its
    /// transfers' datatypes.
    ElemSizeMismatch,
    /// A sender ships a different byte count than the receiver expects for
    /// the same (round, source, destination).
    ByteAsymmetry,
    /// A transfer's subarray escapes its buffer, disagrees with its region,
    /// or a block has a zero extent.
    SubarrayBounds,
    /// One round lists the same peer twice on one side — `alltoallw` keeps
    /// a single datatype per peer, so the duplicate would be dropped.
    DuplicatePeer,
    /// Plans disagree on the number of rounds, or a plan schedules sends in
    /// a round beyond its own chunk count.
    RoundCountMismatch,
    /// A transfer that moves zero bytes or targets a rank outside the
    /// communicator.
    PhantomTransfer,
    /// One rank's predicted staging-buffer footprint for a single round
    /// (sent + received payload bytes, the amount that materializes in the
    /// runtime's pack/unpack pool when the zero-copy path is off) exceeds
    /// the configured bound.
    PeakStagingExceeded,
    /// The analytic peak of in-flight staged bytes — what the memory
    /// governor meters — exceeds the configured `DDR_MEM_BUDGET`. Error
    /// severity when a single transfer alone is larger than the whole
    /// budget (the runtime fails that deposit with `MemoryPressure`);
    /// warning severity when only one round's global total overflows
    /// (senders park on the governor gate until receivers drain: the round
    /// runs slower, or fails with `MemoryPressure` if every sender parks
    /// before any receiver drains).
    MemBudgetExceeded,
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintCode::CoverageHole => "coverage-hole",
            LintCode::OwnershipOverlap => "ownership-overlap",
            LintCode::ElemSizeMismatch => "elem-size-mismatch",
            LintCode::ByteAsymmetry => "byte-asymmetry",
            LintCode::SubarrayBounds => "subarray-bounds",
            LintCode::DuplicatePeer => "duplicate-peer",
            LintCode::RoundCountMismatch => "round-count-mismatch",
            LintCode::PhantomTransfer => "phantom-transfer",
            LintCode::PeakStagingExceeded => "peak-staging-exceeded",
            LintCode::MemBudgetExceeded => "mem-budget-exceeded",
        })
    }
}

/// One lint finding: what is wrong, where, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Typed identity of the finding.
    pub code: LintCode,
    /// Whether the plan is executable despite the finding.
    pub severity: Severity,
    /// Rank the finding is attributed to, when it is rank-specific.
    pub rank: Option<usize>,
    /// Communication round, when the finding is round-specific.
    pub round: Option<usize>,
    /// What is wrong, with concrete numbers.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(r) = self.rank {
            write!(f, " rank {r}")?;
        }
        if let Some(r) = self.round {
            write!(f, " round {r}")?;
        }
        write!(f, ": {} (hint: {})", self.message, self.hint)
    }
}

impl LintDiagnostic {
    fn error(code: LintCode, message: String, hint: &str) -> Self {
        LintDiagnostic {
            code,
            severity: Severity::Error,
            rank: None,
            round: None,
            message,
            hint: hint.into(),
        }
    }

    fn warning(code: LintCode, message: String, hint: &str) -> Self {
        LintDiagnostic { severity: Severity::Warning, ..Self::error(code, message, hint) }
    }

    fn at_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    fn at_round(mut self, round: usize) -> Self {
        self.round = Some(round);
        self
    }
}

/// True when any diagnostic is error-severity (the plan must not execute).
pub fn has_errors(diags: &[LintDiagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

fn block_str(b: &Block) -> String {
    let n = b.ndims;
    format!("{:?}+{:?}", &b.offset[..n], &b.dims[..n])
}

/// Lint the declared layouts: ownership exclusivity and completeness, and
/// per-rank need coverage. Unlike [`crate::validate`], which stops at the
/// first violation, this reports *every* finding.
pub fn lint_layouts(layouts: &[Layout]) -> Vec<LintDiagnostic> {
    let mut diags = Vec::new();
    let all: Vec<(usize, usize, &Block)> = layouts
        .iter()
        .enumerate()
        .flat_map(|(r, l)| l.owned.iter().enumerate().map(move |(c, b)| (r, c, b)))
        .collect();
    if all.is_empty() {
        diags.push(LintDiagnostic::error(
            LintCode::CoverageHole,
            "no rank owns any data".into(),
            "every element of the domain must be owned by exactly one rank",
        ));
        return diags;
    }

    for (r, c, b) in &all {
        if b.dims[..b.ndims].contains(&0) {
            diags.push(
                LintDiagnostic::error(
                    LintCode::SubarrayBounds,
                    format!("owned chunk {c} has a zero extent: {}", block_str(b)),
                    "every dimension of a block must have extent >= 1",
                )
                .at_rank(*r),
            );
        }
    }

    // Every overlapping pair, not just the first (quadratic, but lint is a
    // diagnostic tool, not a hot path).
    for (i, (ra, ca, ba)) in all.iter().enumerate() {
        for (rb, cb, bb) in &all[i + 1..] {
            if ba.intersect(bb).is_some() {
                diags.push(
                    LintDiagnostic::error(
                        LintCode::OwnershipOverlap,
                        format!(
                            "chunk {ca} ({}) overlaps rank {rb}'s chunk {cb} ({})",
                            block_str(ba),
                            block_str(bb)
                        ),
                        "owned chunks must be mutually exclusive across all ranks",
                    )
                    .at_rank(*ra),
                );
            }
        }
    }

    let bbox = bounding_box(all.iter().map(|(_, _, b)| *b)).expect("non-empty");
    let owned_elems: u64 = all.iter().map(|(_, _, b)| b.count()).sum();
    // Only meaningful when chunks are disjoint; with overlaps the sum
    // double-counts and a hole report would be noise.
    let disjoint = !diags.iter().any(|d| d.code == LintCode::OwnershipOverlap);
    if disjoint && owned_elems != bbox.count() {
        diags.push(LintDiagnostic::error(
            LintCode::CoverageHole,
            format!(
                "owned chunks cover {owned_elems} of {} domain elements ({})",
                bbox.count(),
                block_str(&bbox)
            ),
            "the union of owned chunks must tile the full domain with no gaps",
        ));
    }

    // Need coverage per rank: elements of the needed block no chunk
    // produces are never written.
    if disjoint {
        for (r, l) in layouts.iter().enumerate() {
            let covered: u64 =
                all.iter().filter_map(|(_, _, b)| b.intersect(&l.need)).map(|b| b.count()).sum();
            if covered < l.need.count() {
                diags.push(
                    LintDiagnostic::error(
                        LintCode::CoverageHole,
                        format!(
                            "needed block {} has {} of {} elements unproduced",
                            block_str(&l.need),
                            l.need.count() - covered,
                            l.need.count()
                        ),
                        "shrink the needed block to the produced domain, or use \
                         ValidationPolicy::Relaxed if unfilled elements are intended",
                    )
                    .at_rank(r),
                );
            }
        }
    }
    diags
}

/// Lint one rank's plan in isolation. Catches internal inconsistencies —
/// the kind a hand-built or deserialized plan (see
/// [`crate::Plan::from_bytes`]) can carry even though
/// [`crate::compute_local_plan`] never produces them.
pub fn lint_plan(plan: &Plan) -> Vec<LintDiagnostic> {
    let mut diags = Vec::new();
    let rank = plan.rank;

    if plan.owned.len() > plan.rounds.len() {
        diags.push(
            LintDiagnostic::error(
                LintCode::RoundCountMismatch,
                format!(
                    "plan owns {} chunks but schedules only {} rounds",
                    plan.owned.len(),
                    plan.rounds.len()
                ),
                "the round count must be the maximum chunk count over all ranks",
            )
            .at_rank(rank),
        );
    }

    for (r, round) in plan.rounds.iter().enumerate() {
        // Sends in a round with no local chunk ship nothing meaningful.
        if !round.sends.is_empty() && plan.owned.get(r).is_none() {
            diags.push(
                LintDiagnostic::error(
                    LintCode::PhantomTransfer,
                    format!("round {r} schedules sends but the plan has no chunk {r}"),
                    "a rank only sends in rounds where it owns a chunk",
                )
                .at_rank(rank)
                .at_round(r),
            );
        }
        for (dir, transfers, container) in
            [("send", &round.sends, plan.owned.get(r)), ("recv", &round.recvs, Some(&plan.need))]
        {
            let mut seen_peers: HashMap<usize, usize> = HashMap::new();
            for t in transfers {
                if t.peer >= plan.nprocs {
                    diags.push(
                        LintDiagnostic::error(
                            LintCode::PhantomTransfer,
                            format!(
                                "{dir} targets rank {} but the communicator has {} ranks",
                                t.peer, plan.nprocs
                            ),
                            "transfer peers must be communicator-local ranks",
                        )
                        .at_rank(rank)
                        .at_round(r),
                    );
                }
                *seen_peers.entry(t.peer).or_insert(0) += 1;
                if t.subarray.elem_size != plan.elem_size {
                    diags.push(
                        LintDiagnostic::error(
                            LintCode::ElemSizeMismatch,
                            format!(
                                "{dir} to rank {} uses elem_size {} but the plan declares {}",
                                t.peer, t.subarray.elem_size, plan.elem_size
                            ),
                            "every transfer datatype must use the descriptor's element size",
                        )
                        .at_rank(rank)
                        .at_round(r),
                    );
                }
                // Subarray internal bounds (a deserialized plan bypasses the
                // Subarray constructor's checks).
                let sa = &t.subarray;
                let in_bounds = (0..sa.ndims)
                    .all(|d| sa.subsizes[d] > 0 && sa.starts[d] + sa.subsizes[d] <= sa.sizes[d]);
                if !in_bounds {
                    diags.push(
                        LintDiagnostic::error(
                            LintCode::SubarrayBounds,
                            format!(
                                "{dir} to rank {}: subarray {:?}+{:?} escapes its {:?} buffer",
                                t.peer,
                                &sa.starts[..sa.ndims],
                                &sa.subsizes[..sa.ndims],
                                &sa.sizes[..sa.ndims]
                            ),
                            "start + subsize must stay within the buffer on every axis",
                        )
                        .at_rank(rank)
                        .at_round(r),
                    );
                } else if sa.count() as u64 != t.region.count() {
                    diags.push(
                        LintDiagnostic::error(
                            LintCode::SubarrayBounds,
                            format!(
                                "{dir} to rank {}: subarray selects {} elements but region {} has {}",
                                t.peer,
                                sa.count(),
                                block_str(&t.region),
                                t.region.count()
                            ),
                            "the subarray must select exactly the transferred region",
                        )
                        .at_rank(rank)
                        .at_round(r),
                    );
                }
                // The region must lie inside the buffer-owning block.
                if let Some(holder) = container {
                    if !holder.contains(&t.region) {
                        diags.push(
                            LintDiagnostic::error(
                                LintCode::SubarrayBounds,
                                format!(
                                    "{dir} region {} is not inside this rank's {} block {}",
                                    block_str(&t.region),
                                    if dir == "send" { "owned" } else { "needed" },
                                    block_str(holder)
                                ),
                                "transfers must address data the rank actually holds",
                            )
                            .at_rank(rank)
                            .at_round(r),
                        );
                    }
                }
                if t.bytes() == 0 {
                    diags.push(
                        LintDiagnostic::warning(
                            LintCode::PhantomTransfer,
                            format!("{dir} to rank {} moves zero bytes", t.peer),
                            "drop empty transfers — they cost a datatype for nothing",
                        )
                        .at_rank(rank)
                        .at_round(r),
                    );
                }
            }
            for (peer, count) in seen_peers {
                if count > 1 {
                    diags.push(
                        LintDiagnostic::error(
                            LintCode::DuplicatePeer,
                            format!("{count} {dir}s to rank {peer} in one round"),
                            "alltoallw keeps one datatype per peer per round; merge the \
                             transfers or move one to another round",
                        )
                        .at_rank(rank)
                        .at_round(r),
                    );
                }
            }
        }
    }
    diags
}

/// Lint the full set of per-rank plans for cross-rank consistency: shape
/// agreement and per-round byte symmetry between every sender/receiver pair.
pub fn lint_plans(plans: &[Plan]) -> Vec<LintDiagnostic> {
    let mut diags = Vec::new();
    let Some(first) = plans.first() else {
        return diags;
    };
    for p in plans {
        if p.elem_size != first.elem_size {
            diags.push(
                LintDiagnostic::error(
                    LintCode::ElemSizeMismatch,
                    format!(
                        "plan declares elem_size {} but rank {}'s plan declares {}",
                        p.elem_size, first.rank, first.elem_size
                    ),
                    "producer and consumer must agree on the element size",
                )
                .at_rank(p.rank),
            );
        }
        if p.rounds.len() != first.rounds.len() {
            diags.push(
                LintDiagnostic::error(
                    LintCode::RoundCountMismatch,
                    format!(
                        "plan schedules {} rounds but rank {}'s plan schedules {}",
                        p.rounds.len(),
                        first.rank,
                        first.rounds.len()
                    ),
                    "every rank must execute the same number of alltoallw rounds",
                )
                .at_rank(p.rank),
            );
        }
    }

    // Byte symmetry: (round, src, dst) -> bytes, from both perspectives.
    let mut sent: HashMap<(usize, usize, usize), u64> = HashMap::new();
    let mut expected: HashMap<(usize, usize, usize), u64> = HashMap::new();
    for p in plans {
        for (r, round) in p.rounds.iter().enumerate() {
            for t in &round.sends {
                *sent.entry((r, p.rank, t.peer)).or_insert(0) += t.bytes();
            }
            for t in &round.recvs {
                *expected.entry((r, t.peer, p.rank)).or_insert(0) += t.bytes();
            }
        }
    }
    let mut edges: Vec<(usize, usize, usize)> =
        sent.keys().chain(expected.keys()).copied().collect();
    edges.sort_unstable();
    edges.dedup();
    for (r, src, dst) in edges {
        let s = sent.get(&(r, src, dst)).copied().unwrap_or(0);
        let e = expected.get(&(r, src, dst)).copied().unwrap_or(0);
        if s != e {
            diags.push(
                LintDiagnostic::error(
                    LintCode::ByteAsymmetry,
                    format!("rank {src} sends {s} bytes to rank {dst} but {dst} expects {e}"),
                    "sender and receiver plans must be computed from the same layouts",
                )
                .at_rank(src)
                .at_round(r),
            );
        }
    }
    diags
}

/// Predict each rank's per-round staging-buffer footprint and warn when it
/// exceeds `bound_bytes`.
///
/// The model matches the runtime's staged wire path: in a round, a rank
/// packs every outgoing transfer into pool buffers and unpacks every
/// incoming one, so its pool footprint peaks at (send bytes + recv bytes)
/// for that round. Zero-copy delivery avoids the staging entirely, but a
/// fault plan (or `DDR_NO_ZEROCOPY`) forces the staged path — a plan that
/// only fits in memory when zero-copy happens to be on is worth flagging
/// before it runs. Warning severity: the exchange executes, it just may
/// cost more transient memory than the deployment budgeted
/// (`bound_bytes`, e.g. from `DDR_LINT_STAGING_BOUND`).
pub fn lint_staging(plans: &[Plan], bound_bytes: u64) -> Vec<LintDiagnostic> {
    let mut diags = Vec::new();
    // (round, rank) -> predicted staged bytes.
    let mut staged: HashMap<(usize, usize), u64> = HashMap::new();
    for p in plans {
        for (r, round) in p.rounds.iter().enumerate() {
            let bytes: u64 = round.sends.iter().chain(round.recvs.iter()).map(|t| t.bytes()).sum();
            if bytes > 0 {
                *staged.entry((r, p.rank)).or_insert(0) += bytes;
            }
        }
    }
    let mut cells: Vec<((usize, usize), u64)> = staged.into_iter().collect();
    cells.sort_unstable();
    for ((round, rank), bytes) in cells {
        if bytes > bound_bytes {
            diags.push(
                LintDiagnostic::warning(
                    LintCode::PeakStagingExceeded,
                    format!(
                        "predicted staging footprint of {bytes} bytes exceeds the \
                         {bound_bytes}-byte bound"
                    ),
                    "split the transfers over more rounds, shrink the chunks, or raise \
                     the staging bound if the deployment can afford the memory",
                )
                .at_rank(rank)
                .at_round(round),
            );
        }
    }
    diags
}

/// Predict whether executing `plans` fits a `budget_bytes` memory-governor
/// budget (`DDR_MEM_BUDGET`), extending [`lint_staging`]'s per-rank model to
/// the whole communicator.
///
/// The model matches the runtime's governor accounting: every cross-rank
/// staged send materializes once — in the receiver's mailbox until popped —
/// and rounds run one at a time, so the global footprint peaks at the worst
/// round's summed cross-rank send bytes (self-sends are local copies and are
/// never metered). Two classes of finding:
///
/// * **error** — a single staged transfer larger than the entire budget:
///   the runtime can never admit it and fails that deposit with
///   `MemoryPressure`;
/// * **warning** — one round's global staged bytes exceed the budget:
///   senders park on the governor gate until receivers drain. The round
///   runs slower, or, if every sender of the round parks before any
///   receiver drains, fails with `MemoryPressure` after a watchdog period —
///   worth knowing about before the job runs.
///
/// A `budget_bytes` of 0 means unbudgeted (the governor only meters); no
/// diagnostics are produced.
pub fn lint_memory(plans: &[Plan], budget_bytes: u64) -> Vec<LintDiagnostic> {
    let mut diags = Vec::new();
    if budget_bytes == 0 {
        return diags;
    }
    for p in plans {
        for (r, round) in p.rounds.iter().enumerate() {
            for t in round.sends.iter().filter(|t| t.peer != p.rank) {
                if t.bytes() > budget_bytes {
                    diags.push(
                        LintDiagnostic::error(
                            LintCode::MemBudgetExceeded,
                            format!(
                                "a single {}-byte staged send to rank {} exceeds the whole \
                                 {budget_bytes}-byte memory budget",
                                t.bytes(),
                                t.peer
                            ),
                            "split the transfer over more rounds or raise DDR_MEM_BUDGET — \
                             the runtime will reject this deposit with MemoryPressure",
                        )
                        .at_rank(p.rank)
                        .at_round(r),
                    );
                }
            }
        }
    }

    // Global cross-rank staged bytes per round, then the worst round.
    let rounds = plans.iter().map(|p| p.rounds.len()).max().unwrap_or(0);
    let mut per_round = vec![0u64; rounds];
    for p in plans {
        for (r, round) in p.rounds.iter().enumerate() {
            per_round[r] +=
                round.sends.iter().filter(|t| t.peer != p.rank).map(|t| t.bytes()).sum::<u64>();
        }
    }
    let worst = (0..rounds).max_by_key(|&r| (per_round[r], std::cmp::Reverse(r)));
    if let Some(r) = worst.filter(|&r| per_round[r] > budget_bytes) {
        diags.push(
            LintDiagnostic::warning(
                LintCode::MemBudgetExceeded,
                format!(
                    "one round's global staged bytes exceed the budget: round {r} stages {} \
                     bytes across all ranks against a {budget_bytes}-byte memory budget",
                    per_round[r]
                ),
                "senders will park on the governor gate until receivers drain, and the \
                 round fails with MemoryPressure if all of them park at once; shrink the \
                 chunks or raise DDR_MEM_BUDGET",
            )
            .at_round(r),
        );
    }
    diags
}

/// Full static analysis of a mapping before execution: lint the layouts,
/// recompute every rank's plan and lint each one, then cross-check the set.
/// This is what [`ValidationPolicy::Audit`] runs inside
/// `setup_data_mapping`.
pub fn lint_mapping(desc: &Descriptor, layouts: &[Layout]) -> Vec<LintDiagnostic> {
    let mut diags = lint_layouts(layouts);
    let mut plans = Vec::with_capacity(layouts.len());
    for rank in 0..layouts.len() {
        match crate::mapping::compute_local_plan(rank, layouts, desc) {
            Ok(p) => plans.push(p),
            Err(e) => {
                diags.push(
                    LintDiagnostic::error(
                        LintCode::SubarrayBounds,
                        format!("plan computation failed: {e}"),
                        "fix the declared layouts so a plan can be computed",
                    )
                    .at_rank(rank),
                );
                return diags;
            }
        }
    }
    for p in &plans {
        diags.extend(lint_plan(p));
    }
    diags.extend(lint_plans(&plans));
    diags
}

/// Internal hook for [`ValidationPolicy::Audit`]: lint and reject on errors.
pub(crate) fn audit(desc: &Descriptor, layouts: &[Layout]) -> crate::error::Result<()> {
    let diags = lint_mapping(desc, layouts);
    if has_errors(&diags) {
        return Err(crate::error::DdrError::PlanRejected(diags));
    }
    Ok(())
}

/// Convenience: does this policy request the lint pass?
pub(crate) fn is_audit(policy: ValidationPolicy) -> bool {
    matches!(policy, ValidationPolicy::Audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DataKind;
    use crate::plan::Transfer;

    fn e1_layouts() -> Vec<Layout> {
        (0..4usize)
            .map(|rank| Layout {
                owned: vec![
                    Block::d2([0, rank], [8, 1]).unwrap(),
                    Block::d2([0, rank + 4], [8, 1]).unwrap(),
                ],
                need: Block::d2([4 * (rank % 2), 4 * (rank / 2)], [4, 4]).unwrap(),
            })
            .collect()
    }

    fn e1_desc() -> Descriptor {
        Descriptor::new(4, DataKind::D2, 4).unwrap()
    }

    fn e1_plans() -> Vec<Plan> {
        (0..4)
            .map(|r| crate::mapping::compute_local_plan(r, &e1_layouts(), &e1_desc()).unwrap())
            .collect()
    }

    #[test]
    fn clean_mapping_produces_no_diagnostics() {
        let diags = lint_mapping(&e1_desc(), &e1_layouts());
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn coverage_hole_reported_with_counts() {
        let mut ls = e1_layouts();
        ls[2].owned.pop(); // drop row 6
        let diags = lint_layouts(&ls);
        assert!(has_errors(&diags));
        let hole = diags.iter().find(|d| d.code == LintCode::CoverageHole).unwrap();
        assert!(hole.message.contains("56 of 64"), "got: {}", hole.message);
        // Ranks whose need included row 6 also get need-coverage findings.
        assert!(diags.iter().any(|d| d.code == LintCode::CoverageHole && d.rank.is_some()));
    }

    #[test]
    fn every_overlap_reported_not_just_first() {
        let mut ls = e1_layouts();
        ls[1].owned[0] = Block::d2([0, 0], [8, 1]).unwrap(); // clashes with rank 0 chunk 0
        ls[3].owned[1] = Block::d2([0, 4], [8, 1]).unwrap(); // clashes with rank 0 chunk 1
        let diags = lint_layouts(&ls);
        let overlaps = diags.iter().filter(|d| d.code == LintCode::OwnershipOverlap).count();
        assert!(overlaps >= 2, "expected both overlaps, got {diags:?}");
    }

    #[test]
    fn corrupted_elem_size_detected_per_plan_and_across_plans() {
        let mut plans = e1_plans();
        plans[1].elem_size = 8;
        // Within the corrupted plan, transfers still carry elem_size 4.
        assert!(lint_plan(&plans[1]).iter().any(|d| d.code == LintCode::ElemSizeMismatch));
        // Across plans, rank 1 disagrees with the others.
        assert!(lint_plans(&plans).iter().any(|d| d.code == LintCode::ElemSizeMismatch));
    }

    #[test]
    fn byte_asymmetry_detected_when_a_transfer_is_dropped() {
        let mut plans = e1_plans();
        // Drop a receive rank 0 is counting on.
        let victim = plans[0].rounds[0].recvs.pop().unwrap();
        let diags = lint_plans(&plans);
        let asym = diags.iter().find(|d| d.code == LintCode::ByteAsymmetry).unwrap();
        assert_eq!(asym.round, Some(0));
        assert!(asym.message.contains(&format!("rank {}", victim.peer)));
    }

    #[test]
    fn duplicate_peer_in_one_round_detected() {
        let mut plans = e1_plans();
        let dup = plans[0].rounds[0].sends[0].clone();
        plans[0].rounds[0].sends.push(dup);
        let diags = lint_plan(&plans[0]);
        assert!(diags.iter().any(|d| d.code == LintCode::DuplicatePeer));
        // The duplicate also breaks byte symmetry across plans.
        assert!(lint_plans(&plans).iter().any(|d| d.code == LintCode::ByteAsymmetry));
    }

    #[test]
    fn subarray_escaping_buffer_detected() {
        let mut plans = e1_plans();
        let t: &mut Transfer = &mut plans[0].rounds[0].sends[0];
        t.subarray.starts[0] = t.subarray.sizes[0]; // push past the end
        let diags = lint_plan(&plans[0]);
        assert!(diags.iter().any(|d| d.code == LintCode::SubarrayBounds), "got {diags:?}");
    }

    #[test]
    fn region_outside_owned_chunk_detected() {
        let mut plans = e1_plans();
        plans[0].rounds[0].sends[0].region = Block::d2([0, 7], [4, 1]).unwrap();
        let diags = lint_plan(&plans[0]);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::SubarrayBounds && d.message.contains("owned")));
    }

    #[test]
    fn round_count_mismatch_detected() {
        let mut plans = e1_plans();
        plans[2].rounds.pop();
        assert!(lint_plan(&plans[2]).iter().any(|d| d.code == LintCode::RoundCountMismatch));
        assert!(lint_plans(&plans).iter().any(|d| d.code == LintCode::RoundCountMismatch));
    }

    #[test]
    fn peer_out_of_range_detected() {
        let mut plans = e1_plans();
        plans[0].rounds[0].sends[0].peer = 99;
        assert!(lint_plan(&plans[0]).iter().any(|d| d.code == LintCode::PhantomTransfer));
    }

    #[test]
    fn staging_within_bound_is_clean() {
        // e1 peaks at 96 staged bytes: in a rank's heaviest round it packs
        // 32 B of sends and unpacks 64 B of receives.
        assert!(lint_staging(&e1_plans(), 96).is_empty());
    }

    #[test]
    fn staging_exceeding_bound_warns_per_rank_and_round() {
        let diags = lint_staging(&e1_plans(), 95);
        assert!(!diags.is_empty());
        assert!(!has_errors(&diags), "staging findings must be warnings");
        let d = &diags[0];
        assert_eq!(d.code, LintCode::PeakStagingExceeded);
        assert!(d.rank.is_some() && d.round.is_some());
        assert!(d.message.contains("95-byte bound"), "got: {}", d.message);
    }

    /// Cross-rank staged send bytes of round `r` across all plans — the
    /// quantity `lint_memory` compares against the budget.
    fn round_total(plans: &[Plan], r: usize) -> u64 {
        plans
            .iter()
            .filter_map(|p| p.rounds.get(r).map(|round| (p.rank, round)))
            .flat_map(|(rank, round)| {
                round.sends.iter().filter(move |t| t.peer != rank).map(|t| t.bytes())
            })
            .sum()
    }

    #[test]
    fn memory_within_budget_is_clean_and_unbudgeted_is_silent() {
        let plans = e1_plans();
        let worst = (0..2).map(|r| round_total(&plans, r)).max().unwrap();
        assert!(lint_memory(&plans, worst).is_empty());
        assert!(lint_memory(&plans, 0).is_empty(), "budget 0 means unbudgeted");
    }

    #[test]
    fn round_over_budget_warns_but_each_round_alone_fits() {
        let plans = e1_plans();
        let r0 = round_total(&plans, 0);
        let r1 = round_total(&plans, 1);
        assert!(r0 > 0 && r1 > 0, "e1 rounds must both move data");
        // Rounds run one at a time, so a budget admitting each round alone
        // is clean even though the two rounds together exceed it.
        assert!(lint_memory(&plans, r0.max(r1)).is_empty());
        // One byte short of the worst round warns rather than errors: the
        // round may still complete.
        let diags = lint_memory(&plans, r0.max(r1) - 1);
        let warns: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Warning).collect();
        assert_eq!(warns.len(), 1, "got {diags:?}");
        assert_eq!(warns[0].code, LintCode::MemBudgetExceeded);
        assert!(warns[0].message.contains("one round's global staged bytes"), "got: {diags:?}");
    }

    #[test]
    fn transfer_larger_than_whole_budget_is_an_error() {
        let plans = e1_plans();
        let biggest = plans
            .iter()
            .flat_map(|p| {
                p.rounds.iter().flat_map(move |r| r.sends.iter().filter(move |t| t.peer != p.rank))
            })
            .map(|t| t.bytes())
            .max()
            .unwrap();
        let diags = lint_memory(&plans, biggest - 1);
        assert!(has_errors(&diags), "an inadmissible transfer must be an error: {diags:?}");
        assert!(diags.iter().any(|d| d.code == LintCode::MemBudgetExceeded && d.rank.is_some()));
    }

    #[test]
    fn diagnostics_render_with_code_rank_round_and_hint() {
        let mut plans = e1_plans();
        plans[1].elem_size = 8;
        let d = &lint_plan(&plans[1])[0];
        let s = d.to_string();
        assert!(s.starts_with("error[elem-size-mismatch] rank 1 round 0:"), "got: {s}");
        assert!(s.contains("hint:"), "got: {s}");
    }
}
