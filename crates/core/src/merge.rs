//! The global site's merge state for localized execution.
//!
//! BL, PL, and the per-site hybrid all end the same way: every hosting
//! site's `LocalEval` reply is folded into one accumulator, the merged
//! rows are certified once, and maybe rows touched by a failure are
//! re-tagged [`Provenance::Degraded`]. [`LocalizedMerge`] is that
//! accumulator. The actor runtime's orchestrator (`fedoq-net`'s
//! `execute_plan`, which the concurrent scheduler also runs) folds each
//! reply in as it completes and certifies through this code once — which
//! is what makes a distributed or scheduled query's answer
//! byte-identical to a serial run of the same plan.
//!
//! The accumulator is also where replan soundness is enforced
//! structurally: a site merges **at most once**. A mid-flight replan that
//! re-dispatches a site whose reply is already merged would certify the
//! same verdicts twice; [`LocalizedMerge::record_site`] refuses the
//! second merge (and `fedoq-check`'s FQ307 lint rejects such replans
//! statically, before they run).

use crate::certify::{certify, CheckReplies};
use crate::federation::Federation;
use crate::localized::{CheckVerdict, LocalRow, TargetReplies};
use crate::result::{Provenance, QueryAnswer};
use fedoq_object::{DbId, GOid, LOid, Value};
use fedoq_query::{BoundQuery, PredId};
use fedoq_sim::Simulation;
use std::collections::{BTreeSet, HashSet};

/// Accumulates per-site `LocalEval` results and certifies them once.
///
/// Sites are recorded either as a success ([`record_site`]) or as a loss
/// ([`record_site_loss`]); each site merges at most once, whichever
/// outcome lands first. [`finish`] performs certification and the
/// degraded re-tag and consumes the accumulator, so double-certification
/// is unrepresentable.
///
/// [`record_site`]: LocalizedMerge::record_site
/// [`record_site_loss`]: LocalizedMerge::record_site_loss
/// [`finish`]: LocalizedMerge::finish
#[derive(Debug, Default)]
pub struct LocalizedMerge {
    site_rows: Vec<(DbId, Vec<LocalRow>)>,
    replies: CheckReplies,
    target_replies: TargetReplies,
    failed_checks: HashSet<(LOid, PredId)>,
    degraded: BTreeSet<DbId>,
    queried_dbs: Vec<DbId>,
    merged: BTreeSet<DbId>,
}

impl LocalizedMerge {
    /// An empty accumulator.
    pub fn new() -> LocalizedMerge {
        LocalizedMerge::default()
    }

    /// `true` iff `site`'s outcome (success or loss) is already merged.
    pub fn is_merged(&self, site: DbId) -> bool {
        self.merged.contains(&site)
    }

    /// The sites merged so far, ascending.
    pub fn merged_sites(&self) -> Vec<DbId> {
        self.merged.iter().copied().collect()
    }

    /// Folds one site's successful `LocalEval` reply in.
    ///
    /// Returns `false` — and merges nothing — when the site was already
    /// recorded: a late duplicate (e.g. the original reply of a
    /// replanned-away dispatch) must not contribute verdicts twice.
    #[allow(clippy::too_many_arguments)]
    pub fn record_site(
        &mut self,
        site: DbId,
        rows: Vec<LocalRow>,
        verdicts: Vec<CheckVerdict>,
        target_values: Vec<((LOid, usize), Value)>,
        failed_checks: Vec<(LOid, PredId)>,
        degraded_peers: Vec<DbId>,
    ) -> bool {
        if !self.merged.insert(site) {
            return false;
        }
        self.queried_dbs.push(site);
        for v in verdicts {
            self.replies.record(v.item, v.pred, v.verdict);
        }
        for (key, value) in target_values {
            self.target_replies.entry(key).or_default().push(value);
        }
        self.failed_checks.extend(failed_checks);
        self.degraded.extend(degraded_peers);
        self.site_rows.push((site, rows));
        true
    }

    /// Records a site whose whole `LocalEval` failed: no absence
    /// elimination against it, every entity with a copy there degrades.
    ///
    /// Returns `false` when the site was already recorded.
    pub fn record_site_loss(&mut self, site: DbId) -> bool {
        if !self.merged.insert(site) {
            return false;
        }
        self.degraded.insert(site);
        true
    }

    /// The sites marked degraded so far, ascending.
    pub fn degraded_sites(&self) -> Vec<DbId> {
        self.degraded.iter().copied().collect()
    }

    /// Certifies the merged results and re-tags maybe rows touched by a
    /// failure, consuming the accumulator.
    ///
    /// Returns the answer and the degraded sites (ascending). Certain
    /// rows are never re-tagged: isomeric copies are consistent, so data
    /// already certified cannot be contradicted by whatever a dead site
    /// holds.
    pub fn finish(
        mut self,
        fed: &Federation,
        query: &BoundQuery,
        sim: &mut Simulation,
    ) -> (QueryAnswer, Vec<DbId>) {
        // Canonicalise merge order. Sites are recorded in reply
        // *completion* order (the actor orchestrator merges whichever
        // site answers first); certification groups rows in `site_rows`
        // order, so sort both site-ordered inputs ascending to make the
        // answer independent of arrival order.
        self.site_rows.sort_by_key(|(site, _)| *site);
        self.queried_dbs.sort_unstable();

        // Entities whose certification is incomplete: a row with an
        // unsolved item whose assistant lookup went unanswered.
        let mut degraded_goids: HashSet<GOid> = HashSet::new();
        for (_, rows) in &self.site_rows {
            for row in rows {
                let hit = row.unsolved.iter().any(|entry| {
                    entry
                        .item
                        .is_some_and(|item| self.failed_checks.contains(&(item, entry.pred)))
                });
                if hit {
                    degraded_goids.insert(row.goid);
                }
            }
        }

        let answer = certify(
            fed,
            query,
            self.site_rows,
            &self.replies,
            &self.target_replies,
            &self.queried_dbs,
            sim,
        );

        let table = fed.catalog().table(query.range());
        let maybe = answer
            .maybe()
            .iter()
            .map(|m| {
                let touched = degraded_goids.contains(&m.goid())
                    || table
                        .loids_of(m.goid())
                        .iter()
                        .any(|l| self.degraded.contains(&l.db()));
                if touched {
                    m.clone().with_provenance(Provenance::Degraded)
                } else {
                    m.clone()
                }
            })
            .collect();
        let answer = QueryAnswer::new(answer.certain().to_vec(), maybe);
        (answer, self.degraded.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_site_merges_at_most_once() {
        let mut merge = LocalizedMerge::new();
        let site = DbId::new(1);
        assert!(merge.record_site(site, vec![], vec![], vec![], vec![], vec![]));
        assert!(!merge.record_site(site, vec![], vec![], vec![], vec![], vec![]));
        assert!(!merge.record_site_loss(site));
        assert!(merge.is_merged(site));
        assert_eq!(merge.merged_sites(), vec![site]);
        // The duplicate success after the first merge did not mark the
        // site degraded.
        assert!(merge.degraded_sites().is_empty());
    }

    #[test]
    fn a_lost_site_is_degraded_and_merges_once() {
        let mut merge = LocalizedMerge::new();
        let site = DbId::new(2);
        assert!(merge.record_site_loss(site));
        assert!(!merge.record_site(site, vec![], vec![], vec![], vec![], vec![]));
        assert_eq!(merge.degraded_sites(), vec![site]);
    }
}
