//! Shared prefixes: which runs of a grid fly identical seconds, and
//! where they part.
//!
//! A spec grid is `attacks × protections × seeds`, and every named
//! attack starts partway through a healthy hover (3 s, plus 6 s for the
//! second half of `hog+kill`). Runs that differ only in their attack
//! timelines therefore fly the same flight until the first onset where
//! their timelines disagree. This module names those runs and those
//! points, for the parent (which dispatches a group's runs to one
//! worker) and for the workers (which snapshot a shared prefix once and
//! fork the siblings from it):
//!
//! * a **group** is the set of runs whose [`ScenarioConfig`]s are equal
//!   once `attacks` is cleared;
//! * the **branch point** of two members is the last boundary of the
//!   workers' heartbeat-window grid before the quantum boundary where
//!   their timelines first differ. Up to there both runs are in the same
//!   state, because nothing reads a timeline entry before it fires (see
//!   `RunningScenario::set_attacks`), and a worker already cuts every
//!   run at those boundaries, so forking adds no cut of its own.
//!
//! The branch point is not one quantum before the first difference,
//! though that would share up to one more window per fork: such a fork
//! adds a cut the unforked run does not make, and a cut is not free
//! under a live flood. Cut at 6 s − 1 quantum, beside the heartbeat cut
//! at 6 s, a flood run plain-steps the one-quantum remainder that the
//! uncut span leaps, and the record's `quanta_leaped` drops by one. On
//! the grid a fork adds no cut at all.
//!
//! Forking changes no output byte: a run forked from a snapshot is
//! byte-identical to the same run flown from t = 0, which the
//! fork-equivalence test pins over the whole spec vocabulary.

use cd_bench::campaign::Variant;
use containerdrone_core::config::SCHED_QUANTUM;
use containerdrone_core::scenario::ScenarioConfig;
use containerdrone_core::AttackScript;
use sim_core::time::{SimDuration, SimTime};

/// The groups of one grid. Runs are indexed by their position in the
/// grid; groups are numbered by their lowest run, so group order
/// follows spec order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    group_of: Vec<usize>,
    members: Vec<Vec<usize>>,
    grid: SimDuration,
}

impl Groups {
    /// Groups a grid's variants; branch points fall on multiples of
    /// `grid`, the workers' heartbeat window.
    pub fn new(variants: &[Variant], grid: SimDuration) -> Groups {
        let mut keys: Vec<ScenarioConfig> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut group_of = Vec::with_capacity(variants.len());
        for (run, variant) in variants.iter().enumerate() {
            let mut key = variant.config.clone();
            key.attacks = AttackScript::none();
            let group = match keys.iter().position(|k| *k == key) {
                Some(group) => group,
                None => {
                    keys.push(key);
                    members.push(Vec::new());
                    members.len() - 1
                }
            };
            group_of.push(group);
            members[group].push(run);
        }
        Groups {
            group_of,
            members,
            grid,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for an empty grid.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The group run `run` belongs to.
    pub(crate) fn group_of(&self, run: usize) -> usize {
        self.group_of[run]
    }

    /// A group's runs, ascending.
    pub fn members(&self, group: usize) -> &[usize] {
        &self.members[group]
    }

    /// Every distinct branch point between two members of `group`,
    /// ascending.
    pub fn branch_points(&self, group: usize, variants: &[Variant]) -> Vec<SimTime> {
        let mut points: Vec<SimTime> = self
            .members(group)
            .iter()
            .flat_map(|&run| self.snapshot_points(run, variants, |_| true))
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    /// Where run `run` should hand out snapshots: for each sibling that
    /// `pending` still expects to fly, the branch point the two share,
    /// deduplicated and ascending. That is the deepest point the
    /// sibling can fork from this run.
    pub(crate) fn snapshot_points(
        &self,
        run: usize,
        variants: &[Variant],
        pending: impl Fn(usize) -> bool,
    ) -> Vec<SimTime> {
        let config = &variants[run].config;
        let mut points: Vec<SimTime> = self
            .members(self.group_of(run))
            .iter()
            .filter(|&&sibling| sibling != run && pending(sibling))
            .filter_map(|&sibling| branch_point(config, &variants[sibling].config, self.grid))
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    /// The parent's dispatch rule for an idle worker that last ran a run
    /// of group `last`, given which runs are `pending` and which groups
    /// other workers `held`: the lowest pending run of `last`; else the
    /// lowest pending run of the lowest group nobody else holds; else
    /// the lowest pending run.
    pub(crate) fn pick(
        &self,
        last: Option<usize>,
        pending: impl Fn(usize) -> bool,
        held: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let lowest = |group: usize| self.members[group].iter().copied().find(|&r| pending(r));
        last.and_then(lowest)
            .or_else(|| (0..self.len()).filter(|&g| !held(g)).find_map(lowest))
            .or_else(|| (0..self.group_of.len()).find(|&r| pending(r)))
    }
}

/// The branch point of two configurations of one group: the last
/// multiple of `grid` before the quantum boundary where their attack
/// timelines first differ. `None` when the timelines never differ, or
/// differ within the first grid window, or only after the flight ends —
/// nothing to share.
fn branch_point(a: &ScenarioConfig, b: &ScenarioConfig, grid: SimDuration) -> Option<SimTime> {
    let (ea, eb) = (a.attacks.entries(), b.attacks.entries());
    let same = ea.iter().zip(eb).take_while(|(x, y)| x == y).count();
    let first = match (ea.get(same), eb.get(same)) {
        (None, None) => return None,
        (Some(x), None) | (None, Some(x)) => x.at,
        (Some(x), Some(y)) => x.at.min(y.at),
    };
    let q = SCHED_QUANTUM.as_nanos();
    let (boundary, grid) = (first.as_nanos().div_ceil(q) * q, grid.as_nanos().max(1));
    let point = boundary.checked_sub(1)? / grid * grid;
    let end = a.duration.as_nanos().div_ceil(q) * q;
    (point > 0 && point < end).then(|| SimTime::from_nanos(point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OrchSpec;

    const WINDOW: SimDuration = SimDuration::from_millis(250);

    fn grid(text: &str) -> Vec<Variant> {
        OrchSpec::parse(text)
            .expect("spec")
            .campaign()
            .variants()
            .to_vec()
    }

    #[test]
    fn groups_are_the_attack_free_configs_in_spec_order() {
        let variants = grid(
            "duration_ms: 7000\nseeds: 1 2\nattacks: none kill hog hog+kill\nprotections: stock bare\n",
        );
        let groups = Groups::new(&variants, WINDOW);
        // attacks × protections × seeds: the four attacks of one
        // (protection, seed) pair sit 4 runs apart.
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.members(0), [0, 4, 8, 12]);
        assert_eq!(groups.members(3), [3, 7, 11, 15]);
        assert_eq!(groups.group_of(9), 1);
    }

    #[test]
    fn branch_points_are_the_last_window_boundary_before_the_first_difference() {
        let variants = grid(
            "duration_ms: 7000\nattacks: none kill hog hog+kill flood spoof\nprotections: stock\n",
        );
        let three = SimTime::from_millis(2750);
        let six = SimTime::from_millis(5750);
        let bp =
            |a: usize, b: usize| branch_point(&variants[a].config, &variants[b].config, WINDOW);
        assert_eq!(bp(0, 1), Some(three)); // none vs kill
        assert_eq!(bp(1, 2), Some(three)); // kill vs hog
        assert_eq!(bp(2, 3), Some(six)); // hog vs hog+kill
        assert_eq!(bp(3, 2), Some(six));
        assert_eq!(bp(4, 4), None); // identical timelines
        let groups = Groups::new(&variants, WINDOW);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.branch_points(0, &variants), [three, six]);
        // hog's siblings fork at 2.75 s, except hog+kill at 5.75 s.
        assert_eq!(groups.snapshot_points(2, &variants, |_| true), [three, six]);
        assert_eq!(groups.snapshot_points(2, &variants, |s| s != 3), [three]);
        assert_eq!(groups.snapshot_points(0, &variants, |_| true), [three]);
    }

    #[test]
    fn flights_that_end_before_the_first_onset_share_nothing() {
        let variants = grid("duration_ms: 900\nattacks: none kill\nprotections: stock\n");
        let groups = Groups::new(&variants, WINDOW);
        assert_eq!(groups.len(), 1);
        assert!(groups.branch_points(0, &variants).is_empty());
        // An onset inside the first window leaves nothing to share either.
        let early = |at_ms: u64| {
            let mut config = variants[0].config.clone();
            config.attacks = AttackScript::single(
                SimTime::from_millis(at_ms),
                attacks::AttackEvent::KillComplex,
            );
            config
        };
        assert_eq!(branch_point(&variants[0].config, &early(250), WINDOW), None);
        assert_eq!(
            branch_point(&variants[0].config, &early(251), WINDOW),
            Some(SimTime::from_millis(250))
        );
    }

    #[test]
    fn pick_prefers_the_last_group_then_an_unheld_one_then_any() {
        let variants = grid("duration_ms: 7000\nseeds: 1 2 3\nattacks: none kill\n");
        let groups = Groups::new(&variants, WINDOW); // {0,3} {1,4} {2,5}
        let all = |_: usize| true;
        let nobody = |_: usize| false;
        assert_eq!(groups.pick(None, all, nobody), Some(0));
        assert_eq!(groups.pick(Some(1), all, nobody), Some(1));
        assert_eq!(groups.pick(Some(1), |r| r != 1, nobody), Some(4));
        // Group 0 is held elsewhere: take the lowest unheld group.
        assert_eq!(groups.pick(None, all, |g| g == 0), Some(1));
        // Every group with pending work is held: the lowest pending run.
        assert_eq!(groups.pick(None, |r| r == 5, |_| true), Some(5));
        assert_eq!(groups.pick(Some(0), |_| false, nobody), None);
    }
}
