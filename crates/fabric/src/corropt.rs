//! CorrOpt (Zhuo et al., SIGCOMM 2017) re-implemented from its published
//! description: decide which corrupting links can be disabled for repair
//! without violating the network capacity constraint.
//!
//! * **Fast checker**: when a link starts corrupting, test whether
//!   disabling it keeps every ToR in its pod at or above the constraint
//!   (the minimum fraction of valley-free paths to the spine).
//! * **Optimizer**: when repairs complete and capacity returns, greedily
//!   disable the still-corrupting links in descending loss-rate order
//!   (highest penalty first), re-checking the constraint each time.

use crate::topology::{Fabric, LinkId, LinkState};
use serde::{Deserialize, Serialize};

/// The capacity constraint: minimum fraction of ToR→spine paths every ToR
/// must keep (the paper evaluates 50% and 75%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityConstraint(pub f64);

/// CorrOpt decision engine.
#[derive(Debug)]
pub struct CorrOpt {
    /// Constraint in force.
    pub constraint: CapacityConstraint,
}

impl CorrOpt {
    /// Engine with the given constraint.
    pub fn new(constraint: CapacityConstraint) -> CorrOpt {
        CorrOpt { constraint }
    }

    /// Fast checker: can `link` be disabled right now without violating
    /// the constraint? (Only its own pod is affected: fabric links are
    /// pod-local in this topology.) Reads the pod summary; `fabric` is
    /// `&mut` only so existing callers keep compiling unchanged.
    pub fn can_disable(&self, fabric: &mut Fabric, link: LinkId) -> bool {
        fabric.link(link).state != LinkState::Disabled
            && fabric.least_paths_fraction_without(link) >= self.constraint.0 - 1e-12
    }

    /// Disable `link` for repair if the fast checker allows it. Returns
    /// true if disabled.
    pub fn try_disable(&self, fabric: &mut Fabric, link: LinkId) -> bool {
        if self.can_disable(fabric, link) {
            fabric.set_state(link, LinkState::Disabled);
            true
        } else {
            false
        }
    }

    /// Optimizer: given the still-active corrupting links, disable as many
    /// as possible in descending loss-rate order. Returns the links newly
    /// disabled.
    ///
    /// Links of different pods do not interact, so a pass over one pod's
    /// corrupting links disables what a pass over the whole fabric would
    /// disable in that pod, in the same order.
    pub fn optimize(&self, fabric: &mut Fabric, corrupting: &[(LinkId, f64)]) -> Vec<LinkId> {
        let mut by_rate = corrupting.to_vec();
        by_rate.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
        by_rate
            .into_iter()
            .map(|(link, _)| link)
            .filter(|&link| {
                matches!(fabric.link(link).state, LinkState::Corrupting { .. })
                    && self.try_disable(fabric, link)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkKind, LINKS_PER_POD};
    use lg_sim::Rng;

    fn tor_fabric_link(f: &Fabric, pod: u32, tor: u8, fab: u8) -> LinkId {
        f.pod_link_ids(pod)
            .find(|&id| {
                matches!(f.link(id).kind, LinkKind::TorFabric { tor: t, fabric: fb } if t == tor && fb == fab)
            })
            .unwrap()
    }

    #[test]
    fn single_link_always_disableable_at_75() {
        // Fig 4's "link A" scenario: one ToR-fabric link costs 48/192 = 25%
        // of one ToR's paths, leaving exactly 75%.
        let mut f = Fabric::new(1);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        let a = tor_fabric_link(&f, 0, 0, 0);
        assert!(co.can_disable(&mut f, a));
        assert!(co.try_disable(&mut f, a));
        assert_eq!(f.link(a).state, LinkState::Disabled);
    }

    #[test]
    fn second_link_on_same_tor_violates_75() {
        // Fig 4's "link B": with link A down, ToR 0 is at exactly 75%;
        // disabling a second fabric link of the same ToR would leave 50%.
        let mut f = Fabric::new(1);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        let a = tor_fabric_link(&f, 0, 0, 0);
        let b = tor_fabric_link(&f, 0, 0, 1);
        co.try_disable(&mut f, a);
        assert!(!co.can_disable(&mut f, b), "link B must stay up");
        // but a 50% constraint would allow it
        let co50 = CorrOpt::new(CapacityConstraint(0.50));
        assert!(co50.can_disable(&mut f, b));
    }

    #[test]
    fn checker_restores_state_on_failure() {
        let mut f = Fabric::new(1);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        let a = tor_fabric_link(&f, 0, 0, 0);
        f.set_state(
            a,
            LinkState::Corrupting {
                loss_rate: 1e-3,
                lg_active: false,
            },
        );
        let b = tor_fabric_link(&f, 0, 0, 1);
        f.set_state(b, LinkState::Disabled);
        assert!(!co.can_disable(&mut f, a));
        assert!(matches!(f.link(a).state, LinkState::Corrupting { .. }));
    }

    #[test]
    fn disabled_link_cannot_be_disabled_again() {
        let mut f = Fabric::new(1);
        let co = CorrOpt::new(CapacityConstraint(0.5));
        let a = tor_fabric_link(&f, 0, 0, 0);
        co.try_disable(&mut f, a);
        assert!(!co.can_disable(&mut f, a));
    }

    #[test]
    fn optimizer_prefers_worst_links() {
        let mut f = Fabric::new(1);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        // two corrupting links on the same ToR: only one can be disabled,
        // and it must be the higher-loss one
        let a = tor_fabric_link(&f, 0, 0, 0);
        let b = tor_fabric_link(&f, 0, 0, 1);
        for (id, rate) in [(a, 1e-5), (b, 1e-3)] {
            f.set_state(
                id,
                LinkState::Corrupting {
                    loss_rate: rate,
                    lg_active: false,
                },
            );
        }
        let disabled = co.optimize(&mut f, &[(a, 1e-5), (b, 1e-3)]);
        assert_eq!(disabled, vec![b], "worst link first");
        assert!(matches!(f.link(a).state, LinkState::Corrupting { .. }));
    }

    #[test]
    fn pod_scoped_pass_equals_the_global_pass() {
        // The state the simulation is in when a repair completes: every
        // corrupting link has already failed the fast checker, then one
        // pod gets a link back. Optimizing that pod's backlog alone must
        // disable the same links, in the same order, as optimizing the
        // whole fabric's backlog.
        const PODS: u32 = 4;
        let n_links = PODS * LINKS_PER_POD as u32;
        for seed in 0..20u64 {
            let mut rng = Rng::new(seed);
            let co = CorrOpt::new(CapacityConstraint(if seed % 2 == 0 { 0.75 } else { 0.5 }));
            let mut f = Fabric::new(PODS);
            let mut backlog: Vec<(LinkId, f64)> = Vec::new();
            let mut disabled: Vec<LinkId> = Vec::new();
            let mut drained = 0;
            for step in 0..1500 {
                let link = LinkId(rng.below(u64::from(n_links)) as u32);
                if f.link(link).state == LinkState::Up {
                    let loss_rate = 10f64.powf(-(3.0 + 4.0 * rng.f64()));
                    f.set_state(
                        link,
                        LinkState::Corrupting {
                            loss_rate,
                            lg_active: false,
                        },
                    );
                    if co.try_disable(&mut f, link) {
                        disabled.push(link);
                    } else {
                        backlog.push((link, loss_rate));
                    }
                }
                if step % 3 != 0 || disabled.is_empty() {
                    continue;
                }
                let repaired = disabled.swap_remove(rng.below(disabled.len() as u64) as usize);
                f.set_state(repaired, LinkState::Up);
                backlog.sort_by_key(|&(l, _)| l); // the BTreeMap order of `run`
                let pod = f.link(repaired).pod;
                let in_pod: Vec<(LinkId, f64)> = backlog
                    .iter()
                    .copied()
                    .filter(|&(l, _)| f.link(l).pod == pod)
                    .collect();
                let mut global = f.clone();
                let by_global = co.optimize(&mut global, &backlog);
                let by_pod = co.optimize(&mut f, &in_pod);
                assert_eq!(by_pod, by_global, "seed {seed} step {step}");
                for id in 0..n_links {
                    assert_eq!(f.link(LinkId(id)).state, global.link(LinkId(id)).state);
                }
                drained += by_pod.len();
                backlog.retain(|(l, _)| !by_pod.contains(l));
                disabled.extend(by_pod);
            }
            assert!(
                drained > 0,
                "seed {seed}: no repair ever freed a deferred link"
            );
        }
    }

    #[test]
    fn optimizer_disables_independent_links_everywhere() {
        let mut f = Fabric::new(2);
        let co = CorrOpt::new(CapacityConstraint(0.75));
        let a = tor_fabric_link(&f, 0, 3, 0);
        let b = tor_fabric_link(&f, 1, 7, 2);
        for id in [a, b] {
            f.set_state(
                id,
                LinkState::Corrupting {
                    loss_rate: 1e-4,
                    lg_active: false,
                },
            );
        }
        let disabled = co.optimize(&mut f, &[(a, 1e-4), (b, 1e-4)]);
        assert_eq!(disabled.len(), 2);
    }
}
