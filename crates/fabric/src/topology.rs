//! The Facebook datacenter fabric topology (Andreyev 2014, paper Fig 4).
//!
//! Each pod has 48 top-of-rack (ToR) switches connected to 4 fabric
//! switches; each fabric switch has 48 uplinks into its spine plane. A
//! ToR therefore has 4 × 48 = 192 valley-free paths to the spine layer.
//! With 260 pods the network has 260 × (192 + 192) = 99,840 switch-to-
//! switch optical links — the "about 100K links" of §4.8. All links are
//! 100 G with 1:1 oversubscription.

use serde::{Deserialize, Serialize};

/// ToRs per pod.
pub const TORS_PER_POD: usize = 48;
/// Fabric switches per pod.
pub const FABRICS_PER_POD: usize = 4;
/// Spine uplinks per fabric switch.
pub const UPLINKS_PER_FABRIC: usize = 48;
/// Paths from each ToR to the spine layer.
pub const PATHS_PER_TOR: usize = FABRICS_PER_POD * UPLINKS_PER_FABRIC; // 192
/// Links per pod (ToR↔fabric + fabric↔spine).
pub const LINKS_PER_POD: usize =
    TORS_PER_POD * FABRICS_PER_POD + FABRICS_PER_POD * UPLINKS_PER_FABRIC;

/// Identifier of a link in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Where a link sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkKind {
    /// ToR `tor` ↔ fabric switch `fabric` within a pod.
    TorFabric {
        /// ToR index within the pod (0..48).
        tor: u8,
        /// Fabric switch index (0..4).
        fabric: u8,
    },
    /// Fabric switch `fabric` ↔ spine switch `spine` of its plane.
    FabricSpine {
        /// Fabric switch index (0..4).
        fabric: u8,
        /// Spine switch index within the plane (0..48).
        spine: u8,
    },
}

/// A link's operational state in the maintenance simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkState {
    /// Healthy and carrying traffic.
    Up,
    /// Corrupting at the given loss rate, still carrying traffic.
    Corrupting {
        /// Frame loss rate.
        loss_rate: f64,
        /// True when LinkGuardian is masking the corruption.
        lg_active: bool,
    },
    /// Disabled and awaiting repair.
    Disabled,
}

/// One link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Link {
    /// Owning pod.
    pub pod: u32,
    /// Position within the pod.
    pub kind: LinkKind,
    /// Current state.
    pub state: LinkState,
}

/// Running per-pod summary of link states, kept current by
/// [`Fabric::set_state`] so path counts read 48×4 numbers instead of
/// matching 384 links.
#[derive(Debug, Clone)]
struct PodSummary {
    /// Spine uplinks not `Disabled`, per fabric switch.
    spine_up: [u8; FABRICS_PER_POD],
    /// Per ToR: bit `f` is set while its link to fabric switch `f` is
    /// not `Disabled`.
    tor_up: [u8; TORS_PER_POD],
    /// Links in any state other than `Up`.
    non_up: u16,
    /// Bit `i` (word `i / 64`, bit `i % 64`) is set while the pod's
    /// `i`-th link is not `Up`: the capacity fold visits only these.
    not_up: [u64; LINKS_PER_POD / 64],
    /// A link of the pod changed state since [`Fabric::take_dirty`].
    dirty: bool,
}

impl PodSummary {
    fn least_paths_fraction(&self) -> f64 {
        let min_paths = self
            .tor_up
            .iter()
            .map(|&mask| {
                (0..FABRICS_PER_POD)
                    .map(|f| u32::from((mask >> f) & 1) * u32::from(self.spine_up[f]))
                    .sum::<u32>()
            })
            .min()
            .expect("a pod has ToRs");
        f64::from(min_paths) / PATHS_PER_TOR as f64
    }

    /// Account for one link going `Disabled` (`up == false`) or coming
    /// back from it.
    fn set_link_up(&mut self, kind: LinkKind, up: bool) {
        match kind {
            LinkKind::FabricSpine { fabric, .. } if up => self.spine_up[fabric as usize] += 1,
            LinkKind::FabricSpine { fabric, .. } => self.spine_up[fabric as usize] -= 1,
            LinkKind::TorFabric { tor, fabric } if up => self.tor_up[tor as usize] |= 1 << fabric,
            LinkKind::TorFabric { tor, fabric } => self.tor_up[tor as usize] &= !(1 << fabric),
        }
    }
}

/// The whole fabric.
#[derive(Debug, Clone)]
pub struct Fabric {
    /// Number of pods.
    pub pods: u32,
    links: Vec<Link>,
    summaries: Vec<PodSummary>,
}

impl Fabric {
    /// Build a fabric with `pods` pods.
    pub fn new(pods: u32) -> Fabric {
        let mut links = Vec::with_capacity(pods as usize * LINKS_PER_POD);
        for pod in 0..pods {
            for tor in 0..TORS_PER_POD as u8 {
                for fabric in 0..FABRICS_PER_POD as u8 {
                    links.push(Link {
                        pod,
                        kind: LinkKind::TorFabric { tor, fabric },
                        state: LinkState::Up,
                    });
                }
            }
            for fabric in 0..FABRICS_PER_POD as u8 {
                for spine in 0..UPLINKS_PER_FABRIC as u8 {
                    links.push(Link {
                        pod,
                        kind: LinkKind::FabricSpine { fabric, spine },
                        state: LinkState::Up,
                    });
                }
            }
        }
        let nominal = PodSummary {
            spine_up: [UPLINKS_PER_FABRIC as u8; FABRICS_PER_POD],
            tor_up: [(1 << FABRICS_PER_POD) - 1; TORS_PER_POD],
            non_up: 0,
            not_up: [0; LINKS_PER_POD / 64],
            dirty: false,
        };
        Fabric {
            pods,
            links,
            summaries: vec![nominal; pods as usize],
        }
    }

    /// The ~100K-link instance of §4.8.
    pub fn paper_scale() -> Fabric {
        Fabric::new(260)
    }

    /// Total number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Access a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Mutate a link's state (the only mutator: it keeps the pod's
    /// summary current and marks the pod dirty).
    pub fn set_state(&mut self, id: LinkId, state: LinkState) {
        let link = &mut self.links[id.0 as usize];
        let pod = &mut self.summaries[link.pod as usize];
        let up = state != LinkState::Disabled;
        if up != (link.state != LinkState::Disabled) {
            pod.set_link_up(link.kind, up);
        }
        pod.non_up += u16::from(state != LinkState::Up);
        pod.non_up -= u16::from(link.state != LinkState::Up);
        let i = id.0 as usize % LINKS_PER_POD;
        let bit = 1u64 << (i % 64);
        if state == LinkState::Up {
            pod.not_up[i / 64] &= !bit;
        } else {
            pod.not_up[i / 64] |= bit;
        }
        pod.dirty = true;
        link.state = state;
    }

    /// Number of links of `pod` in any state other than `Up`.
    pub fn pod_non_up(&self, pod: u32) -> u32 {
        u32::from(self.summaries[pod as usize].non_up)
    }

    /// Whether any link of `pod` had its state set since the last call;
    /// clears the flag. Lets a sampler keep per-pod results and redo
    /// only the pods that changed.
    pub fn take_dirty(&mut self, pod: u32) -> bool {
        std::mem::take(&mut self.summaries[pod as usize].dirty)
    }

    /// Iterate all links of one pod.
    pub fn pod_links(&self, pod: u32) -> &[Link] {
        let start = pod as usize * LINKS_PER_POD;
        &self.links[start..start + LINKS_PER_POD]
    }

    /// Link ids of one pod.
    pub fn pod_link_ids(&self, pod: u32) -> impl Iterator<Item = LinkId> {
        let start = pod * LINKS_PER_POD as u32;
        (start..start + LINKS_PER_POD as u32).map(LinkId)
    }

    /// Fraction of spine paths still available for the worst ToR of `pod`,
    /// counting Disabled links as lost paths (corrupting-but-active links
    /// still carry traffic).
    pub fn least_paths_fraction_in_pod(&self, pod: u32) -> f64 {
        self.summaries[pod as usize].least_paths_fraction()
    }

    /// What [`Fabric::least_paths_fraction_in_pod`] would read for
    /// `id`'s pod with `id` `Disabled`; nothing is changed.
    pub fn least_paths_fraction_without(&self, id: LinkId) -> f64 {
        let link = self.link(id);
        let mut pod = self.summaries[link.pod as usize].clone();
        if link.state != LinkState::Disabled {
            pod.set_link_up(link.kind, false);
        }
        pod.least_paths_fraction()
    }

    /// Pod uplink capacity fraction: effective capacity of the pod's links
    /// (ToR→spine, both tiers) relative to nominal. `effective_speed`
    /// gives a link's speed fraction (e.g. the Fig 8 lookup for
    /// LinkGuardian-enabled links); Disabled links contribute zero.
    ///
    /// An `Up` link counts exactly 1.0: `effective_speed` is called only
    /// for the pod's other links. The result has the bits of the left
    /// fold `pod_links(pod).iter().map(speed).sum()` (with `speed` giving
    /// 1.0 for `Up`), but the runs of `Up` links between two others are
    /// added by [`add_ones`], so the cost follows the non-`Up` links.
    pub fn pod_capacity_fraction(&self, pod: u32, effective_speed: impl Fn(&Link) -> f64) -> f64 {
        let links = self.pod_links(pod);
        // -0.0, the neutral element `Iterator::sum` starts from.
        let mut total = -0.0;
        let mut next = 0;
        for (w, &word) in self.summaries[pod as usize].not_up.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                total = add_ones(total, i - next) + effective_speed(&links[i]);
                next = i + 1;
            }
        }
        add_ones(total, LINKS_PER_POD - next) / LINKS_PER_POD as f64
    }
}

/// `s` after `k` sequential `s += 1.0`, bit for bit.
///
/// For `1 <= s < 2^53`, 1.0 is a multiple of `ulp(s)`, so `s + 1.0` is
/// exact while it stays below the next power of two: a run of steps up
/// to that edge is one exact add. Only the step that crosses the edge
/// can round, and it is taken as the single `+ 1.0` the sequential fold
/// takes. Below 1.0 (and out of that range) steps go one at a time.
pub fn add_ones(mut s: f64, mut k: usize) -> f64 {
    while k > 0 {
        if (1.0..9_007_199_254_740_992.0).contains(&s) {
            // The power of two above `s`; `edge - s` is exact (Sterbenz)
            // and `s + j` is exact for every whole `j <= edge - s`.
            let edge = f64::from_bits(((s.to_bits() >> 52) + 1) << 52);
            let run = ((edge - s) as usize).min(k);
            s += run as f64;
            k -= run;
            if k == 0 {
                break;
            }
        }
        s += 1.0;
        k -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_about_100k_links() {
        let f = Fabric::paper_scale();
        assert_eq!(f.n_links(), 99_840);
        assert_eq!(LINKS_PER_POD, 384);
        assert_eq!(PATHS_PER_TOR, 192);
    }

    #[test]
    fn healthy_pod_has_full_paths_and_capacity() {
        let f = Fabric::new(2);
        assert_eq!(f.least_paths_fraction_in_pod(0), 1.0);
        assert_eq!(f.pod_capacity_fraction(0, |_| 1.0), 1.0);
    }

    #[test]
    fn disabling_one_tor_fabric_link_costs_48_paths() {
        let mut f = Fabric::new(1);
        // find the link (tor 0, fabric 0)
        let id = f
            .pod_link_ids(0)
            .find(|&id| matches!(f.link(id).kind, LinkKind::TorFabric { tor: 0, fabric: 0 }))
            .unwrap();
        f.set_state(id, LinkState::Disabled);
        // ToR 0 loses one fabric switch = 48 of 192 paths
        let frac = f.least_paths_fraction_in_pod(0);
        assert!((frac - 144.0 / 192.0).abs() < 1e-12, "{frac}");
    }

    #[test]
    fn disabling_one_spine_link_costs_one_path_for_every_tor() {
        let mut f = Fabric::new(1);
        let id = f
            .pod_link_ids(0)
            .find(|&id| {
                matches!(
                    f.link(id).kind,
                    LinkKind::FabricSpine {
                        fabric: 1,
                        spine: 7
                    }
                )
            })
            .unwrap();
        f.set_state(id, LinkState::Disabled);
        let frac = f.least_paths_fraction_in_pod(0);
        assert!((frac - 191.0 / 192.0).abs() < 1e-12, "{frac}");
    }

    #[test]
    fn corrupting_links_still_carry_paths() {
        let mut f = Fabric::new(1);
        let id = LinkId(0);
        f.set_state(
            id,
            LinkState::Corrupting {
                loss_rate: 1e-3,
                lg_active: false,
            },
        );
        assert_eq!(f.least_paths_fraction_in_pod(0), 1.0);
    }

    #[test]
    fn capacity_reflects_effective_speed() {
        let mut f = Fabric::new(1);
        f.set_state(
            LinkId(3),
            LinkState::Corrupting {
                loss_rate: 1e-3,
                lg_active: true,
            },
        );
        let cap = f.pod_capacity_fraction(0, |l| match l.state {
            LinkState::Corrupting {
                lg_active: true, ..
            } => 0.92,
            LinkState::Disabled => 0.0,
            _ => 1.0,
        });
        let expect = (383.0 + 0.92) / 384.0;
        assert!((cap - expect).abs() < 1e-12);
    }
}
