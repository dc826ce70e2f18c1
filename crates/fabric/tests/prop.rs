//! Property tests for the fabric partitioner and the per-pod summaries
//! of [`Fabric`].
//!
//! `partition()` counts cut edges with closed-form shortcuts (whole-pod
//! skips, per-column shard histograms) so paper-scale counting stays
//! cheap. This file pins that arithmetic to a brute-force recount: for
//! arbitrary geometries and shard counts, enumerate every forwarding
//! adjacency a packet route can traverse and count the pairs whose two
//! links land in different shards. Any drift between the fast counter
//! and the enumeration — or between the arithmetic [`PartitionMap`] and
//! the materialized table — fails here long before it corrupts a
//! layout report.
//!
//! `Fabric::set_state` likewise keeps running per-pod summaries (uplink
//! counts, ToR masks, non-`Up` count, dirty flag) that the analytic
//! engine reads instead of scanning 384 links; the last property pins
//! them to a brute-force scan of `pod_links`.

use std::collections::BTreeSet;

use lg_fabric::topology::{FABRICS_PER_POD, LINKS_PER_POD, PATHS_PER_TOR, TORS_PER_POD};
use lg_fabric::{partition, Fabric, Link, LinkId, LinkKind, LinkState, PodGeom};
use proptest::prelude::*;

/// Every forwarding adjacency of the packet engine's route shapes, as
/// unordered link-id pairs (see `count_cuts` in `partition.rs`):
/// same-pod ToR↔ToR transit per plane, intra-pod ToR↔spine fan-out,
/// and cross-pod spine transit per (fabric, spine) column.
fn route_adjacencies(g: &PodGeom) -> BTreeSet<(u32, u32)> {
    let mut pairs = BTreeSet::new();
    let mut add = |a: u32, b: u32| {
        pairs.insert((a.min(b), a.max(b)));
    };
    for pod in 0..g.pods {
        for f in 0..g.fabrics {
            for t in 0..g.tors {
                let up = g.tor_fabric(pod, t, f);
                for t2 in t + 1..g.tors {
                    add(up, g.tor_fabric(pod, t2, f));
                }
                for s in 0..g.uplinks {
                    add(up, g.fabric_spine(pod, f, s));
                }
            }
        }
    }
    for f in 0..g.fabrics {
        for s in 0..g.uplinks {
            for a in 0..g.pods {
                for b in a + 1..g.pods {
                    add(g.fabric_spine(a, f, s), g.fabric_spine(b, f, s));
                }
            }
        }
    }
    pairs
}

/// The pre-summary `least_paths_fraction_in_pod`: match every link of
/// the pod, treating `without` (if any) as `Disabled`.
fn scan_least_paths(f: &Fabric, pod: u32, without: Option<LinkId>) -> f64 {
    let mut upcount = [0u32; FABRICS_PER_POD];
    let mut tor_up = [[false; FABRICS_PER_POD]; TORS_PER_POD];
    for (id, l) in f.pod_link_ids(pod).zip(f.pod_links(pod)) {
        let up = l.state != LinkState::Disabled && Some(id) != without;
        match l.kind {
            LinkKind::FabricSpine { fabric, .. } => upcount[fabric as usize] += u32::from(up),
            LinkKind::TorFabric { tor, fabric } => tor_up[tor as usize][fabric as usize] = up,
        }
    }
    let min_paths = tor_up
        .iter()
        .map(|tor| {
            (0..FABRICS_PER_POD)
                .map(|f| if tor[f] { upcount[f] } else { 0 })
                .sum::<u32>()
        })
        .min()
        .expect("a pod has ToRs");
    f64::from(min_paths) / PATHS_PER_TOR as f64
}

fn speed(l: &Link) -> f64 {
    match l.state {
        LinkState::Up => 1.0,
        LinkState::Disabled => 0.0,
        LinkState::Corrupting { lg_active, .. } => {
            if lg_active {
                0.92
            } else {
                1.0
            }
        }
    }
}

proptest! {
    /// After any `set_state` sequence the summaries read what a scan of
    /// `pod_links` reads, and a sampler that recomputes only the pods
    /// `take_dirty` reports holds the same pairs as one that rescans
    /// every pod (no change is ever missed).
    #[test]
    fn pod_summaries_match_brute_force_scan(
        ops in proptest::collection::vec(
            (0u32..3 * LINKS_PER_POD as u32, 0u8..4, any::<bool>()),
            1..400,
        ),
    ) {
        const PODS: u32 = 3;
        let mut f = Fabric::new(PODS);
        let mut cached = vec![(1.0f64, 1.0f64); PODS as usize];
        for (link, code, sample) in ops {
            let id = LinkId(link);
            f.set_state(id, match code {
                0 => LinkState::Up,
                1 => LinkState::Disabled,
                _ => LinkState::Corrupting { loss_rate: 1e-4, lg_active: code == 3 },
            });
            let pod = f.link(id).pod;
            prop_assert_eq!(f.least_paths_fraction_in_pod(pod), scan_least_paths(&f, pod, None));
            prop_assert_eq!(
                f.least_paths_fraction_without(id),
                scan_least_paths(&f, pod, Some(id))
            );
            let non_up = f.pod_links(pod).iter().filter(|l| l.state != LinkState::Up).count();
            prop_assert_eq!(f.pod_non_up(pod) as usize, non_up);
            if !sample {
                continue;
            }
            for pod in 0..PODS {
                if f.take_dirty(pod) {
                    cached[pod as usize] =
                        (f.least_paths_fraction_in_pod(pod), f.pod_capacity_fraction(pod, speed));
                }
                let rescanned =
                    (scan_least_paths(&f, pod, None), f.pod_capacity_fraction(pod, speed));
                prop_assert_eq!(cached[pod as usize], rescanned, "pod {}", pod);
                prop_assert!(!f.take_dirty(pod), "take_dirty clears the flag");
            }
        }
    }

    /// The fast cut counter equals a brute-force recount of the route
    /// adjacency, and the arithmetic map equals the table, at any
    /// geometry and shard count (spanning all three granularities).
    #[test]
    fn cut_edges_match_brute_force_recount(
        pods in 1u32..=6,
        tors in 2u32..=6,
        fabrics in 1u32..=3,
        uplinks in 1u32..=4,
        shards in 1u32..=40,
    ) {
        let g = PodGeom { pods, tors, fabrics, uplinks };
        let p = partition(&g, shards);

        let pairs = route_adjacencies(&g);
        prop_assert_eq!(pairs.len() as u64, p.total_edges, "total adjacency count");

        let cut = pairs
            .iter()
            .filter(|&&(a, b)| {
                p.shard_of_link[a as usize] != p.shard_of_link[b as usize]
            })
            .count() as u64;
        prop_assert_eq!(cut, p.cut_edges, "cut count (granularity {:?})", p.map.granularity());

        for l in 0..g.n_links() {
            prop_assert_eq!(p.map.shard_of(l), p.shard_of_link[l as usize]);
        }
        prop_assert_eq!(
            p.links_per_shard.iter().sum::<u32>(),
            g.n_links(),
            "assignment covers every link"
        );
    }

    /// Pod spans stay contiguous at every granularity — the invariant
    /// the packet engine's pod-span slabs are built on.
    #[test]
    fn pod_spans_are_contiguous(
        pods in 1u32..=6,
        tors in 2u32..=5,
        fabrics in 1u32..=3,
        uplinks in 1u32..=3,
        shards in 1u32..=48,
    ) {
        let g = PodGeom { pods, tors, fabrics, uplinks };
        let p = partition(&g, shards);
        for s in 0..p.shards {
            let owned_pods: Vec<u32> = (0..g.n_links())
                .filter(|&l| p.shard_of_link[l as usize] == s)
                .map(|l| g.pod_of(l))
                .collect();
            prop_assert!(!owned_pods.is_empty(), "shard {} owns nothing", s);
            prop_assert!(
                owned_pods.windows(2).all(|w| w[0] <= w[1]),
                "shard {} pods not monotone", s
            );
        }
    }
}
