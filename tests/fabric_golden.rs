//! Golden digests of the analytic fabric engine (`lg_fabric::run`).
//!
//! Every field of [`FabricSimResult`] — sample f64 bit patterns, counts,
//! health events, guard journal — is folded into one FNV-1a hash per
//! run and compared with the value recorded before the engine was made
//! incremental per pod (the two budget-bound runs: before the health
//! roll-up, penalty sum and guardian pass were made to cost what
//! changed). An optimisation of `sim`/`corropt`/`topology`
//! must leave every digest as it is; a deliberate model change records
//! new ones (the failure message prints the full table).

use lg_fabric::{run, FabricSimConfig, FabricSimResult, Policy};
use lg_guardd::GuardConfig;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(r: &FabricSimResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(r.samples.len() as u64);
    for s in &r.samples {
        h.f64(s.t_hours);
        h.f64(s.total_penalty);
        h.f64(s.least_paths);
        h.f64(s.least_capacity);
        h.u64(u64::from(s.active_corrupting));
        h.u64(u64::from(s.disabled));
    }
    let c = r.counts;
    for v in [
        c.corruption_events,
        c.disabled_immediately,
        c.deferred,
        c.optimizer_disabled,
        c.repairs,
        u64::from(c.peak_lg_per_fabric_switch),
    ] {
        h.u64(v);
    }
    h.u64(r.health_events.len() as u64);
    for e in &r.health_events {
        h.f64(e.t_hours);
        h.u64(e.window_id);
        h.u64(u64::from(e.link));
        h.bytes(e.from.name().as_bytes());
        h.bytes(e.to.name().as_bytes());
        h.f64(e.rate);
    }
    h.u64(r.guard_journal.len() as u64);
    for line in &r.guard_journal {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    h.0
}

/// Constraints {0.50, 0.75} × seeds {3, 11}, in that order.
fn digests(policy: Policy) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut i = 0;
    for constraint in [0.50, 0.75] {
        for seed in [3, 11] {
            let r = run(&FabricSimConfig {
                pods: 20,
                horizon_hours: 24.0 * 60.0,
                constraint,
                policy,
                sample_interval_hours: 4.0,
                target_loss_rate: 1e-8,
                seed,
            });
            assert!(
                r.counts.repairs > 0 && r.counts.deferred > 0,
                "{policy:?}@{constraint} seed {seed}: the scenario must exercise the optimizer"
            );
            out[i] = digest(&r);
            i += 1;
        }
    }
    out
}

fn check(policy: Policy, expected: [u64; 4]) {
    let got = digests(policy);
    assert_eq!(
        got, expected,
        "{policy:?}: FabricSimResult digests moved; got {got:#018x?}"
    );
}

#[test]
fn corropt_only_matches_golden() {
    check(
        Policy::CorrOptOnly,
        [
            0xb89b_28d2_b27a_7132,
            0x9a86_2b65_7fdd_cb51,
            0x4681_bb54_6b0f_c335,
            0x7ce7_0e08_5211_0a01,
        ],
    );
}

#[test]
fn lg_plus_corropt_matches_golden() {
    check(
        Policy::LgPlusCorrOpt,
        [
            0xbc29_54e0_2d3f_18dd,
            0xddad_ecf1_3990_f45b,
            0x7ae3_8c54_6546_42f1,
            0xd7b8_383f_d310_ea6b,
        ],
    );
}

#[test]
fn partial_lg_matches_golden() {
    check(
        Policy::PartialLg(0.5),
        [
            0xbc29_54e0_2d3f_18dd,
            0xdb78_15c4_21b5_0251,
            0x4304_0b8e_9e8c_0f4a,
            0x6cb9_7c52_3da3_5765,
        ],
    );
}

/// An all-clear sample (no corrupting link) reports `+0.0`, not the
/// `-0.0` an empty `sum()` gives: its sign used to depend on the build
/// profile (`(-0.0f64).max(0.0)` is left open by IEEE 754).
#[test]
fn all_clear_total_penalty_is_positive_zero() {
    for policy in [Policy::CorrOptOnly, Policy::LgPlusCorrOpt] {
        let r = run(&FabricSimConfig {
            pods: 20,
            horizon_hours: 480.0,
            constraint: 0.75,
            policy,
            sample_interval_hours: 4.0,
            target_loss_rate: 1e-8,
            seed: 1,
        });
        let clear: Vec<_> = r
            .samples
            .iter()
            .filter(|s| s.active_corrupting == 0)
            .collect();
        assert!(
            !clear.is_empty(),
            "{policy:?}: the run must have an all-clear sample"
        );
        for s in clear {
            assert_eq!(
                s.total_penalty.to_bits(),
                0,
                "{policy:?} @ {} h: {:e}",
                s.t_hours,
                s.total_penalty
            );
        }
    }
}

#[test]
fn lg_guardd_matches_golden() {
    check(
        Policy::LgGuardd(GuardConfig::default()),
        [
            0x8968_3268_83e1_1d4a,
            0xc607_22ba_7d17_59dd,
            0xc8d7_7c99_c00f_33cf,
            0x3028_d7ff_26d5_8a6f,
        ],
    );
}

/// 60 pods × 30 days at hourly samples, constraint 0.75, seed 3: large
/// enough that the default guardian budget (64 links) binds, so the
/// journal holds defers with full `beat` lists and the decision pass
/// ranks a waiting pool larger than it enables from. The 20-pod cases
/// above never defer.
fn budget_bound_run(policy: Policy) -> FabricSimResult {
    run(&FabricSimConfig {
        pods: 60,
        horizon_hours: 24.0 * 30.0,
        constraint: 0.75,
        policy,
        sample_interval_hours: 1.0,
        target_loss_rate: 1e-8,
        seed: 3,
    })
}

#[test]
fn budget_bound_lg_guardd_matches_golden() {
    let r = budget_bound_run(Policy::LgGuardd(GuardConfig::default()));
    let defers: Vec<&String> = r
        .guard_journal
        .iter()
        .filter(|l| l.contains("\"action\":\"defer\""))
        .collect();
    let beaten = |l: &str| {
        l.split("\"beat\":[")
            .nth(1)
            .map_or(0, |b| b.matches('{').count())
    };
    let full_beat = defers
        .iter()
        .filter(|l| beaten(l) == lg_guardd::BEAT_CAP)
        .count();
    let defers = defers.len();
    assert!(
        defers > 0 && full_beat > 0,
        "the budget must bind: {} decisions, {defers} defers, {full_beat} with {} beaten",
        r.guard_journal.len(),
        lg_guardd::BEAT_CAP
    );
    let got = digest(&r);
    assert_eq!(
        got,
        0x9128_0ac8_98ed_0ec3,
        "digest moved; got {got:#018x} ({} decisions, {defers} defers)",
        r.guard_journal.len()
    );
}

#[test]
fn budget_bound_lg_plus_corropt_matches_golden() {
    let got = digest(&budget_bound_run(Policy::LgPlusCorrOpt));
    assert_eq!(got, 0xbc8d_238b_8fb3_57f0, "digest moved; got {got:#018x}");
}
