//! Property tests for admission control (vendored proptest shim): the
//! three contracts the policy advertises must hold for *every*
//! configuration, not just the defaults —
//!
//! 1. below the target utilization nothing is ever shed;
//! 2. shed/rejection probabilities are monotone nondecreasing in the
//!    offered load (checked both analytically and as a coupling over
//!    common random numbers);
//! 3. the `TraceStats` counters conserve jobs:
//!    `accepted + rejected + deferred == submitted`.

use gtlb_runtime::{
    AdmissionConfig, AdmissionPolicy, AdmissionVerdict, Runtime, SchemeKind, TraceConfig,
    TraceDriver,
};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = AdmissionPolicy> {
    (0.05f64..0.95, 0.0f64..0.5).prop_map(|(target_utilization, defer_band)| {
        AdmissionPolicy::new(AdmissionConfig { target_utilization, defer_band })
            .expect("generated config is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn below_target_nothing_is_shed(
        policy in arb_policy(),
        rho_frac in 0.0f64..1.0,
        u in 0.0f64..1.0,
    ) {
        // Any offered load at or below the target is admitted for any
        // draw: the rejection (and defer) rate below threshold is zero.
        let rho = rho_frac * policy.config().target_utilization;
        prop_assert_eq!(policy.shed_probability(rho), 0.0);
        prop_assert_eq!(policy.rejection_probability(rho), 0.0);
        prop_assert_eq!(policy.verdict(rho, u), AdmissionVerdict::Accept);
    }

    #[test]
    fn shed_and_rejection_probabilities_are_monotone(
        policy in arb_policy(),
        rho_a in 0.0f64..3.0,
        rho_b in 0.0f64..3.0,
    ) {
        let (lo, hi) = if rho_a <= rho_b { (rho_a, rho_b) } else { (rho_b, rho_a) };
        prop_assert!(policy.shed_probability(lo) <= policy.shed_probability(hi));
        prop_assert!(policy.rejection_probability(lo) <= policy.rejection_probability(hi));
        // Rejection never exceeds shedding, and both stay in [0, 1).
        for rho in [lo, hi] {
            let shed = policy.shed_probability(rho);
            let rej = policy.rejection_probability(rho);
            prop_assert!((0.0..1.0).contains(&shed));
            prop_assert!(rej <= shed);
        }
    }

    #[test]
    fn verdicts_couple_monotonically_over_common_draws(
        policy in arb_policy(),
        rho_a in 0.0f64..3.0,
        rho_b in 0.0f64..3.0,
        u in 0.0f64..1.0,
    ) {
        // With a common random number, raising the offered load can only
        // make a job's fate worse (Accept → Defer/Reject → Reject), never
        // better — the verdict is monotone in ρ pointwise in u.
        let (lo, hi) = if rho_a <= rho_b { (rho_a, rho_b) } else { (rho_b, rho_a) };
        let severity = |v: AdmissionVerdict| match v {
            AdmissionVerdict::Accept => 0,
            AdmissionVerdict::Defer => 1,
            AdmissionVerdict::Reject => 2,
        };
        let v_lo = policy.verdict(lo, u);
        let v_hi = policy.verdict(hi, u);
        // Defer vs Reject flips only across the band edge; both are shed.
        // Accept, though, may never reappear at higher load.
        prop_assert!(
            severity(v_hi) > 0 || severity(v_lo) == 0,
            "load {lo} -> {hi} improved verdict {v_lo:?} -> {v_hi:?} at u {u}"
        );
    }
}

proptest! {
    // The closed-loop cases run a real runtime + driver; fewer, larger
    // cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trace_stats_counts_are_conserved(
        target_utilization in 0.3f64..0.9,
        defer_band in 0.0f64..0.2,
        offered_rho in 0.2f64..1.5,
        rates in prop::collection::vec(0.5f64..4.0, 1..5),
        seed in 0u64..1_000,
    ) {
        let capacity: f64 = rates.iter().sum();
        let phi = offered_rho * capacity;
        let rt = Runtime::builder()
            .seed(seed)
            .scheme(SchemeKind::Prop)
            .nominal_arrival_rate((0.95 * capacity).min(phi))
            .admission(AdmissionConfig { target_utilization, defer_band })
            .build();
        for &r in &rates {
            rt.register_node(r).unwrap();
        }
        rt.resolve_now().unwrap();

        let mut driver = TraceDriver::new(phi, TraceConfig { seed, batch_size: 500 });
        driver.run_jobs(&rt, 2_000).unwrap();
        let stats = driver.stats();

        prop_assert_eq!(stats.submitted, 2_000);
        prop_assert_eq!(
            stats.accepted + stats.rejected + stats.deferred,
            stats.submitted,
            "conservation: counts must partition the submitted jobs"
        );
        prop_assert_eq!(stats.jobs, stats.accepted, "every admitted job completes");
        // Below threshold the rejection rate is exactly zero (offered
        // utilization published to the policy is min(phi, 0.95·cap)/cap).
        let rho_published = (0.95f64 * capacity).min(phi) / capacity;
        if rho_published <= target_utilization {
            prop_assert_eq!(stats.rejected + stats.deferred, 0);
        }
        // The runtime's shared counters saw the same window.
        let rt_stats = rt.admission_stats().unwrap();
        prop_assert_eq!(rt_stats.submitted, stats.submitted);
        prop_assert_eq!(rt_stats.accepted, stats.accepted);
        prop_assert_eq!(rt_stats.rejected, stats.rejected);
        prop_assert_eq!(rt_stats.deferred, stats.deferred);
    }

    #[test]
    fn empirical_rejection_rate_is_monotone_in_offered_load(
        target_utilization in 0.3f64..0.7,
        seed in 0u64..1_000,
    ) {
        // Same seed (common random numbers), increasing offered load:
        // the *measured* rejection rate over the trace must not decrease.
        let mut last_rate = 0.0f64;
        for rho in [0.5f64, 0.9, 1.3, 1.8] {
            let rt = Runtime::builder()
                .seed(seed)
                .scheme(SchemeKind::Prop)
                .nominal_arrival_rate(rho.min(0.95))
                .admission(AdmissionConfig { target_utilization, defer_band: 0.0 })
                .build();
            rt.register_node(1.0).unwrap();
            rt.resolve_now().unwrap();
            // Publish the true offered utilization (the nominal rate is
            // capacity-capped so the solver stays feasible).
            let mut driver = TraceDriver::new(rho, TraceConfig { seed, batch_size: 500 });
            driver.run_jobs(&rt, 1_500).unwrap();
            let rate = driver.stats().rejection_rate();
            prop_assert!(
                rate >= last_rate - 1e-12,
                "offered rho {rho}: rejection rate {rate} fell below {last_rate}"
            );
            last_rate = rate;
        }
    }
}
