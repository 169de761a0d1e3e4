//! Property-based tests of the stochastic simulators.

use crn::Crn;
use gillespie::{
    propensities, propensity, CompositionRejection, DirectMethod, NextReactionMethod,
    RecordingMode, Simulation, SimulationOptions, SsaStepper, StepOutcome, StopCondition,
    TauLeaping,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng as _;

/// Strategy: a reversible conversion network `a <-> b <-> c` with arbitrary
/// positive rates — closed, so the total molecule count is conserved.
fn conversion_network() -> impl Strategy<Value = Crn> {
    prop::collection::vec(0.01f64..100.0, 4).prop_map(|rates| {
        format!(
            "a -> b @ {}\nb -> a @ {}\nb -> c @ {}\nc -> b @ {}",
            rates[0], rates[1], rates[2], rates[3]
        )
        .parse()
        .expect("valid network")
    })
}

proptest! {
    /// First-order propensities are exactly `rate · count`.
    #[test]
    fn first_order_propensity_is_linear(rate in 0.001f64..1e4, count in 0u64..10_000) {
        let crn: Crn = format!("a -> b @ {rate}").parse().expect("network");
        let state = crn.state_from_counts([("a", count)]).expect("state");
        let expected = rate * count as f64;
        let actual = propensity(&crn.reactions()[0], &state);
        prop_assert!((actual - expected).abs() <= expected.abs() * 1e-12);
    }

    /// Homodimerisation propensities use the combinatorial count
    /// `rate · n(n−1)/2` and are never negative.
    #[test]
    fn dimerisation_propensity_uses_combinations(rate in 0.001f64..100.0, count in 0u64..2_000) {
        let crn: Crn = format!("2 a -> b @ {rate}").parse().expect("network");
        let state = crn.state_from_counts([("a", count)]).expect("state");
        let expected = if count >= 2 {
            rate * (count * (count - 1)) as f64 / 2.0
        } else {
            0.0
        };
        let actual = propensity(&crn.reactions()[0], &state);
        prop_assert!(actual >= 0.0);
        prop_assert!((actual - expected).abs() <= expected.abs() * 1e-12 + 1e-12);
    }

    /// Total molecule count is conserved along every trajectory of a closed
    /// conversion network, for every SSA variant.
    #[test]
    fn closed_networks_conserve_mass(
        crn in conversion_network(),
        a0 in 1u64..200,
        b0 in 0u64..200,
        seed in 0u64..1_000,
    ) {
        let initial = crn.state_from_counts([("a", a0), ("b", b0)]).expect("state");
        let total = a0 + b0;
        let options = SimulationOptions::new()
            .seed(seed)
            .stop(StopCondition::events(500));
        // Boxed steppers implement `SsaStepper` directly, so the runtime
        // choice can drive `Simulation` without an adapter.
        let run = |stepper: Box<dyn SsaStepper + Send>| {
            Simulation::new(&crn, stepper)
                .options(options.clone())
                .run(&initial)
                .expect("trajectory")
        };
        for result in [
            run(Box::new(DirectMethod::new())),
            run(Box::new(NextReactionMethod::new())),
            run(Box::new(CompositionRejection::new())),
        ] {
            prop_assert_eq!(result.final_state.total(), total);
            prop_assert!(result.final_time >= 0.0);
        }
    }

    /// The same seed always reproduces the same trajectory.
    #[test]
    fn trajectories_are_deterministic_given_a_seed(
        crn in conversion_network(),
        seed in 0u64..10_000,
    ) {
        let initial = crn.state_from_counts([("a", 50)]).expect("state");
        let options = SimulationOptions::new().seed(seed).stop(StopCondition::events(200));
        let first = Simulation::new(&crn, DirectMethod::new())
            .options(options.clone())
            .run(&initial)
            .expect("trajectory");
        let second = Simulation::new(&crn, DirectMethod::new())
            .options(options)
            .run(&initial)
            .expect("trajectory");
        prop_assert_eq!(first.final_state, second.final_state);
        prop_assert!((first.final_time - second.final_time).abs() < 1e-12);
        prop_assert_eq!(first.events, second.events);
    }

    /// Simulated time never decreases and the event count never exceeds the
    /// configured stop bound.
    #[test]
    fn event_counts_respect_stop_conditions(
        crn in conversion_network(),
        limit in 1u64..400,
        seed in 0u64..1_000,
    ) {
        let initial = crn.state_from_counts([("a", 100)]).expect("state");
        let result = Simulation::new(&crn, DirectMethod::new())
            .options(
                SimulationOptions::new()
                    .seed(seed)
                    .stop(StopCondition::events(limit)),
            )
            .run(&initial)
            .expect("trajectory");
        prop_assert!(result.events <= limit);
        prop_assert!(result.final_time >= 0.0);
    }

    /// Tau-leaping never drives a population negative: on a closed
    /// conversion network every recorded step (leaps included) conserves
    /// the total molecule count exactly. A partial or negative leap would
    /// break conservation — `State` counts are unsigned, so an unguarded
    /// negative delta would wrap to an enormous total.
    #[test]
    fn tau_leaping_never_drives_populations_negative(
        crn in conversion_network(),
        a0 in 1u64..20_000,
        b0 in 0u64..20_000,
        seed in 0u64..1_000,
    ) {
        let initial = crn.state_from_counts([("a", a0), ("b", b0)]).expect("state");
        let total = a0 + b0;
        let result = Simulation::new(&crn, TauLeaping::new())
            .options(
                SimulationOptions::new()
                    .seed(seed)
                    .stop(StopCondition::time(0.5))
                    .recording(RecordingMode::EveryEvent)
                    .max_events(5_000_000),
            )
            .run(&initial)
            .expect("trajectory");
        for point in result.trajectory.points() {
            prop_assert_eq!(point.state.total(), total);
        }
        prop_assert_eq!(result.final_state.total(), total);
    }

    /// The same guard on a second-order network: one firing of `2a -> b`
    /// consumes two molecules at once, so the linear invariant `a + 2b`
    /// catches any over-consuming leap.
    #[test]
    fn tau_leaping_preserves_dimerisation_invariant(
        k1 in 1e-5f64..1e-2,
        k2 in 0.05f64..5.0,
        a0 in 2u64..10_000,
        seed in 0u64..1_000,
    ) {
        let crn: Crn = format!("2 a -> b @ {k1}\nb -> 2 a @ {k2}")
            .parse()
            .expect("network");
        let a = crn.species_id("a").expect("species");
        let b = crn.species_id("b").expect("species");
        let initial = crn.state_from_counts([("a", a0)]).expect("state");
        let result = Simulation::new(&crn, TauLeaping::new())
            .options(
                SimulationOptions::new()
                    .seed(seed)
                    .stop(StopCondition::time(0.5))
                    .recording(RecordingMode::EveryEvent)
                    .max_events(5_000_000),
            )
            .run(&initial)
            .expect("trajectory");
        for point in result.trajectory.points() {
            prop_assert_eq!(point.state.count(a) + 2 * point.state.count(b), a0);
        }
    }

    /// The Cao–Gillespie leap candidate shrinks monotonically as the
    /// error-control ε shrinks: a tighter tolerance can only ask for a
    /// shorter (or equal, once the `max(εx/g, 1)` floor binds) leap.
    #[test]
    fn tau_candidate_shrinks_monotonically_with_epsilon(
        crn in conversion_network(),
        a0 in 0u64..50_000,
        b0 in 0u64..50_000,
        c0 in 0u64..50_000,
        eps_lo in 0.001f64..0.5,
        ratio in 0.01f64..1.0,
    ) {
        let eps_hi = eps_lo;
        let eps_lo = eps_lo * ratio;
        let state = crn
            .state_from_counts([("a", a0), ("b", b0), ("c", c0)])
            .expect("state");
        let tau_at = |eps: f64| {
            TauLeaping::new().with_epsilon(eps).candidate_tau(&crn, &state)
        };
        match (tau_at(eps_lo), tau_at(eps_hi)) {
            (Some(fine), Some(coarse)) => {
                prop_assert!(fine > 0.0);
                prop_assert!(
                    fine <= coarse,
                    "tau(ε={eps_lo}) = {fine} > tau(ε={eps_hi}) = {coarse}"
                );
            }
            // Exhaustion / full criticality does not depend on ε: the two
            // candidates must agree on feasibility.
            (None, None) => {}
            (fine, coarse) => {
                prop_assert!(false, "feasibility diverged: {fine:?} vs {coarse:?}");
            }
        }
    }

    /// Composition–rejection's incremental group bookkeeping is
    /// history-free: after an arbitrary firing sequence, the per-binade
    /// group sums, the group memberships and the maintained propensity
    /// vector all equal — **bitwise** — what a fresh stepper computes by a
    /// full rebuild from the reached state. This is the contract that makes
    /// the exact-ledger design worth its complexity: a plain `f64` running
    /// sum fails it within a handful of events.
    #[test]
    fn composition_rejection_ledger_matches_full_rebuild_bitwise(
        crn in conversion_network(),
        a0 in 1u64..500,
        b0 in 0u64..500,
        seed in 0u64..10_000,
        events in 1u32..400,
    ) {
        let initial = crn.state_from_counts([("a", a0), ("b", b0)]).expect("state");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut incremental = CompositionRejection::new();
        let mut state = initial.clone();
        let mut time = 0.0;
        incremental.initialize(&crn, &state, &mut rng);
        for _ in 0..events {
            if let StepOutcome::Exhausted =
                incremental.step(&crn, &mut state, &mut time, &mut rng)
            {
                break;
            }
        }

        // The stepper's maintained propensity vector — what the rejection
        // stage actually samples against — must equal a full recompute.
        let mut fresh_propensities = Vec::new();
        propensities(&crn, &state, &mut fresh_propensities);
        for (r, (&maintained, &expected)) in incremental
            .maintained_propensities()
            .iter()
            .zip(&fresh_propensities)
            .enumerate()
        {
            prop_assert_eq!(
                maintained.to_bits(),
                expected.to_bits(),
                "reaction {}: maintained {:e} vs recomputed {:e}",
                r, maintained, expected
            );
        }

        // And the group ledger must equal a from-scratch rebuild, bitwise.
        let mut rebuilt = CompositionRejection::new();
        rebuilt.initialize(&crn, &state, &mut rng);
        let inc_ledger = incremental.group_ledger();
        let reb_ledger = rebuilt.group_ledger();
        prop_assert_eq!(inc_ledger.len(), reb_ledger.len(), "group count differs");
        for (inc, reb) in inc_ledger.iter().zip(&reb_ledger) {
            prop_assert_eq!(inc.0, reb.0, "binade set differs");
            prop_assert_eq!(
                inc.1.to_bits(), reb.1.to_bits(),
                "group {} sum differs: incremental {:e} vs rebuilt {:e}",
                inc.0, inc.1, reb.1
            );
            prop_assert_eq!(&inc.2, &reb.2, "group {} membership differs", inc.0);
        }
    }

    /// The same ledger contract on a second-order network with rates spread
    /// over ~20 binades: quadratic propensities rise and fall through many
    /// bins as the dimer pool fills, and near-exhaustion channels drop out
    /// of the group structure entirely and must come back identically.
    #[test]
    fn composition_rejection_ledger_survives_binade_churn(
        k1 in 1e-6f64..1e-2,
        k2 in 0.1f64..100.0,
        a0 in 2u64..3_000,
        seed in 0u64..10_000,
        events in 1u32..600,
    ) {
        let crn: Crn = format!("2 a -> b @ {k1}\nb -> 2 a @ {k2}")
            .parse()
            .expect("network");
        let initial = crn.state_from_counts([("a", a0)]).expect("state");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut incremental = CompositionRejection::new();
        let mut state = initial.clone();
        let mut time = 0.0;
        incremental.initialize(&crn, &state, &mut rng);
        for _ in 0..events {
            if let StepOutcome::Exhausted =
                incremental.step(&crn, &mut state, &mut time, &mut rng)
            {
                break;
            }
        }
        let mut rebuilt = CompositionRejection::new();
        rebuilt.initialize(&crn, &state, &mut rng);
        let inc_ledger = incremental.group_ledger();
        let reb_ledger = rebuilt.group_ledger();
        prop_assert_eq!(&inc_ledger, &reb_ledger, "ledgers diverged");
        for ((binade, sum, members), reb) in inc_ledger.iter().zip(&reb_ledger) {
            prop_assert_eq!(sum.to_bits(), reb.1.to_bits(), "group {} sum bits", binade);
            prop_assert!(!members.is_empty(), "empty group {} retained", binade);
            prop_assert!(*sum > 0.0, "non-positive group sum {:e}", sum);
        }
    }

    /// `StopCondition::any_of` and `all_of` behave exactly like logical OR
    /// and AND of their parts.
    #[test]
    fn composite_stop_conditions_are_boolean_algebra(
        time in 0.0f64..100.0,
        events in 0u64..100,
        counts in prop::collection::vec(0u64..50, 3),
        time_bound in 0.0f64..100.0,
        event_bound in 0u64..100,
        threshold in 0u64..50,
    ) {
        let state = crn::State::from_counts(counts);
        let parts = vec![
            StopCondition::time(time_bound),
            StopCondition::events(event_bound),
            StopCondition::species_at_least(crn::SpeciesId::from_index(1), threshold),
        ];
        let individually: Vec<bool> = parts
            .iter()
            .map(|c| c.is_met(time, events, &state))
            .collect();
        let any = StopCondition::any_of(parts.clone()).is_met(time, events, &state);
        let all = StopCondition::all_of(parts).is_met(time, events, &state);
        prop_assert_eq!(any, individually.iter().any(|&b| b));
        prop_assert_eq!(all, individually.iter().all(|&b| b));
    }
}

proptest! {
    /// The portfolio classifier's verdict is a pure function of the parsed
    /// network and initial state: re-classifying, re-parsing the same
    /// source text, and classifying on a different thread all resolve to
    /// the same concrete kind with the same feature report — nothing
    /// environmental (caller seeds, thread identity, prior classifications)
    /// leaks in. This purity is what makes `auto` cache keys replayable.
    #[test]
    fn auto_classification_is_a_pure_function_of_the_network(
        crn in conversion_network(),
        a in 0u64..5_000,
        b in 0u64..5_000,
        c in 0u64..5_000,
    ) {
        use gillespie::{classify, SsaMethod};
        let initial = crn
            .state_from_counts([("a", a), ("b", b), ("c", c)])
            .expect("state");
        let first = classify(&crn, &initial);
        prop_assert_ne!(first.resolved, SsaMethod::Auto);
        prop_assert_eq!(&first, &classify(&crn, &initial));
        prop_assert_eq!(first.resolved, SsaMethod::Auto.resolve(&crn, &initial));

        // Same source text, freshly parsed on another thread.
        let text = format!("{crn}");
        let elsewhere = std::thread::spawn(move || {
            let reparsed: Crn = text.parse().expect("round-trip");
            let initial = reparsed
                .state_from_counts([("a", a), ("b", b), ("c", c)])
                .expect("state");
            classify(&reparsed, &initial)
        })
        .join()
        .expect("classifier thread");
        prop_assert_eq!(first, elsewhere);
    }
}

proptest! {
    /// The hybrid multiscale stepper conserves mass exactly on closed
    /// networks across **every** advancement mode — exact bursts, Poisson
    /// tau leaps over the fast partition, and deterministic ODE segments
    /// (whose channel integrals round to whole firings with persistent
    /// carries). The rate spread sweeps the network from single-scale
    /// (pure exact / pure tau) to strongly multiscale (ODE-dominated), so
    /// the cases cover all three code paths.
    #[test]
    fn hybrid_conserves_mass_across_ode_and_tau_segments(
        k_fast in 1.0f64..200.0,
        k_slow in 1e-4f64..0.5,
        a0 in 1_000u64..40_000,
        c0 in 0u64..100,
        seed in 0u64..10_000,
    ) {
        use gillespie::Hybrid;
        let crn: Crn = format!(
            "a -> b @ {k_fast}\nb -> a @ {k_fast}\nb -> c @ {k_slow}\nc -> b @ {}",
            k_slow * 2.0
        )
        .parse()
        .expect("network");
        let initial = crn
            .state_from_counts([("a", a0), ("c", c0)])
            .expect("state");
        let result = Simulation::new(&crn, Hybrid::new())
            .options(
                SimulationOptions::new()
                    .seed(seed)
                    .stop(StopCondition::time(0.05)),
            )
            .run(&initial)
            .expect("trajectory");
        prop_assert_eq!(result.final_state.total(), a0 + c0, "mass leaked");
        prop_assert_eq!(
            result.final_time.to_bits(),
            0.05f64.to_bits(),
            "every segment type must land exactly on the time stop"
        );
    }

    /// The fast/slow partition is a function of the *channel*, not of its
    /// position in the reaction list: permuting the enumeration order
    /// permutes the partition vector identically. (This is what makes the
    /// hybrid's behaviour — and the classifier feature built on the same
    /// rule — insensitive to how a model file happens to order reactions.)
    #[test]
    fn hybrid_partition_is_invariant_under_channel_enumeration_order(
        r0 in 1.0f64..1e5,
        r1 in 1e-3f64..1e3,
        r2 in 1e-6f64..1.0,
        r3 in 1e-3f64..1e3,
        a0 in 0u64..5_000,
        b0 in 0u64..5_000,
        seed in 0u64..10_000,
    ) {
        use gillespie::Hybrid;
        use rand::Rng as _;
        let lines = [
            format!("0 -> a @ {r0}"),
            format!("a -> 0 @ {r1}"),
            format!("a + b -> c @ {r2}"),
            format!("c -> a + b @ {r3}"),
            format!("b -> d @ {r1}"),
            format!("d -> b @ {r3}"),
        ];
        // A seeded Fisher–Yates permutation of the channel order.
        let mut order: Vec<usize> = (0..lines.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let counts = [("a", a0), ("b", b0), ("c", 40), ("d", 7)];

        let base: Crn = lines.join("\n").parse().expect("network");
        let base_partition =
            Hybrid::new().partition(&base, &base.state_from_counts(counts).expect("state"));

        let permuted_lines: Vec<&str> =
            order.iter().map(|&i| lines[i].as_str()).collect();
        let permuted: Crn = permuted_lines.join("\n").parse().expect("network");
        let permuted_partition = Hybrid::new()
            .partition(&permuted, &permuted.state_from_counts(counts).expect("state"));

        for (pos, &orig) in order.iter().enumerate() {
            prop_assert_eq!(
                permuted_partition[pos],
                base_partition[orig],
                "channel `{}` classified differently at position {}",
                lines[orig],
                pos
            );
        }
    }
}
