//! Ablation benchmark: Gillespie direct vs Gibson–Bruck next-reaction vs
//! composition–rejection vs tau-leaping vs the hybrid multiscale stepper,
//! on networks of increasing size and varying shape (all built by
//! `crn::generators`).
//!
//! The scaling story this sweep documents:
//!
//! * the direct method's per-event `O(R)` CDF scan degrades linearly with
//!   the reaction count (`chain_10` → `chain_1000`),
//! * next-reaction (`O(log R)`) and composition–rejection (`O(1)`
//!   expected) stay near-flat — composition–rejection is the one whose
//!   selection cost is independent of both the reaction count *and* the
//!   dependency structure,
//! * tau-leaping is orthogonal: it wins by firing many events per step
//!   when populations allow it, not by selecting faster,
//! * the hybrid multiscale stepper only pays off when the network really
//!   has two timescales — the `multiscale_switch` scenario (rare promoter
//!   flips over high-copy enzymatic turnover, fixed time horizon) is its
//!   showcase, and `bench_compare` gates that hybrid posts the best
//!   concrete median there.
//!
//! `bench_compare` (this crate's comparator binary) gates CI on the
//! committed `BENCH_ssa_methods.json` baseline, so regressions on any of
//! these ids fail the PR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crn::generators::{
    dimerisation_grid, gene_regulatory_tree, lambda_switch_ensemble, linear_cascade,
    multiscale_switch, reversible_chain, GeneratedSystem,
};
use gillespie::{Simulation, SimulationOptions, SsaMethod, StopCondition};

/// Runs every stepper on `system` until `stop` is met.
///
/// Event-count stops keep the *work* fixed across methods whose cost is
/// per-event (the selection-scaling scenarios). Scenarios whose point is
/// that some steppers advance *time* faster per unit work (tau-leaping,
/// hybrid) must use a time-based stop instead — an event budget would let
/// a leaping method batch thousands of firings into one step and make the
/// comparison meaningless.
fn bench_system(c: &mut Criterion, name: &str, system: &GeneratedSystem, stop: &StopCondition) {
    let mut group = c.benchmark_group(format!("ssa_methods/{name}"));
    // Every concrete method, plus the adaptive portfolio resolved once up
    // front (classification amortises over an ensemble, so the steady-state
    // cost of `auto` is the cost of whatever it resolved to —
    // `bench_compare` gates that it lands within 10% of the per-scenario
    // best concrete stepper). The `auto` row is measured *before* the
    // tau-leaping row: tau's long sustained iterations (tens of ms each on
    // the large scenarios) shift the CPU's frequency state, which would
    // bias an identical-workload row sampled right after it.
    let auto = SsaMethod::Auto.resolve(&system.crn, &system.initial);
    let mut rows: Vec<(&str, SsaMethod)> =
        SsaMethod::ALL.into_iter().map(|m| (m.name(), m)).collect();
    let tau = rows
        .iter()
        .position(|&(_, m)| m == SsaMethod::TauLeaping)
        .expect("tau-leaping is one of the concrete methods");
    rows.insert(tau, ("auto", auto));
    for (id, method) in rows {
        group.bench_with_input(BenchmarkId::from_parameter(id), &method, |b, &method| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                Simulation::new(&system.crn, method.stepper())
                    .options(SimulationOptions::new().seed(seed).stop(stop.clone()))
                    .run(&system.initial)
                    .expect("trajectory")
            });
        });
    }
    group.finish();
}

fn bench_methods(c: &mut Criterion) {
    let per_event = StopCondition::events(5_000);
    // Reversible isomerisation chains: the reaction count scales while the
    // dependency out-degree stays ≤ 4 — pure selection-cost scaling.
    for &length in &[10usize, 50, 200, 1000] {
        let system = reversible_chain(length, 1.0, 0.5, 200);
        bench_system(c, &format!("chain_{length}"), &system, &per_event);
    }
    // Source-driven irreversible cascade: 2002 channels, most of them idle
    // at any instant — the sparsest large network.
    bench_system(
        c,
        "cascade_2000",
        &linear_cascade(2000, 50.0, 1.0, 2000),
        &per_event,
    );
    // Branched gene-regulatory tree (364 genes, 1454 reactions):
    // propensities spread over many binades as the activation wave runs.
    bench_system(
        c,
        "gene_tree_1454",
        &gene_regulatory_tree(5, 3, 0.2, 0.5, 8.0, 1.0),
        &per_event,
    );
    // Reaction–diffusion style dimerisation grid (16×16 sites, 480
    // second-order bindings plus their 480 first-order unbindings, all
    // active at once).
    bench_system(
        c,
        "dimer_grid_960",
        &dimerisation_grid(16, 16, 0.002, 1.0, 25),
        &per_event,
    );
    // 200 independent lambda switches in one network: block-diagonal
    // dependency graph, the scaled-out population-study shape.
    bench_system(
        c,
        "lambda_switch_1200",
        &lambda_switch_ensemble(200, 1.0, 0.1, 0.001, 30),
        &per_event,
    );
    // 90 two-state promoter modules driving high-copy enzymatic turnover
    // (540 species, 720 reactions): promoter flips at rate 0.5 sit five
    // orders of magnitude below ~2e4/module fast turnover. A fixed time
    // horizon makes this the honest hybrid showcase — exact methods pay
    // per firing, tau-leaping leaps, and the hybrid stepper integrates the
    // fast partition as an ODE between slow events.
    bench_system(
        c,
        "multiscale_switch_720",
        &multiscale_switch(90, 0.5, 20_000.0, 2_000, 600),
        &StopCondition::time(0.002),
    );
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
