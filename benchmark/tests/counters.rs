//! The benchmark's own checks: counters that must repeat exactly for one
//! seed do, and a different seed yields different inputs.

use std::collections::BTreeSet;

use parsim_benchmark::library::SCHEDULING_DEPENDENT;
use parsim_benchmark::run::{counter_metrics, EXACT};
use parsim_benchmark::workload::{build, JobClass, Workload, NAMES};
use parsim_logic::Bit;

#[test]
fn every_counter_is_exact_or_scheduling_dependent() {
    let exact: BTreeSet<&str> = EXACT.into_iter().collect();
    let dependent: BTreeSet<&str> = SCHEDULING_DEPENDENT.into_iter().collect();
    assert!(
        exact.is_disjoint(&dependent),
        "a counter is listed both exact and scheduling-dependent"
    );
    let w = build("round_bound", 7);
    let printed = counter_metrics(&w);
    let printed: BTreeSet<&str> = printed.keys().map(String::as_str).collect();
    let listed: BTreeSet<&str> = exact.union(&dependent).copied().collect();
    assert_eq!(printed, listed, "every counter metric must be classified, and only those");
}

#[test]
fn exact_counters_repeat_for_one_seed() {
    for name in NAMES {
        let w = build(name, 7);
        let (first, second) = (counter_metrics(&w), counter_metrics(&w));
        for metric in EXACT {
            assert_eq!(
                first.get(metric),
                second.get(metric),
                "{name}: exact counter {metric} moved between two runs of one seed"
            );
        }
    }
}

fn stimulus_events(w: &Workload) -> Vec<Vec<parsim_event::Event<Bit>>> {
    w.lib.iter().map(|c| c.stimulus.events::<Bit>(&c.circuit, c.until)).collect()
}

fn fresh_bodies(w: &Workload) -> Vec<&str> {
    w.mix.open.iter().filter(|j| j.class == JobClass::Fresh).map(|j| j.body.as_str()).collect()
}

#[test]
fn another_seed_changes_circuits_and_stimuli() {
    for name in NAMES {
        let (a, b) = (build(name, 7), build(name, 8));
        assert_ne!(stimulus_events(&a), stimulus_events(&b), "{name}: library stimulus");
        assert_ne!(fresh_bodies(&a), fresh_bodies(&b), "{name}: fresh netlists");
        let bodies = |w: &Workload| w.mix.open.iter().map(|j| j.body.clone()).collect::<Vec<_>>();
        assert_ne!(bodies(&a), bodies(&b), "{name}: job mix");
        // Same seed, same inputs.
        assert_eq!(
            bodies(&a),
            bodies(&build(name, 7)),
            "{name}: job mix must be a function of the seed"
        );
    }
    let (a, b) = (build("eval_bound", 7), build("eval_bound", 8));
    assert_ne!(a.lib[0].circuit, b.lib[0].circuit, "eval_bound: library circuit");
}
