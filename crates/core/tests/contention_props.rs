//! Property tests for the shared-bus contention transform: inflation is
//! never below identity, monotone in rival budgets and in the number of
//! contending cores, and `inflate_set` is a faithful, reversible task-set
//! transform (everything except the copy phases is preserved).

use proptest::prelude::*;

use pmcs_core::Inflation;
use pmcs_model::{BusModel, CoreId, Time};
use pmcs_workload::{TaskSetConfig, TaskSetGenerator};

/// A regulated bus with `cores` equal budgets `q` under period `p`,
/// clamped so `ΣQ ≤ P` always holds.
fn uniform_bus(p: i64, cores: usize, q: i64) -> BusModel {
    let q = q.clamp(1, (p / cores as i64).max(1));
    BusModel::uniform(Time::from_ticks(p), cores, Time::from_ticks(q)).expect("ΣQ ≤ P by clamping")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inflated demand never drops below the raw demand, and is exactly
    /// the raw demand whenever the bus is contention-free or the core
    /// has no active rivals.
    #[test]
    fn inflation_never_shrinks_demand(
        p in 2i64..=500,
        cores in 2usize..=6,
        q in 1i64..=250,
        d in 0i64..=10_000,
    ) {
        let bus = uniform_bus(p, cores, q);
        let inf = Inflation::for_core(&bus, CoreId(0));
        let d = Time::from_ticks(d);
        prop_assert!(inf.inflate(d).unwrap() >= d);

        let crossbar = Inflation::for_core(&BusModel::contention_free(), CoreId(0));
        prop_assert_eq!(crossbar.inflate(d).unwrap(), d);

        // Only this core active: rivals contribute nothing, identity.
        let mut active = vec![false; cores];
        active[0] = true;
        let lone = Inflation::for_core_among(&bus, CoreId(0), &active);
        prop_assert!(lone.is_identity());
        prop_assert_eq!(lone.inflate(d).unwrap(), d);
    }

    /// More contending cores → never less inflation (σ grows with every
    /// activated rival).
    #[test]
    fn inflation_is_monotone_in_contending_cores(
        p in 4i64..=500,
        cores in 3usize..=6,
        q in 1i64..=120,
        d in 1i64..=10_000,
    ) {
        let bus = uniform_bus(p, cores, q);
        let d = Time::from_ticks(d);
        let mut active = vec![false; cores];
        active[0] = true;
        let mut prev = Inflation::for_core_among(&bus, CoreId(0), &active).inflate(d).unwrap();
        for rival in 1..cores {
            active[rival] = true;
            let cur = Inflation::for_core_among(&bus, CoreId(0), &active).inflate(d).unwrap();
            prop_assert!(
                cur >= prev,
                "activating rival {rival} shrank the bound: {prev} -> {cur}"
            );
            prev = cur;
        }
    }

    /// Larger rival budgets → never less inflation, for the same own
    /// budget and period.
    #[test]
    fn inflation_is_monotone_in_rival_budgets(
        p in 10i64..=500,
        d in 1i64..=10_000,
        own_frac in 1i64..=4,
        small in 1i64..=100,
        extra in 1i64..=100,
    ) {
        let own = (p / (2 * own_frac)).max(1);
        let rival_cap = p - own;
        let small_q = small.clamp(1, (rival_cap - 1).max(1));
        let big_q = (small_q + extra).clamp(1, rival_cap.max(1));
        prop_assume!(big_q > small_q);
        let mk = |rival: i64| {
            BusModel::regulated(
                Time::from_ticks(p),
                vec![Time::from_ticks(own), Time::from_ticks(rival)],
            )
            .expect("own + rival ≤ P by construction")
        };
        let d = Time::from_ticks(d);
        let weak = Inflation::for_core(&mk(small_q), CoreId(0)).inflate(d).unwrap();
        let strong = Inflation::for_core(&mk(big_q), CoreId(0)).inflate(d).unwrap();
        prop_assert!(
            strong >= weak,
            "greedier rival shrank the bound: Q_r {small_q} -> {big_q}, {weak} -> {strong}"
        );
    }

    /// `inflate_set` changes only the copy phases (and monotonically so);
    /// execution, deadlines, priorities, arrival models, and sensitivity
    /// survive, and a contention-free bus reproduces the set exactly.
    #[test]
    fn inflate_set_is_a_faithful_transform(
        n in 2usize..=5,
        util_step in 2u8..=8,
        seed in any::<u64>(),
        p in 10i64..=400,
        cores in 2usize..=4,
    ) {
        let set = TaskSetGenerator::new(
            TaskSetConfig {
                n,
                utilization: f64::from(util_step) * 0.05,
                ..TaskSetConfig::default()
            },
            seed,
        )
        .generate();
        let bus = uniform_bus(p, cores, p / cores as i64);
        let inf = Inflation::for_core(&bus, CoreId(1));
        let inflated = inf.inflate_set(&set).expect("inflation preserves validity");
        prop_assert_eq!(inflated.len(), set.len());
        for (orig, new) in set.iter().zip(inflated.iter()) {
            prop_assert_eq!(orig.id(), new.id());
            prop_assert_eq!(orig.exec(), new.exec());
            prop_assert_eq!(orig.deadline(), new.deadline());
            prop_assert_eq!(orig.priority(), new.priority());
            prop_assert_eq!(orig.arrival(), new.arrival());
            prop_assert_eq!(orig.sensitivity(), new.sensitivity());
            prop_assert_eq!(new.copy_in(), inf.inflate(orig.copy_in()).unwrap());
            prop_assert_eq!(new.copy_out(), inf.inflate(orig.copy_out()).unwrap());
            prop_assert!(new.copy_in() >= orig.copy_in());
            prop_assert!(new.copy_out() >= orig.copy_out());
        }

        let identity = Inflation::for_core(&BusModel::contention_free(), CoreId(1));
        let same = identity.inflate_set(&set).expect("identity preserves validity");
        prop_assert_eq!(&same, &set);
    }
}
