//! Property tests of the MDA mapping algorithm over randomised
//! programs/profiles: the invariants of Algorithm 1 must hold whatever
//! the workload looks like.

use ftspm_core::mda::{run_mda, run_mda_dynamic, MapDecision};
use ftspm_core::{MdaThresholds, SpmStructure};
use ftspm_profile::{BlockProfile, Profile};
use ftspm_sim::{BlockKind, Program};
use ftspm_testkit::prop::{
    any_bool, check, int_range, vec_of, Config, Strategy, StrategyExt, VecStrategy,
};

fn cfg() -> Config {
    Config::with_cases(128).persisting(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/mda_proptests.regressions"
    ))
}

#[derive(Debug, Clone)]
struct RandBlock {
    code: bool,
    size_kib_quarters: u32, // size in 256-byte units, 1..=40 (0.25..10 KiB)
    reads: u64,
    writes: u64,
    references: u64,
    lifetime: u64,
}

fn block_strategy() -> impl Strategy<Value = RandBlock> {
    (
        any_bool(),
        int_range(1u32..40),
        int_range(0u64..1_000_000),
        int_range(0u64..200_000),
        int_range(1u64..100_000),
        int_range(0u64..10_000_000),
    )
        .map(
            |(code, size_kib_quarters, reads, writes, references, lifetime)| RandBlock {
                code,
                size_kib_quarters,
                reads,
                writes,
                references,
                lifetime,
            },
        )
}

fn blocks_strategy() -> VecStrategy<impl Strategy<Value = RandBlock>> {
    vec_of(block_strategy(), 1..12)
}

fn build(blocks: &[RandBlock]) -> (Program, Profile) {
    let mut b = Program::builder("rand");
    for (i, rb) in blocks.iter().enumerate() {
        let size = rb.size_kib_quarters * 256;
        if rb.code {
            b.code(format!("C{i}"), size, 16);
        } else {
            b.data(format!("D{i}"), size);
        }
    }
    b.stack(256);
    let p = b.build();
    let rows: Vec<BlockProfile> = p
        .iter()
        .map(|(id, spec)| {
            let stack_row = id.index() == blocks.len();
            let rb = blocks.get(id.index());
            BlockProfile {
                block: id,
                name: spec.name().to_string(),
                kind: spec.kind(),
                size_bytes: spec.size_bytes(),
                reads: if stack_row {
                    10
                } else {
                    rb.map_or(0, |r| r.reads)
                },
                writes: if spec.kind() == BlockKind::Code {
                    0
                } else if stack_row {
                    10
                } else {
                    rb.map_or(0, |r| r.writes)
                },
                references: if stack_row {
                    5
                } else {
                    rb.map_or(1, |r| r.references)
                },
                stack_calls: 0,
                max_stack_bytes: 0,
                lifetime_cycles: if stack_row {
                    100
                } else {
                    rb.map_or(0, |r| r.lifetime)
                },
                first_access: 0,
            }
        })
        .collect();
    let profile = Profile {
        program: "rand".into(),
        blocks: rows,
        first_use_order: Vec::new(),
        total_cycles: 10_000_000,
    };
    (p, profile)
}

fn thresholds() -> MdaThresholds {
    MdaThresholds::new(2.0, 2.0, 20_000)
}

#[test]
fn capacities_are_never_exceeded() {
    check(&cfg(), &blocks_strategy(), |blocks| {
        let (p, profile) = build(blocks);
        let structure = SpmStructure::ftspm();
        let out = run_mda(&p, &profile, &structure, &thresholds());
        for decision in [
            MapDecision::Instruction,
            MapDecision::DataStt,
            MapDecision::DataEcc,
            MapDecision::DataParity,
        ] {
            let used: u64 = out
                .blocks_with(decision)
                .iter()
                .map(|&b| u64::from(p.block(b).size_bytes()))
                .sum();
            let role = decision.role().expect("mapped decision");
            let cap = u64::from(
                structure
                    .spec(role)
                    .expect("role exists")
                    .geometry()
                    .bytes(),
            );
            assert!(used <= cap, "{decision:?}: {used} > {cap}");
        }
        // …and the placement materialises without error.
        assert!(out.placement(&p, &structure).is_ok());
    });
}

#[test]
fn endurance_threshold_is_hard() {
    check(&cfg(), &blocks_strategy(), |blocks| {
        let (p, profile) = build(blocks);
        let structure = SpmStructure::ftspm();
        let th = thresholds();
        let out = run_mda(&p, &profile, &structure, &th);
        for &b in &out.blocks_with(MapDecision::DataStt) {
            assert!(
                profile.block(b).writes <= th.write_cycles_threshold,
                "write-hot block {} stayed in STT",
                profile.block(b).name
            );
        }
    });
}

#[test]
fn code_never_lands_in_data_regions() {
    check(&cfg(), &blocks_strategy(), |blocks| {
        let (p, profile) = build(blocks);
        let out = run_mda(&p, &profile, &SpmStructure::ftspm(), &thresholds());
        for d in &out.decisions {
            if p.block(d.block).kind() == BlockKind::Code {
                assert!(
                    matches!(d.decision, MapDecision::Instruction | MapDecision::OffChip),
                    "{}: {:?}",
                    d.name,
                    d.decision
                );
            } else {
                assert!(
                    d.decision != MapDecision::Instruction,
                    "data block {} in the I-SPM",
                    d.name
                );
            }
        }
    });
}

#[test]
fn mda_is_deterministic() {
    check(&cfg(), &blocks_strategy(), |blocks| {
        let (p, profile) = build(blocks);
        let structure = SpmStructure::ftspm();
        let a = run_mda(&p, &profile, &structure, &thresholds());
        let b = run_mda(&p, &profile, &structure, &thresholds());
        assert_eq!(a, b);
    });
}

#[test]
fn step6_orders_by_susceptibility() {
    // Every ECC-mapped (high) block must be at least as susceptible
    // as the pivot unless it landed there by fallback; every
    // parity-mapped low block below the pivot likewise.
    check(&cfg(), &blocks_strategy(), |blocks| {
        let (p, profile) = build(blocks);
        let out = run_mda(&p, &profile, &SpmStructure::ftspm(), &thresholds());
        for d in &out.decisions {
            match (d.decision, d.reason) {
                (MapDecision::DataEcc, ftspm_core::mda::DecisionReason::HighSusceptibility) => {
                    assert!(d.susceptibility >= out.avg_evicted_susceptibility);
                }
                (MapDecision::DataParity, ftspm_core::mda::DecisionReason::LowSusceptibility) => {
                    assert!(d.susceptibility <= out.avg_evicted_susceptibility);
                }
                _ => {}
            }
        }
    });
}

#[test]
fn dynamic_promotion_only_adds_stt_residents() {
    check(&cfg(), &blocks_strategy(), |blocks| {
        let (p, profile) = build(blocks);
        let structure = SpmStructure::ftspm();
        let th = thresholds();
        let static_out = run_mda(&p, &profile, &structure, &th);
        let dyn_out = run_mda_dynamic(&p, &profile, &structure, &th);
        for (s, d) in static_out.decisions.iter().zip(&dyn_out.decisions) {
            match s.decision {
                // Static STT residents may be demoted to the pool; SRAM
                // and I-SPM decisions never change.
                MapDecision::DataStt => assert!(matches!(
                    d.decision,
                    MapDecision::DataStt | MapDecision::DataSttDynamic
                )),
                MapDecision::OffChip => assert!(matches!(
                    d.decision,
                    MapDecision::OffChip | MapDecision::DataSttDynamic
                )),
                other => assert_eq!(d.decision, other),
            }
        }
        // The dynamic placement must also materialise.
        assert!(dyn_out.placement(&p, &structure).is_ok());
    });
}
