//! The online phase's transfer schedule is a *prediction* of the lazy
//! map-in DMAs the machine performs; on a deterministic workload the two
//! must agree exactly.

use ftspm_core::mda::run_mda;
use ftspm_core::schedule::{build_schedule, TransferCommand};
use ftspm_core::{OptimizeFor, SpmStructure};
use ftspm_harness::{profile_workload, try_profile_multi_workload};
use ftspm_obs::{Recorder, RecorderConfig, TraceEvent};
use ftspm_profile::Profile;
use ftspm_sim::{AccessKind, Cpu, Machine, MachineConfig};
use ftspm_workloads::{find, multicore_registry, registry, CaseStudy, Sha1, Workload};

fn check_workload(workload: &mut dyn Workload) {
    let profile = profile_workload(workload);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        workload.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let schedule = build_schedule(&profile, &mapping);
    let placement = mapping
        .placement(workload.program(), &structure)
        .expect("fits");
    let mut machine = Machine::new(
        MachineConfig::with_regions(structure.specs()),
        workload.program().clone(),
        placement,
    )
    .expect("machine");
    workload.init(machine.dram_mut());
    let mut recorder = Recorder::new(RecorderConfig {
        trace_capacity: usize::MAX,
        trace_accesses: false,
        trace_dma: true,
    });
    {
        let mut cpu = Cpu::new(&mut machine, &mut recorder);
        workload.run(&mut cpu).expect("runs");
    }
    machine.finish(&mut recorder);

    // Observed DMA fills (map-in writes), in order.
    let observed: Vec<_> = recorder
        .trace()
        .events()
        .filter_map(|e| match e {
            TraceEvent::Access(a) if a.dma && a.kind == AccessKind::Write => Some(a.block),
            _ => None,
        })
        .collect();
    let predicted: Vec<_> = schedule
        .commands()
        .iter()
        .filter_map(|c| match c {
            TransferCommand::MapIn { block, .. } => Some(*block),
            _ => None,
        })
        .collect();
    assert_eq!(
        observed,
        predicted,
        "{}: predicted map-in order must match observed DMA order",
        workload.name()
    );
}

#[test]
fn schedule_predicts_observed_dma_order_case_study() {
    check_workload(&mut CaseStudy::new());
}

#[test]
fn schedule_predicts_observed_dma_order_sha() {
    check_workload(&mut Sha1::new(0x54A1));
}

#[test]
fn schedule_predicts_observed_dma_order_on_every_registry_kernel() {
    for entry in registry() {
        check_workload(&mut *entry.build(None));
    }
}

/// `first_use_order` holds each referenced block exactly once, and
/// `first_access` never decreases along it.
fn check_first_use_order(name: &str, profile: &Profile) {
    let mut seen = vec![false; profile.blocks.len()];
    for &b in &profile.first_use_order {
        assert!(!seen[b.index()], "{name}: {b:?} listed twice");
        seen[b.index()] = true;
    }
    for row in &profile.blocks {
        assert_eq!(
            seen[row.block.index()],
            row.references > 0,
            "{name}: {} is listed iff it is referenced",
            row.name
        );
    }
    for w in profile.first_use_order.windows(2) {
        assert!(
            profile.block(w[0]).first_access <= profile.block(w[1]).first_access,
            "{name}: first_access decreases from {} to {}",
            profile.block(w[0]).name,
            profile.block(w[1]).name
        );
    }
}

#[test]
fn first_use_order_lists_referenced_blocks_by_first_access() {
    for entry in registry() {
        check_first_use_order(entry.name(), &profile_workload(&mut *entry.build(None)));
    }
    for entry in multicore_registry() {
        for cores in [2, 4] {
            let (profile, _) =
                try_profile_multi_workload(&mut *entry.build(cores, None), None).expect("profiles");
            check_first_use_order(&format!("{}x{cores}", entry.name()), &profile);
        }
    }
}

/// The stack and the entry block are first used in the same cycle; the
/// recorded order (stack first) is the one the machine's map-in DMAs
/// follow, and sorting by `first_access` would lose it.
#[test]
fn first_use_order_keeps_same_cycle_ties_in_reference_order() {
    let profile = profile_workload(&mut *find("crc32").expect("crc32").build(None));
    let stack = profile.find("Stack").expect("stack");
    let entry = profile.find("Crc").expect("entry block");
    assert_eq!(stack.first_access, entry.first_access);
    assert_eq!(profile.first_use_order[..2], [stack.block, entry.block]);
}
