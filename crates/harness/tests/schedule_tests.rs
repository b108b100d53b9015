//! The online phase's transfer schedule is a *prediction* of the lazy
//! map-in DMAs the machine performs; on a deterministic workload the two
//! must agree exactly.

use ftspm_core::mda::run_mda;
use ftspm_core::schedule::{build_schedule, TransferCommand};
use ftspm_core::{OptimizeFor, SpmStructure};
use ftspm_harness::profile_workload;
use ftspm_obs::{Recorder, RecorderConfig, TraceEvent};
use ftspm_sim::{AccessKind, Cpu, Machine, MachineConfig};
use ftspm_workloads::{CaseStudy, Sha1, Workload};

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
