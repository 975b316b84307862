//! Property test for the durability policy state machine: a journal
//! backed by a randomly faulty disk — ENOSPC, EIO, torn writes, fsync
//! failures, open failures — must leave the server policy-conformant,
//! the books balanced, and the surviving journal file a valid
//! replayable prefix, for every policy and every fault schedule.

use icrowd::core::ICrowdConfig;
use icrowd_platform::market::WorkerBehavior;
use icrowd_platform::{read_journal, DiskFaultConfig, FaultyIo};
use icrowd_serve::protocol::{Request, Response};
use icrowd_serve::{recover_with_policy, CampaignEngine, DurabilityPolicy};
use icrowd_sim::campaign::{Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::{table1, Dataset};
use proptest::prelude::*;

fn config() -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: 3,
        similarity_threshold: 0.3,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 3;
    CampaignConfig {
        seed: 42,
        icrowd,
        metric: MetricChoice::Jaccard,
        ..Default::default()
    }
}

/// Drives the campaign through the request interface until it completes
/// or the fail-stop drain refuses a mutation.
fn drive_to_end(eng: &CampaignEngine, dataset: &Dataset, seed: u64) {
    let workers: Vec<String> = (1..=dataset.workers.len())
        .map(|i| format!("W{i}"))
        .collect();
    let mut sims: Vec<_> = dataset.spawn_workers(seed).into_iter().map(Some).collect();
    let mut live = workers.len();
    let mut guard = 0u32;
    while live > 0 {
        guard += 1;
        assert!(guard < 1_000_000, "campaign livelocked");
        for (i, w) in workers.iter().enumerate() {
            let Some(sim) = sims[i].as_mut() else {
                continue;
            };
            match eng.handle(&Request::RequestTask { worker: w.clone() }, 0) {
                Response::Task(task) => {
                    let answer = WorkerBehavior::answer(sim, &dataset.tasks[task]);
                    eng.handle(
                        &Request::SubmitAnswer {
                            worker: w.clone(),
                            task,
                            answer,
                        },
                        0,
                    );
                }
                Response::Wait { .. } | Response::Declined { retry: true } => {}
                Response::Left | Response::Declined { retry: false } => {
                    sims[i] = None;
                    live -= 1;
                }
                Response::Error { .. } => return,
                other => panic!("unexpected poll response {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Any fault schedule × any policy: the run ends policy-conformant,
    /// live and recovered accounting both balance after finalization,
    /// and the journal file on disk always replays as a valid prefix.
    #[test]
    fn random_fault_schedules_keep_the_journal_replayable(
        seed in 0u64..10_000,
        enospc in 0.0f64..0.05,
        eio in 0.0f64..0.05,
        torn in 0.0f64..0.05,
        fsync in 0.0f64..0.08,
        open in 0.0f64..0.02,
        policy_idx in 0u8..3,
    ) {
        let policy = [
            DurabilityPolicy::FailStop,
            DurabilityPolicy::Degrade,
            DurabilityPolicy::Retry,
        ][policy_idx as usize];
        let mut fault_config = DiskFaultConfig {
            enospc_rate: enospc,
            eio_rate: eio,
            torn_rate: torn,
            fsync_rate: fsync,
            open_rate: open,
            ..Default::default()
        };
        let dataset = table1();
        let path = std::env::temp_dir().join(format!(
            "icrowd_durability_prop_{}_{}_{}.bin",
            seed,
            policy.name(),
            std::process::id()
        ));

        // Scan seeds until the header write survives the faulty disk,
        // so injected faults land on live mutations instead.
        let (eng, io) = 'scan: {
            for s in seed..seed + 1_000 {
                fault_config.seed = s;
                let io = FaultyIo::new(fault_config.clone());
                let eng =
                    CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
                if eng
                    .start_journal_with(&path, 1, 8, policy, Box::new(io.clone()))
                    .is_ok()
                {
                    break 'scan (eng, io);
                }
                std::fs::remove_file(&path).ok();
            }
            panic!("no seed admitted a clean header write");
        };
        let probe = eng.durability();
        drive_to_end(&eng, &dataset, config().seed);
        let _ = io.stats();

        let health = eng.journal_health().expect("journaled engine");
        match policy {
            DurabilityPolicy::FailStop => {
                prop_assert!(!probe.degraded(), "fail-stop must never degrade");
                if probe.fail_stopped() {
                    prop_assert_eq!(health.state, "fail-stop");
                    let refusal = eng.handle(
                        &Request::RequestTask { worker: "W1".into() },
                        0,
                    );
                    prop_assert!(
                        matches!(refusal, Response::Error { .. }),
                        "fail-stopped server served a mutation"
                    );
                }
            }
            DurabilityPolicy::Degrade => {
                prop_assert!(!probe.fail_stopped(), "degrade must never fail-stop");
            }
            DurabilityPolicy::Retry => {
                prop_assert!(!probe.fail_stopped(), "retry must never fail-stop");
                prop_assert!(
                    matches!(health.state, "attached" | "retrying" | "degraded"),
                    "unexpected retry state {}",
                    health.state
                );
            }
        }
        // Accepted-but-unjournaled work is only ever admitted once the
        // journal has left the attached state.
        if health.unjournaled > 0 {
            prop_assert!(
                health.state != "attached" || health.pending > 0,
                "unjournaled ops while attached with nothing pending"
            );
        }

        let result = eng.finalize();
        prop_assert!(result.accounting.balanced(), "live accounting unbalanced");

        // The invariant under test: whatever the faults did, the file on
        // disk is a valid replayable prefix — raw read tolerates a torn
        // tail and full recovery (replay + snapshot verification +
        // conservation laws) succeeds and re-balances on finalize.
        let readout = read_journal(&path).expect("journal file readable");
        prop_assert!(readout.header.is_some(), "journal lost its header");
        let (recovered, report) = recover_with_policy(
            &path,
            "table1",
            table1(),
            Approach::RandomMV,
            config(),
            1,
            8,
            policy,
        )
        .expect("recovery replays the surviving prefix");
        let _ = report;
        let recovered_result = recovered.finalize();
        prop_assert!(
            recovered_result.accounting.balanced(),
            "finalized recovered state unbalanced"
        );
        std::fs::remove_file(&path).ok();
    }
}
