//! Golden label parity for the adaptive assigner: consensus labels from
//! `run_campaign` must stay byte-identical across changes to the
//! assignment kernel. Each case pins an FNV-1a digest of the canonical
//! `labels_lines` rendering, recorded from the reference implementation
//! (sort-and-truncate top worker sets + full greedy packing) with the
//! same configuration `icrowd campaign --dataset D --approach A --seed S`
//! uses. `determinism.rs` compares a run only with itself; this file
//! compares it with a fixed past.
//!
//! table1 runs with `--k 1`: it has 12 tasks, 10 of which are
//! qualification tasks, and at the CLI default `k = 3` every approach
//! and seed yields the same labels, so those rows could not catch a
//! drift. With one answer per task the labels follow who got each task;
//! on seeds 1 and 4 best-effort's labels differ from the adaptive ones.
//!
//! To re-derive a digest by hand:
//! `icrowd campaign --dataset D --approach A --seed S [--k 1] --labels-out l.txt`
//! and hash `l.txt` with 64-bit FNV-1a.

use icrowd::core::ICrowdConfig;
use icrowd::AssignStrategy;
use icrowd_sim::campaign::{
    build_graph, labels_lines, run_campaign_with, select_gold, Approach, CampaignConfig,
    MetricChoice,
};
use icrowd_sim::datasets::by_name;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Assignment size per dataset: the CLI default, except table1 (see the
/// module docs).
fn assignment_size(dataset: &str) -> usize {
    if dataset == "table1" {
        1
    } else {
        3
    }
}

/// The CLI's `campaign` configuration at its defaults, apart from
/// [`assignment_size`].
fn cli_config(dataset: &str, seed: u64) -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: assignment_size(dataset),
        similarity_threshold: 0.8,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 10;
    let metric = match dataset {
        "table1" => MetricChoice::Jaccard,
        _ => MetricChoice::CosTopic { num_topics: 8 },
    };
    CampaignConfig {
        seed,
        icrowd,
        metric,
        ..Default::default()
    }
}

fn approach(name: &str) -> Approach {
    match name {
        "icrowd" => Approach::ICrowd(AssignStrategy::Adapt),
        "qf-only" => Approach::ICrowd(AssignStrategy::QfOnly),
        "best-effort" => Approach::ICrowd(AssignStrategy::BestEffort),
        other => panic!("unknown approach {other}"),
    }
}

/// `(dataset, approach, seed, digest of labels_lines)`.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("yahooqa", "icrowd", 1, 0xc9a4_f583_dc9d_95bb),
    ("yahooqa", "icrowd", 42, 0xe540_863e_a4ad_24f7),
    ("yahooqa", "qf-only", 1, 0x7277_bf9a_4cdf_7f07),
    ("yahooqa", "qf-only", 42, 0xebd2_d9dd_638b_fad8),
    ("yahooqa", "best-effort", 1, 0x2276_0f77_73fb_062d),
    ("yahooqa", "best-effort", 42, 0xa0ff_4874_a983_a613),
    ("item_compare", "icrowd", 1, 0xe245_1226_3c15_6fec),
    ("item_compare", "icrowd", 42, 0xe87e_a9a1_de36_6500),
    ("item_compare", "qf-only", 1, 0xab36_5b73_d817_2837),
    ("item_compare", "qf-only", 42, 0xca34_f8b8_7781_9b24),
    ("item_compare", "best-effort", 1, 0xbb9a_2c8c_e9ee_60ae),
    ("item_compare", "best-effort", 42, 0x3911_c9da_9703_d530),
    ("table1", "icrowd", 1, 0x60a3_c35b_f7ea_db4c),
    ("table1", "icrowd", 4, 0x50cd_8add_fec0_4bfc),
    ("table1", "qf-only", 1, 0x60a3_c35b_f7ea_db4c),
    ("table1", "qf-only", 4, 0x50cd_8add_fec0_4bfc),
    ("table1", "best-effort", 1, 0x60a7_3d5b_f7ed_e071),
    ("table1", "best-effort", 4, 0x60a3_c35b_f7ea_db4c),
];

/// Runs every approach pinned for `(dataset, seed)` over one shared
/// graph and gold set (exactly what `run_campaign` builds per run) and
/// compares each label digest with its golden value.
fn check(dataset: &str, seed: u64) {
    let ds = by_name(dataset, seed).expect("known dataset");
    let config = cli_config(dataset, seed);
    let graph = build_graph(&ds, &config);
    let gold = select_gold(&ds, &graph, &config);
    let mut cases = 0;
    let mut mismatches = Vec::new();
    for &(_, a, _, want) in GOLDEN.iter().filter(|g| g.0 == dataset && g.2 == seed) {
        cases += 1;
        let result = run_campaign_with(&ds, approach(a), &config, graph.clone(), gold.clone());
        let got = fnv1a(labels_lines(&result.labels).as_bytes());
        if got != want {
            mismatches.push(format!(
                "{dataset} {a} seed {seed}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert_eq!(
        cases, 3,
        "every approach is pinned for {dataset} seed {seed}"
    );
    assert!(
        mismatches.is_empty(),
        "labels drifted from the golden digests:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn yahooqa_seed_1_labels_match() {
    check("yahooqa", 1);
}

#[test]
fn yahooqa_seed_42_labels_match() {
    check("yahooqa", 42);
}

#[test]
fn item_compare_seed_1_labels_match() {
    check("item_compare", 1);
}

#[test]
fn item_compare_seed_42_labels_match() {
    check("item_compare", 42);
}

#[test]
fn table1_seed_1_labels_match() {
    check("table1", 1);
}

#[test]
fn table1_seed_4_labels_match() {
    check("table1", 4);
}
