//! The Appendix-A deployment loop over real sockets: iCrowd's
//! ExternalQuestion server listens on TCP, and five client threads —
//! each on one persistent connection — bring the simulated AMT workers
//! to it, exactly like AMT callbacks hitting the paper's web server.
//! Prints the answer flow, the payment books and the final accuracy.
//!
//! ```sh
//! cargo run --release --example amt_server
//! ```

use icrowd::AssignStrategy;
use icrowd_serve::{run_loadgen, serve, CampaignEngine, LoadgenConfig, ServeConfig};
use icrowd_sim::campaign::{Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::table1::table1;

fn main() {
    let mut config = CampaignConfig {
        metric: MetricChoice::Jaccard,
        seed: 11,
        ..Default::default()
    };
    config.icrowd.similarity_threshold = 0.5;
    config.icrowd.warmup.num_qualification = 3;
    let engine = CampaignEngine::new(
        "table1",
        table1(),
        Approach::ICrowd(AssignStrategy::Adapt),
        config,
    );
    let handle = serve(engine, &ServeConfig::default()).expect("bind an ephemeral port");
    println!("ExternalQuestion server listening on {}", handle.addr());

    println!("driving the campaign from 5 client threads...");
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        workers: 5,
        ..Default::default()
    })
    .expect("the campaign runs to the end");
    // The load generator sent SHUTDOWN; the server drains and scores.
    let result = handle.join();

    println!(
        "{} requests for {} accepted answers ({:.0} answers/s)",
        report.requests, report.accepted, report.throughput
    );
    let a = result.accounting;
    println!(
        "answers: submitted {} accepted {} rejected {} paid {}; spend {} cents; balanced {}",
        a.answers_submitted,
        a.answers_accepted,
        a.answers_rejected,
        a.answers_paid,
        result.spend_cents,
        a.balanced()
    );
    println!(
        "campaign complete: {}; final accuracy {:.3} over {} labels",
        result.completed,
        result.overall,
        result.labels.len()
    );
}
