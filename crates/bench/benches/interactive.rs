//! Interactivity: time-to-first-packet under on-demand streaming.
//!
//! The paper's §I claim: "Through database-style optimizations described
//! in this paper and on-demand streaming, V2V enables a VDBMS to execute
//! such a query and to begin playback within seconds." This harness
//! measures when playback *could start* for the long-input queries:
//! the streaming executor delivers packets in presentation order as
//! segments complete, so copy-first plans start in near-zero time, while
//! the unoptimized arm cannot start until it finishes everything.
//!
//! `ttfp` and `total` are read from the run's execution trace
//! (`first_packet_ns`, `wall_ns`) and measured from executor start, so
//! planning is excluded from both.

use std::time::Duration;
use v2v_bench::{build_query, engine_for, measure, print_header, secs, setup_kabr, Arm, QueryId};

fn main() {
    let ds = setup_kabr();
    print_header(
        "Interactive",
        "time to first packet (streaming) vs total synthesis time",
    );
    println!();
    println!(
        "{:<6} {:>14} {:>14} {:>14}",
        "query", "ttfp opt (s)", "total opt (s)", "unopt (s)"
    );
    for q in [QueryId::Q6, QueryId::Q7, QueryId::Q9, QueryId::Q10] {
        let spec = build_query(&ds, q);
        let mut engine = engine_for(&ds, Arm::Optimized);
        let (_, trace) = engine.run_streaming(&spec, |_| {}).expect("streaming run");
        let unopt = measure(&ds, q, Arm::Unoptimized);
        println!(
            "{:<6} {:>14} {:>14} {:>14}",
            q.label(),
            secs(Duration::from_nanos(trace.exec.first_packet_ns)),
            secs(Duration::from_nanos(trace.exec.wall_ns)),
            secs(unopt.mean),
        );
    }
    println!();
    println!("reading: playback can begin at 'ttfp opt'; the unoptimized arm");
    println!("only has its first frame when the whole synthesis finishes.");
}
