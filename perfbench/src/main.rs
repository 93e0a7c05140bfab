//! The AutoDC benchmark: three workloads reached through the library's
//! public entry points, each printing its end-to-end metrics (tracing
//! off) or its per-layer ledger (`--trace 1`).
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_lake --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The line before it is the host stamp. Progress and the span ledger
//! go to standard error. See `perfbench/NOTES.md` for what each metric
//! means on each workload.

mod harness;
mod host;
mod matcher;
mod pipeline_lake;
mod serve_keepalive;
mod train_deeper;

use harness::{Args, Outcome};

/// End-to-end metrics with their units: every untraced run prints
/// each of these, in this order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("stream_rows_per_s", "1/s"),
    ("quality", "score"),
    ("stream_quality", "score"),
];

/// Per-layer metrics with their units: every traced run prints each of
/// these. A layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("obs.overhead_pct", "%"),
    // pipeline_lake
    ("embed.sgns_ms", "ms"),
    ("embed.sgns.tokens", "count"),
    ("discovery.search_ms", "ms"),
    ("er.tuple_vectors_ms", "ms"),
    ("er.rule_match_ms", "ms"),
    ("er.rule_match.hit_rate", "ratio"),
    ("er.dedup_f1", "f1"),
    ("index.lsh_ms", "ms"),
    ("index.lsh.candidates", "count"),
    ("index.lsh.reduction_ratio", "ratio"),
    ("index.lsh.pair_completeness", "ratio"),
    ("synth.consolidate_ms", "ms"),
    ("relational.fd_discovery_ms", "ms"),
    ("clean.impute_ms", "ms"),
    ("clean.repair_ms", "ms"),
    ("clean.repairs", "count"),
    ("quality.score_ms", "ms"),
    ("pipeline.residual_ms", "ms"),
    // serve_keepalive
    ("serve.client.match_p50_ms", "ms"),
    ("serve.client.encode_p50_ms", "ms"),
    ("serve.client.search_p50_ms", "ms"),
    ("serve.client.index_insert_p50_ms", "ms"),
    ("serve.client.index_delete_p50_ms", "ms"),
    ("serve.client.health_p50_ms", "ms"),
    ("serve.route.match_mean_ms", "ms"),
    ("serve.route.encode_mean_ms", "ms"),
    ("serve.route.search_mean_ms", "ms"),
    ("serve.route.index_insert_mean_ms", "ms"),
    ("serve.route.index_delete_mean_ms", "ms"),
    ("serve.route.health_mean_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.batch.mean_size", "count"),
    ("serve.batch.run_mean_ms", "ms"),
    ("serve.batch.wait_ms", "ms"),
    ("er.match_pairs_us", "us"),
    ("er.encode_rows_us", "us"),
    ("index.inc.inserts", "count"),
    ("index.inc.compactions", "count"),
    ("index.inc.overflow", "count"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    // train_deeper
    ("nn.lstm.step_us", "us"),
    ("nn.stream.step_us", "us"),
    ("tensor.pool.hit_rate", "ratio"),
    ("tensor.op.gemm_share", "ratio"),
    ("tensor.op.eltwise_share", "ratio"),
    ("tensor.bookkeeping_share", "ratio"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.gemm_pct_peak", "%"),
    ("data.chunk.misses", "count"),
    ("data.chunk.evicts", "count"),
    ("data.chunk_read_ms", "ms"),
    ("data.gather_ms", "ms"),
    ("data.batch.alloc", "count"),
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pipeline_lake|serve_keepalive|train_deeper> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Tracing is the benchmark's choice, never the environment's.
    dc_obs::set_enabled(false);
    let stamp = host::stamp();
    eprintln!("host: {stamp}");

    let mut out = match args.workload.as_str() {
        "pipeline_lake" => pipeline_lake::run(&args),
        "serve_keepalive" => serve_keepalive::run(&args),
        "train_deeper" => train_deeper::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if args.trace {
        complete_ledger(&mut out);
    }
    check_metric_set(&out, &args);
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{{\"host\":{stamp}}}");
    println!("{}", out.to_json());
}

/// Traced runs report every per-layer metric in one fixed order; a
/// layer the workload bypasses reads 0.
fn complete_ledger(out: &mut Outcome) {
    let measured = std::mem::take(&mut out.metrics);
    for (name, unit) in PER_LAYER {
        let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        out.metric(name, value, unit);
    }
    for (name, ..) in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is missing from PER_LAYER"
        );
    }
}

fn check_metric_set(out: &Outcome, args: &Args) {
    if !args.trace {
        let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(
            got, END_TO_END,
            "end-to-end metrics out of order or missing"
        );
    }
    for (name, value, _) in &out.metrics {
        assert!(!value.is_nan(), "metric {name} is NaN");
    }
}
