//! `pipeline_lake`: `Pipeline::run` (discover → integrate → clean) over
//! two dirty shards of one seeded people table plus a products decoy.
//!
//! Untraced, the workload repeats `Pipeline::run` on the same lake and
//! rng seed for the measured window; every repetition must reproduce
//! the warm-up's curated table bit for bit. Traced, it replays
//! `Pipeline::run` stage by stage from the library's public functions,
//! with a span around each layer call; the replay must reproduce
//! `Pipeline::run`'s curated table and candidate count bit for bit, in
//! both modes, or the run fails.

use crate::harness::{
    median, quantile, ratio, repeat_for, timed_setups, Args, Ledger, Outcome, Probed,
};
use autodc::clean::{SimpleImputer, SimpleStrategy};
use autodc::datagen::{people_fds, people_table, products_table, ErrorInjector};
use autodc::discovery::NeuralSearch;
use autodc::embed::Embeddings;
use autodc::er::baselines::RuleMatcher;
use autodc::er::features::tuple_vectors;
use autodc::er::LshBlocker;
use autodc::pipeline::{Pipeline, PipelineConfig, PipelineReport};
use autodc::quality::quality_score;
use autodc::relational::{discover_fds, FunctionalDependency, Table, Value};
use autodc::serve::engine;
use autodc::synth::consolidate::{consolidate_cluster, PreferenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};

/// Entities per people shard; two shards put 2 × 300 rows into
/// integration. One `Pipeline::run` then takes ~1 s, short against the
/// host's slow phases, so the probes around it see the speed it ran at.
const ENTITIES: usize = 300;
const DECOY_ROWS: usize = 40;

struct Lake {
    tables: Vec<Table>,
    config: PipelineConfig,
    /// Seed of the rng handed to `Pipeline::run`.
    run_seed: u64,
    /// The warm-up run: the reference every later run must equal.
    reference: (Table, PipelineReport),
}

fn build_lake(seed: u64) -> Lake {
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = people_table(ENTITIES, &mut rng);
    let fds = people_fds();
    let inj = ErrorInjector {
        typo_rate: 0.01,
        null_rate: 0.05,
        swap_rate: 0.0,
        fd_violation_rate: 0.02,
        abbreviation_rate: 0.01,
    };
    let (mut a, _) = inj.inject(&clean, &fds, &mut rng);
    a.name = "people_a".into();
    let (mut b, _) = inj.inject(&clean, &fds, &mut rng);
    b.name = "people_b".into();
    let decoy = products_table(DECOY_ROWS, &mut rng);
    let config = PipelineConfig::default()
        .with_query("people name city country")
        .with_top_k_tables(3);
    let tables = vec![a, decoy, b];
    let run_seed = seed ^ 0x5eed_1a4e;
    let reference = run_pipeline(&tables, &config, run_seed);
    Lake {
        tables,
        config,
        run_seed,
        reference,
    }
}

fn run_pipeline(tables: &[Table], config: &PipelineConfig, seed: u64) -> (Table, PipelineReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    Pipeline::new(config.clone()).run(tables, &mut rng)
}

/// Every bit of a table's cells (floats by bit pattern), for exact
/// comparison.
fn fingerprint(t: &Table) -> Vec<String> {
    t.rows
        .iter()
        .flat_map(|r| r.iter())
        .map(|v| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            Value::Int(i) => format!("i{i}"),
            Value::Text(s) => format!("t{s}"),
            Value::Bool(b) => format!("b{b}"),
            Value::Null => "n".to_string(),
        })
        .collect()
}

fn same_run(a: (&Table, &PipelineReport), b: (&Table, &PipelineReport)) -> bool {
    a.0.name == b.0.name
        && fingerprint(a.0) == fingerprint(b.0)
        && a.1.candidates == b.1.candidates
        && a.1.rows_in == b.1.rows_in
        && a.1.clusters_merged == b.1.clusters_merged
        && a.1.repairs == b.1.repairs
        && a.1.cells_imputed == b.1.cells_imputed
        && a.1.discovered == b.1.discovered
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (lake, setup_s) = timed_setups(5, || build_lake(args.seed));
    let (ref_table, ref_report) = &lake.reference;
    eprintln!(
        "pipeline_lake: {} rows in, {} candidates, {} clusters merged, {} curated rows",
        ref_report.rows_in,
        ref_report.candidates,
        ref_report.clusters_merged,
        ref_table.len()
    );

    let window = if args.trace {
        args.window() / 2
    } else {
        args.window()
    };
    let reference = (&lake.reference.0, &lake.reference.1);
    let mut same = Vec::new();
    let reps = Probed::start().repeat_for(window, 3, || {
        let got = run_pipeline(&lake.tables, &lake.config, lake.run_seed);
        same.push(same_run((&got.0, &got.1), reference));
    });
    for ok in same {
        out.op(ok, || {
            "Pipeline::run output differs from the warm-up run on the same seed".to_string()
        });
    }
    let ms = |v: &[f64]| v.iter().map(|s| (s * 1e3).round()).collect::<Vec<_>>();
    let mut wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let corrected: Vec<f64> = reps.iter().map(|r| r.corrected_s).collect();
    eprintln!(
        "pipeline_lake: {} runs in order, wall (ms) {:?}, corrected (ms) {:?}",
        reps.len(),
        ms(&wall),
        ms(&corrected)
    );
    let untraced_s = median(&mut wall);

    // The staged replay: an output check in both modes, the per-layer
    // ledger in traced mode.
    dc_obs::set_enabled(args.trace);
    let replay_window = if args.trace {
        window
    } else {
        std::time::Duration::ZERO
    };
    let mut ledgers = Vec::new();
    let mut replays = Vec::new();
    repeat_for(replay_window, 1, || {
        let mut ledger = Ledger::default();
        let replay = staged_replay(&lake.tables, &lake.config, lake.run_seed, &mut ledger);
        out.op(
            same_run((&replay.curated, &replay.report), reference),
            || "staged replay differs from Pipeline::run on the same seed".to_string(),
        );
        ledgers.push(ledger);
        replays.push(replay);
    });
    dc_obs::set_enabled(false);

    if !args.trace {
        // Rows curated per second over every run: total rows / total
        // corrected time.
        let rows_per_s =
            ref_report.rows_in as f64 * reps.len() as f64 / corrected.iter().sum::<f64>();
        let mut lat: Vec<f64> = corrected.iter().map(|s| s * 1e3).collect();
        out.metric("setup_s", setup_s, "s");
        out.metric("throughput_per_s", rows_per_s, "1/s");
        out.metric("latency_p50_ms", median(&mut lat), "ms");
        out.metric("latency_p95_ms", quantile(&mut lat, 0.95), "ms");
        out.metric("stream_rows_per_s", rows_per_s, "1/s");
        out.metric("quality", ref_report.after.score(), "score");
        out.metric("stream_quality", ref_report.before.score(), "score");
        return out;
    }

    // Span times are medians over the traced replays; the counts repeat
    // exactly, so they come from the first replay.
    let span_ms = |span: &str| {
        let mut v: Vec<f64> = ledgers.iter().map(|l| l.total_ms(span)).collect();
        median(&mut v)
    };
    eprintln!("trace: {}", ledgers[0].to_json());
    let traced_s = span_ms("pipeline") / 1e3;
    out.metric(
        "obs.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );
    for (metric, span) in [
        ("embed.sgns_ms", "embed.sgns"),
        ("discovery.search_ms", "discovery.search"),
        ("er.tuple_vectors_ms", "er.tuple_vectors"),
        ("er.rule_match_ms", "er.rule_match"),
        ("index.lsh_ms", "index.lsh"),
        ("synth.consolidate_ms", "synth.consolidate"),
        ("relational.fd_discovery_ms", "relational.fd_discovery"),
        ("clean.impute_ms", "clean.impute"),
        ("clean.repair_ms", "clean.repair"),
        ("quality.score_ms", "quality.score"),
    ] {
        out.metric(metric, span_ms(span), "ms");
    }
    let mut residual: Vec<f64> = ledgers.iter().map(|l| l.self_ms("pipeline")).collect();
    out.metric("pipeline.residual_ms", median(&mut residual), "ms");
    let first = &replays[0];
    out.metric("embed.sgns.tokens", first.sgns_tokens as f64, "count");
    out.metric(
        "er.rule_match.hit_rate",
        ratio(first.matched as f64, first.scored as f64),
        "ratio",
    );
    out.metric("er.dedup_f1", first.dedup_f1, "f1");
    out.metric(
        "index.lsh.candidates",
        first.report.candidates as f64,
        "count",
    );
    let n = first.report.rows_in as f64;
    out.metric(
        "index.lsh.reduction_ratio",
        1.0 - ratio(first.report.candidates as f64, n * (n - 1.0) / 2.0),
        "ratio",
    );
    out.metric(
        "index.lsh.pair_completeness",
        first.pair_completeness,
        "ratio",
    );
    out.metric("clean.repairs", first.report.repairs as f64, "count");
    out
}

/// What the staged replay produced, plus the counts only the replay can
/// see.
struct Replay {
    curated: Table,
    report: PipelineReport,
    sgns_tokens: usize,
    scored: usize,
    matched: usize,
    dedup_f1: f64,
    pair_completeness: f64,
}

/// `Pipeline::run`, rebuilt call for call from public functions so
/// each layer gets its own span. Any drift from the library's
/// orchestration shows up as a failed equality check.
fn staged_replay(tables: &[Table], config: &PipelineConfig, seed: u64, l: &mut Ledger) -> Replay {
    let mut rng = StdRng::seed_from_u64(seed);
    let (replay, entity, candidates, clusters) = l.span("pipeline", |l| {
        // ---- discover
        let refs: Vec<&Table> = tables.iter().collect();
        let docs = l.span("discovery.search", |_| {
            autodc::discovery::search_documents(&refs, 15)
        });
        let emb = l.span("embed.sgns", |_| {
            Embeddings::train(&docs, &config.sgns, &mut rng)
        });
        let ranked = l.span("discovery.search", |_| {
            let search = NeuralSearch::index(emb.clone(), &refs, 15);
            engine::search_neural(&search, &config.query, refs.len(), refs.len())
                .expect("lake is non-empty, k >= 1")
        });
        let base = &tables[ranked[0].0];
        let mut discovered = vec![base.name.clone()];
        let mut merged = base.clone();
        merged.name = format!("{}_curated", base.name);
        // Shard row `i` of each people table is entity `i`; remember
        // which entity every merged row came from for the dedup score.
        let mut entity: Vec<usize> = (0..base.len()).collect();
        for &(ti, _) in ranked
            .iter()
            .skip(1)
            .take(config.top_k_tables.saturating_sub(1))
        {
            let t = &tables[ti];
            if t.schema.names() == base.schema.names() {
                discovered.push(t.name.clone());
                for (i, row) in t.rows.iter().enumerate() {
                    merged.push(row.clone());
                    entity.push(i);
                }
            }
        }
        let rows_in = merged.len();

        // ---- integrate
        let tuple_docs: Vec<Vec<String>> = l.span("er.tuple_vectors", |_| {
            merged
                .rows
                .iter()
                .map(|r| autodc::relational::tokenize_tuple(r))
                .collect()
        });
        let sgns_tokens: usize = docs.iter().chain(&tuple_docs).map(Vec::len).sum();
        let tuple_emb = l.span("embed.sgns", |_| {
            Embeddings::train(&tuple_docs, &config.sgns, &mut rng)
        });
        let vectors = l.span("er.tuple_vectors", |_| tuple_vectors(&tuple_emb, &merged));
        let candidates = l.span("index.lsh", |_| {
            let blocker = LshBlocker::new(tuple_emb.dim(), config.lsh.0, config.lsh.1, &mut rng);
            blocker.candidates(&vectors)
        });
        let (mut parent, scored, matched) = l.span("er.rule_match", |_| {
            let matcher = RuleMatcher::new(config.dedup_threshold);
            let mut parent: Vec<usize> = (0..rows_in).collect();
            let mut matched = 0usize;
            for &(a, b) in &candidates {
                if matcher.score(&merged.rows[a], &merged.rows[b]) >= config.dedup_threshold {
                    matched += 1;
                    union(&mut parent, a, b);
                }
            }
            (parent, candidates.len(), matched)
        });
        let (integrated, clusters, clusters_merged) = l.span("synth.consolidate", |_| {
            let clusters = clusters(&mut parent);
            let preference = PreferenceModel::default();
            let mut integrated = Table::new(merged.name.clone(), merged.schema.clone());
            let mut clusters_merged = 0usize;
            for cluster in &clusters {
                if cluster.len() > 1 {
                    clusters_merged += 1;
                }
                let rows: Vec<&[Value]> =
                    cluster.iter().map(|&i| merged.rows[i].as_slice()).collect();
                integrated.push(consolidate_cluster(&rows, &preference));
            }
            (integrated, clusters, clusters_merged)
        });
        let fds = l.span("relational.fd_discovery", |_| {
            select_repair_fds(discover_fds(&integrated, config.max_fd_lhs))
        });
        let before = l.span("quality.score", |_| quality_score(&integrated, &fds));

        // ---- clean (the default configuration: key-masked mode fill)
        let mut cleaned = integrated;
        let cells_imputed = l.span("clean.impute", |_| impute_mode(&mut cleaned));
        let repairs = l.span("clean.repair", |_| {
            let n =
                autodc::clean::repair::repair_fds(&mut cleaned, &fds, config.repair_rounds).len();
            let mut seen = HashSet::new();
            cleaned.rows.retain(|row| {
                let key: Vec<String> = row.iter().map(|v| v.canonical()).collect();
                seen.insert(key)
            });
            n
        });
        let after = l.span("quality.score", |_| quality_score(&cleaned, &fds));
        let replay = Replay {
            curated: cleaned,
            report: PipelineReport {
                discovered,
                rows_in,
                candidates: candidates.len(),
                clusters_merged,
                repairs,
                cells_imputed,
                before,
                after,
            },
            sgns_tokens,
            scored,
            matched,
            dedup_f1: 0.0,
            pair_completeness: 0.0,
        };
        (replay, entity, candidates, clusters)
    });

    // Dedup and blocking quality against the planted shard duplicates,
    // outside the timed spans.
    let n = entity.len();
    let gold: HashSet<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| entity[a] == entity[b])
        .collect();
    let (mut predicted, mut true_pos) = (0usize, 0usize);
    for c in &clusters {
        for (i, &a) in c.iter().enumerate() {
            for &b in &c[i + 1..] {
                predicted += 1;
                true_pos += usize::from(entity[a] == entity[b]);
            }
        }
    }
    let kept = candidates.iter().filter(|p| gold.contains(p)).count();
    Replay {
        dedup_f1: ratio(2.0 * true_pos as f64, (predicted + gold.len()) as f64),
        pair_completeness: ratio(kept as f64, gold.len() as f64),
        ..replay
    }
}

/// The library's key-masked global-mode fill: key-like columns
/// (near-unique values) are left null.
fn impute_mode(t: &mut Table) -> usize {
    let key_like: Vec<bool> = (0..t.schema.arity())
        .map(|c| {
            let non_null = t.rows.iter().filter(|r| !r[c].is_null()).count();
            non_null > 0 && t.distinct(c).len() as f64 / non_null as f64 > 0.8
        })
        .collect();
    let filled = SimpleImputer::fit(t, SimpleStrategy::MeanMode).impute(t);
    let mut n = 0;
    for (row, frow) in t.rows.iter_mut().zip(&filled.rows) {
        for c in 0..row.len() {
            if row[c].is_null() && !key_like[c] {
                row[c] = frow[c].clone();
                n += 1;
            }
        }
    }
    n
}

/// At most one FD per RHS column and no 2-cycles, as the pipeline
/// keeps them.
fn select_repair_fds(fds: Vec<FunctionalDependency>) -> Vec<FunctionalDependency> {
    let mut kept: Vec<FunctionalDependency> = Vec::new();
    let mut rhs_taken = HashSet::new();
    for fd in fds {
        let cycles = kept
            .iter()
            .any(|k| fd.lhs.contains(&k.rhs) && k.lhs.contains(&fd.rhs));
        if rhs_taken.contains(&fd.rhs) || cycles {
            continue;
        }
        rhs_taken.insert(fd.rhs);
        kept.push(fd);
    }
    kept
}

fn find(parent: &mut [usize], x: usize) -> usize {
    if parent[x] != x {
        let root = find(parent, parent[x]);
        parent[x] = root;
    }
    parent[x]
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra] = rb;
    }
}

/// Clusters in ascending order of their smallest member.
fn clusters(parent: &mut [usize]) -> Vec<Vec<usize>> {
    let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..parent.len() {
        let r = find(parent, i);
        map.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = map.into_values().collect();
    out.sort_by_key(|c| c[0]);
    out
}
