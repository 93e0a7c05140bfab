//! `train_deeper`: DeepER training on one seeded Dirty `ErBenchmark`
//! with SGNS word embeddings, in two timed phases:
//!
//! * **LSTM** — `DeepEr::train` with `Composition::Lstm`, pair by pair
//!   (batch 1): tape, buffer pool and small-GEMM bound;
//! * **streamed** — the average-composition classifier (`tuple_vectors`
//!   → `embedding_feature_matrix` → `MlpTrainer`) trained through
//!   `run_dataset_epochs` from a file-backed `ChunkedStore` opened with
//!   a residency budget below its chunk count: chunk I/O, gather and
//!   the backward GEMMs.
//!
//! The two phases alternate fit by fit through the measured window, so
//! both see the same host conditions. Every LSTM fit must reproduce a
//! reference fit from the same initialisation bit for bit (held-out
//! scores), and every streamed fit
//! must end with weights bitwise equal to a resident fit over the same
//! `ChunkedDataset` order (both run untimed, after the window).

use crate::harness::{
    median, obs_counter, obs_timer, obs_timer_sum, quantile, ratio, timed_setups, Args, Outcome,
    Probed, Rep,
};
use crate::matcher::{ErData, EPOCHS};
use autodc::data::{ChunkedDataset, ChunkedStore};
use autodc::datagen::{ErBenchmark, ErPair};
use autodc::er::eval::best_threshold;
use autodc::er::features::{embedding_feature_matrix, tuple_vectors};
use autodc::er::DeepEr;
use autodc::nn::linear::Activation;
use autodc::nn::loss::{class_weights, LossKind};
use autodc::nn::mlp::Mlp;
use autodc::nn::optim::Adam;
use autodc::nn::train::{run_dataset_epochs, MlpTrainer, TrainOpts};
use autodc::tensor::{kernel, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Streamed phase: negatives per positive pair, epochs per fit, rows
/// per chunk, and the residency budget in chunks.
const NEG_PER_POS: usize = 12;
const STREAM_EPOCHS: usize = 60;
const CHUNK_ROWS: usize = 256;
const BUDGET_CHUNKS: usize = 6;
const STREAM_BATCH: usize = 32;
const STREAM_HIDDEN: usize = 32;
/// LSTM fits and streamed fits each cycle through this many
/// initialisations. How fast a fit runs depends on its trajectory (late
/// in training, saturated logits push gradients and Adam moments into
/// subnormal floats, which run far slower): on one seed, the median
/// streamed fit time of four initialisations ranged over 1.8×. One
/// initialisation per run would make the rates a property of the seed
/// more than of the code.
const LSTM_INITS: usize = 4;
const STREAM_INITS: usize = 8;

/// Everything the two phases train on, plus the store files.
struct Corpus {
    er: ErData,
    x_train: Tensor,
    y_train: Tensor,
    x_test: Tensor,
    y_test: Vec<bool>,
    dir: StoreDir,
    seed: u64,
}

/// The store files' directory inside the working tree, removed on
/// drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn create() -> StoreDir {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("train-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the store directory");
        StoreDir(dir)
    }

    fn x(&self) -> PathBuf {
        self.0.join("x.dcstore")
    }

    fn y(&self) -> PathBuf {
        self.0.join("y.dcstore")
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn labels_tensor(pairs: &[ErPair]) -> Tensor {
    Tensor::from_vec(
        pairs.len(),
        1,
        pairs
            .iter()
            .map(|p| if p.label { 1.0 } else { 0.0 })
            .collect(),
    )
}

fn build(seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let er = ErData::generate(&mut rng);
    let (train, test) = ErBenchmark::split_pairs(
        &er.bench.labeled_pairs(NEG_PER_POS, &mut rng),
        0.8,
        &mut rng,
    );
    let vectors = tuple_vectors(&er.emb, &er.bench.table);
    let pairs = |ps: &[ErPair]| ps.iter().map(|p| (p.a, p.b)).collect::<Vec<_>>();
    let x_train = embedding_feature_matrix(&vectors, &pairs(&train));
    let y_train = labels_tensor(&train);
    let x_test = embedding_feature_matrix(&vectors, &pairs(&test));
    let dir = StoreDir::create();
    ChunkedStore::write(&dir.x(), &x_train, CHUNK_ROWS).expect("write the feature store");
    ChunkedStore::write(&dir.y(), &y_train, CHUNK_ROWS).expect("write the label store");

    let corpus = Corpus {
        er,
        x_train,
        y_train,
        x_test,
        y_test: test.iter().map(|p| p.label).collect(),
        dir,
        seed,
    };
    // Untimed warm-up: one fit of each phase.
    corpus.fit_lstm(0);
    corpus.fit_streamed(0);
    corpus
}

impl Corpus {
    /// An LSTM fit from initialisation `init`.
    fn fit_lstm(&self, init: usize) -> DeepEr {
        let seed = self.seed ^ 0x157a ^ ((init as u64) << 32);
        self.er.fit_lstm(EPOCHS, &mut StdRng::seed_from_u64(seed))
    }

    fn lstm_scores(&self, model: &DeepEr) -> Vec<f32> {
        model.predict(&self.er.bench.table, &self.er.test_pairs)
    }

    fn open_streamed(&self) -> ChunkedDataset {
        let open = |p: PathBuf| {
            ChunkedStore::open_with_budget(&p, BUDGET_CHUNKS).expect("open the written store")
        };
        ChunkedDataset::with_targets(open(self.dir.x()), open(self.dir.y()))
    }

    /// Train the streamed classifier from initialisation `init` over
    /// `ds`.
    fn fit_on(&self, ds: &mut ChunkedDataset, init: usize) -> Mlp {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5772 ^ ((init as u64) << 32));
        let mut model = Mlp::new(
            &[self.x_train.cols, STREAM_HIDDEN, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let labels: Vec<bool> = self.y_train.data.iter().map(|&y| y > 0.5).collect();
        let (w_neg, w_pos) = class_weights(&labels);
        let mut opt = Adam::new(0.01);
        let mut trainer = MlpTrainer {
            model: &mut model,
            loss: LossKind::Bce { w_neg, w_pos },
            opt: &mut opt,
        };
        let opts = TrainOpts::default()
            .with_epochs(STREAM_EPOCHS)
            .with_batch_size(STREAM_BATCH);
        run_dataset_epochs("bench.stream", &mut trainer, ds, &opts, &mut rng);
        model
    }

    /// A streamed fit; returns the model and the dataset (for its cache
    /// statistics).
    fn fit_streamed(&self, init: usize) -> (Mlp, ChunkedDataset) {
        let mut ds = self.open_streamed();
        let model = self.fit_on(&mut ds, init);
        (model, ds)
    }

    /// The same fit over an in-memory store with the same chunking,
    /// so the epoch order is identical.
    fn fit_resident(&self, init: usize) -> Mlp {
        let mut ds = ChunkedDataset::with_targets(
            ChunkedStore::from_tensor(&self.x_train, CHUNK_ROWS),
            ChunkedStore::from_tensor(&self.y_train, CHUNK_ROWS),
        );
        self.fit_on(&mut ds, init)
    }
}

fn weight_bits(m: &Mlp) -> Vec<u32> {
    m.layers
        .iter()
        .flat_map(|l| l.w.data.iter().chain(&l.b.data))
        .map(|v| v.to_bits())
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-phase repetition times and what the repetitions produced. Every
/// fit is bracketed by host-speed probes.
struct Phases {
    clock: Probed,
    lstm: Vec<Rep>,
    stream: Vec<Rep>,
    lstm_scores: Vec<Vec<u32>>,
    stream_weights: Vec<Vec<u32>>,
}

impl Phases {
    fn new() -> Phases {
        Phases {
            clock: Probed::start(),
            lstm: Vec::new(),
            stream: Vec::new(),
            lstm_scores: Vec::new(),
            stream_weights: Vec::new(),
        }
    }

    fn lstm(&mut self, c: &Corpus) {
        let init = self.lstm.len() % LSTM_INITS;
        let (model, rep) = self.clock.time(|| c.fit_lstm(init));
        self.lstm.push(rep);
        self.lstm_scores.push(bits(&c.lstm_scores(&model)));
    }

    /// One streamed fit; returns the dataset for its cache statistics.
    fn stream(&mut self, c: &Corpus) -> ChunkedDataset {
        let init = self.stream.len() % STREAM_INITS;
        let ((model, ds), rep) = self.clock.time(|| c.fit_streamed(init));
        self.stream.push(rep);
        self.stream_weights.push(weight_bits(&model));
        ds
    }

    /// Alternate LSTM and streamed fits until `window` has elapsed
    /// since `start`, so both phases sample the same stretch of host
    /// time.
    fn run_until(&mut self, c: &Corpus, start: Instant, window: Duration) {
        while self.lstm.is_empty() || start.elapsed() < window {
            self.lstm(c);
            self.stream(c);
        }
    }
}

/// Work per second of one fit from each initialisation: repetition `i`
/// started from initialisation `i % inits`, and each initialisation
/// counts with the median corrected time of its fits, so a window that
/// ends part-way through a cycle does not weight some initialisations
/// more than others.
fn rate(work_per_rep: f64, reps: &[Rep], inits: usize) -> f64 {
    let per_init: Vec<f64> = (0..inits)
        .filter_map(|i| {
            let mut t: Vec<f64> = reps
                .iter()
                .skip(i)
                .step_by(inits)
                .map(|r| r.corrected_s)
                .collect();
            (!t.is_empty()).then(|| median(&mut t))
        })
        .collect();
    work_per_rep * per_init.len() as f64 / per_init.iter().sum::<f64>()
}

/// Times in milliseconds, for the progress log.
fn ms(reps: &[Rep], time: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(|r| (time(r) * 1e3).round()).collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (c, setup_s) = timed_setups(5, || build(args.seed));
    let pair_steps = c.er.pair_steps(EPOCHS) as f64;
    let row_epochs = (c.x_train.rows * STREAM_EPOCHS) as f64;
    eprintln!(
        "train_deeper: {pair_steps} LSTM pair-steps and {row_epochs} streamed row-epochs per fit, \
         {} chunks, budget {BUDGET_CHUNKS}",
        c.x_train.rows.div_ceil(CHUNK_ROWS),
    );

    let mut untraced = Phases::new();
    let traced = if args.trace {
        untraced.run_until(&c, Instant::now(), args.window() / 2);
        dc_obs::set_enabled(true);
        let t = traced_phases(&c, args.window() / 2);
        dc_obs::set_enabled(false);
        Some(t)
    } else {
        untraced.run_until(&c, Instant::now(), args.window());
        None
    };
    eprintln!(
        "train_deeper: LSTM fits in order, wall (ms) {:?}, corrected (ms) {:?}",
        ms(&untraced.lstm, |r| r.wall_s),
        ms(&untraced.lstm, |r| r.corrected_s)
    );
    eprintln!(
        "train_deeper: streamed fits in order, wall (ms) {:?}, corrected (ms) {:?}",
        ms(&untraced.stream, |r| r.wall_s),
        ms(&untraced.stream, |r| r.corrected_s)
    );

    // Output checks, untimed: every repetition equals the reference.
    let references: Vec<Vec<f32>> = (0..LSTM_INITS)
        .map(|i| c.lstm_scores(&c.fit_lstm(i)))
        .collect();
    let reference: Vec<Vec<u32>> = references.iter().map(|s| bits(s)).collect();
    let residents: Vec<Mlp> = (0..STREAM_INITS).map(|i| c.fit_resident(i)).collect();
    let resident: Vec<Vec<u32>> = residents.iter().map(weight_bits).collect();
    let all = std::iter::once(&untraced).chain(traced.as_ref().map(|t| &t.phases));
    for p in all {
        for (i, s) in p.lstm_scores.iter().enumerate() {
            out.op(*s == reference[i % LSTM_INITS], || {
                "LSTM fit is not reproducible: held-out scores differ between repetitions".into()
            });
        }
        for (i, w) in p.stream_weights.iter().enumerate() {
            out.op(*w == resident[i % STREAM_INITS], || {
                "streamed classifier weights differ from the resident fit".into()
            });
        }
    }

    let Some(t) = traced else {
        let mut lat: Vec<f64> = untraced.lstm.iter().map(|r| r.corrected_s * 1e3).collect();
        // Bitwise equal to the streamed fits (checked above).
        let stream_f1: f64 = residents
            .iter()
            .map(|m| best_threshold(&m.predict_proba(&c.x_test), &c.y_test).f1)
            .sum::<f64>()
            / STREAM_INITS as f64;
        out.metric("setup_s", setup_s, "s");
        out.metric(
            "throughput_per_s",
            rate(pair_steps, &untraced.lstm, LSTM_INITS),
            "1/s",
        );
        out.metric("latency_p50_ms", median(&mut lat), "ms");
        out.metric("latency_p95_ms", quantile(&mut lat, 0.95), "ms");
        out.metric(
            "stream_rows_per_s",
            rate(row_epochs, &untraced.stream, STREAM_INITS),
            "1/s",
        );
        // Bitwise equal to the timed LSTM fits (checked above).
        let lstm_f1: f64 = references
            .iter()
            .map(|s| best_threshold(s, &c.er.test_labels).f1)
            .sum::<f64>()
            / LSTM_INITS as f64;
        out.metric("quality", lstm_f1, "score");
        out.metric("stream_quality", stream_f1, "score");
        return out;
    };

    let mean = |v: &[Rep]| v.iter().map(|r| r.wall_s).sum::<f64>() / v.len() as f64;
    let traced_rep = mean(&t.phases.lstm) + mean(&t.phases.stream);
    let untraced_rep = mean(&untraced.lstm) + mean(&untraced.stream);
    out.metric(
        "obs.overhead_pct",
        (traced_rep / untraced_rep - 1.0) * 100.0,
        "%",
    );
    let lstm = &t.lstm_report;
    let (steps, step_ns) = obs_timer(lstm, "er.deeper_lstm.batch");
    out.metric(
        "nn.lstm.step_us",
        ratio(step_ns as f64 / 1e3, steps as f64),
        "us",
    );
    let (ssteps, sstep_ns) = obs_timer(&t.stream_report, "bench.stream.batch");
    out.metric(
        "nn.stream.step_us",
        ratio(sstep_ns as f64 / 1e3, ssteps as f64),
        "us",
    );
    let hit = obs_counter(lstm, "tape.pool.hit") as f64;
    let miss = obs_counter(lstm, "tape.pool.miss") as f64;
    out.metric("tensor.pool.hit_rate", ratio(hit, hit + miss), "ratio");
    let gemm = (obs_timer_sum(lstm, "tape.fwd.", |op| op == "matmul")
        + obs_timer_sum(lstm, "tape.bwd.", |op| op == "matmul")) as f64;
    let eltwise = (obs_timer_sum(lstm, "tape.fwd.", |op| op != "matmul")
        + obs_timer_sum(lstm, "tape.bwd.", |op| op != "matmul")) as f64;
    let gemm_share = ratio(gemm, step_ns as f64);
    let eltwise_share = ratio(eltwise, step_ns as f64);
    out.metric("tensor.op.gemm_share", gemm_share, "ratio");
    out.metric("tensor.op.eltwise_share", eltwise_share, "ratio");
    out.metric(
        "tensor.bookkeeping_share",
        1.0 - gemm_share - eltwise_share,
        "ratio",
    );
    let gemm_gflops = step_gemm_gflops(&c);
    let peak = crate::host::peak_gflops();
    out.metric("tensor.gemm_gflops", gemm_gflops, "GFLOP/s");
    out.metric("tensor.peak_gflops", peak, "GFLOP/s");
    out.metric(
        "tensor.gemm_pct_peak",
        100.0 * ratio(gemm_gflops, peak),
        "%",
    );
    out.metric("data.chunk.misses", t.chunk_misses as f64, "count");
    out.metric("data.chunk.evicts", t.chunk_evicts as f64, "count");
    out.metric("data.chunk_read_ms", chunk_read_ms(&c), "ms");
    let (_, gather_ns) = obs_timer(&t.stream_report, "data.gather");
    out.metric("data.gather_ms", gather_ns as f64 / 1e6, "ms");
    out.metric(
        "data.batch.alloc",
        obs_counter(&t.stream_report, "data.batch.alloc") as f64,
        "count",
    );
    out
}

/// The traced repetitions and what dc-obs counted during each phase.
struct Traced {
    phases: Phases,
    lstm_report: dc_obs::ObsReport,
    stream_report: dc_obs::ObsReport,
    chunk_misses: u64,
    chunk_evicts: u64,
}

/// One traced LSTM fit and one traced streamed fit, each against
/// freshly zeroed dc-obs counters, then further traced repetitions
/// until `window` is used, for the overhead figure.
fn traced_phases(c: &Corpus, window: Duration) -> Traced {
    let start = Instant::now();
    let mut phases = Phases::new();
    dc_obs::reset();
    phases.lstm(c);
    let lstm_report = dc_obs::report();
    dc_obs::reset();
    let ds = phases.stream(c);
    let stream_report = dc_obs::report();
    let stats = ds.x_store().cache_stats();
    phases.run_until(c, start, window);
    Traced {
        phases,
        lstm_report,
        stream_report,
        chunk_misses: stats.misses,
        chunk_evicts: stats.evicts,
    }
}

/// GFLOP/s of isolated `dc_tensor::kernel` calls on the shapes of one
/// training step: the LSTM's hoisted input projection and recurrent
/// GEMM, the streamed classifier's first layer, each forward
/// (`matmul`) and backward (`matmul_t`, `t_matmul`).
fn step_gemm_gflops(c: &Corpus) -> f64 {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let (tokens, d, h) = c.er.lstm_shape();
    // (m, k, n) of the forward product x[m×k] · w[k×n].
    let shapes = [
        (tokens, d, 4 * h),
        (1, h, 4 * h),
        (STREAM_BATCH, c.x_train.cols, STREAM_HIDDEN),
    ];
    let (mut flops, mut secs) = (0.0f64, 0.0f64);
    for &(m, k, n) in &shapes {
        let x = Tensor::randn(m, k, 1.0, &mut rng);
        let w = Tensor::randn(k, n, 1.0, &mut rng);
        let dy = Tensor::randn(m, n, 1.0, &mut rng);
        let per_round = 3.0 * 2.0 * (m * k * n) as f64;
        let t0 = Instant::now();
        let mut rounds = 0u64;
        while t0.elapsed() < Duration::from_millis(100) {
            for _ in 0..64 {
                std::hint::black_box(kernel::matmul(&x, &w));
                std::hint::black_box(kernel::matmul_t(&dy, &w));
                std::hint::black_box(kernel::t_matmul(&x, &dy));
            }
            rounds += 64;
        }
        secs += t0.elapsed().as_secs_f64();
        flops += per_round * rounds as f64;
    }
    flops / secs / 1e9
}

/// Milliseconds for one `visit_chunks` pass over the feature store
/// under the streamed phase's residency budget (every chunk read from
/// the file).
fn chunk_read_ms(c: &Corpus) -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let mut store = ChunkedStore::open_with_budget(&c.dir.x(), BUDGET_CHUNKS)
                .expect("open the written store");
            let t0 = Instant::now();
            let mut sum = 0.0f32;
            store.visit_chunks(|_, t| sum += t.data[0]);
            std::hint::black_box(sum);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut times)
}
