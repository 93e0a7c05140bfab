//! The DeepER-LSTM recipe the serving and training workloads share: a
//! seeded Dirty `ErBenchmark`, SGNS word embeddings over its tuples and
//! a domain corpus, and a held-out split of labelled pairs.

use autodc::datagen::{ErBenchmark, ErPair, ErSuite};
use autodc::embed::{Embeddings, SgnsConfig};
use autodc::er::{Composition, DeepEr, DeepErConfig};
use rand::rngs::StdRng;

/// Entities in the Dirty ER benchmark (~1.6k labelled pairs).
const ENTITIES: usize = 400;
/// Training pairs per LSTM fit; the held-out half of the labelled
/// pairs (~800) is the test set.
const TRAIN_PAIRS: usize = 200;
/// Epochs per LSTM fit.
pub const EPOCHS: usize = 10;
const HIDDEN: usize = 32;
const MAX_TOKENS: usize = 10;

pub struct ErData {
    pub bench: ErBenchmark,
    pub emb: Embeddings,
    pub train_pairs: Vec<(usize, usize)>,
    pub train_labels: Vec<bool>,
    pub test_pairs: Vec<(usize, usize)>,
    pub test_labels: Vec<bool>,
}

fn unzip(pairs: &[ErPair]) -> (Vec<(usize, usize)>, Vec<bool>) {
    pairs.iter().map(|p| ((p.a, p.b), p.label)).unzip()
}

impl ErData {
    pub fn generate(rng: &mut StdRng) -> ErData {
        let bench = ErBenchmark::generate(ErSuite::Dirty, ENTITIES, 3, rng);
        let mut docs: Vec<Vec<String>> = bench
            .table
            .rows
            .iter()
            .map(|r| autodc::relational::tokenize_tuple(r))
            .collect();
        docs.extend(autodc::datagen::corpus::domain_corpus(200, rng));
        let sgns = SgnsConfig::default().with_dim(16).with_epochs(5);
        let emb = Embeddings::train(&docs, &sgns, rng);
        let (train, test) = ErBenchmark::split_pairs(&bench.labeled_pairs(2, rng), 0.5, rng);
        let (train_pairs, train_labels) = unzip(&train[..TRAIN_PAIRS.min(train.len())]);
        let (test_pairs, test_labels) = unzip(&test);
        ErData {
            bench,
            emb,
            train_pairs,
            train_labels,
            test_pairs,
            test_labels,
        }
    }

    /// `DeepEr::train` with the LSTM composition, pair by pair.
    pub fn fit_lstm(&self, epochs: usize, rng: &mut StdRng) -> DeepEr {
        DeepEr::train(
            self.emb.clone(),
            &self.bench.table,
            &self.train_pairs,
            &self.train_labels,
            Composition::Lstm {
                hidden: HIDDEN,
                max_tokens: MAX_TOKENS,
            },
            DeepErConfig::default()
                .with_epochs(epochs)
                .with_hidden(&[HIDDEN]),
            rng,
        )
    }

    /// LSTM pair-steps one fit of `epochs` runs.
    pub fn pair_steps(&self, epochs: usize) -> usize {
        self.train_pairs.len() * epochs
    }

    /// Encoder shape of one LSTM step: (tokens, embedding dim, hidden).
    pub fn lstm_shape(&self) -> (usize, usize, usize) {
        (MAX_TOKENS, self.emb.dim(), HIDDEN)
    }
}
